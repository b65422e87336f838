"""Sparse term-by-document matrices under raw, normalized, and tf-idf weights.

Counting is integer arithmetic and rows follow sorted word order, so the
matrix does not depend on the order words are first seen. No explicit zeros
are ever stored.

scipy is imported inside :func:`count_terms`, the one place that builds a
sparse matrix, rather than at module level: the package imports this module,
and ``score`` and ``eval`` never build one, so they skip the cost of loading
``scipy.sparse`` (about a quarter of a second and 20 MiB per process).
"""

from __future__ import annotations

import dataclasses
import logging
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .corpus import DocumentRecord
from .errors import MatrixError
from .sink import open_sink

if TYPE_CHECKING:
    from scipy import sparse

logger = logging.getLogger(__name__)

SCHEMES = ("raw", "normalized", "tfidf")
NF_LENGTH_MODES = ("filtered", "raw")

#: Recorded in dump headers for reproducibility: raw term count times
#: natural-log inverse document frequency, no smoothing.
TFIDF_VARIANT = "count*ln(N/df)"


@dataclasses.dataclass(frozen=True, eq=False)
class TermDocumentMatrix:
    """Words-by-documents weights plus the metadata needed to re-weight them.

    ``doc_lengths`` holds the vocabulary-filtered token count per document
    and ``raw_doc_lengths`` (when available) the pre-filter count;
    ``doc_freq`` is the number of documents containing each word, taken from
    the raw counts.
    """

    words: tuple[str, ...]
    doc_ids: tuple[str, ...]
    matrix: sparse.csr_matrix
    scheme: str
    doc_lengths: np.ndarray
    doc_freq: np.ndarray
    raw_doc_lengths: np.ndarray | None = None

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @cached_property
    def row_index(self) -> dict[str, int]:
        return {word: i for i, word in enumerate(self.words)}


def count_terms(
    records: Sequence[DocumentRecord],
    *,
    raw_lengths: Mapping[str, int] | None = None,
) -> TermDocumentMatrix:
    """Count raw term occurrences into a sparse words-by-documents matrix.

    Tokens are expected to be vocabulary-filtered already. Documents with no
    tokens are skipped; a corpus with zero non-empty documents is an error.
    Rows cover exactly the words occurring at least once, in sorted order;
    columns follow corpus order.
    """
    from scipy import sparse

    kept = [record for record in records if record.tokens]
    if not kept:
        raise MatrixError("corpus has no non-empty documents")
    doc_ids = tuple(record.doc_id for record in kept)
    if len(set(doc_ids)) != len(doc_ids):
        raise MatrixError("duplicate document ids in corpus")

    # Rows are numbered in sorted word order up front, so the matrix does not
    # depend on the order words are first seen. Every occurrence becomes one
    # (row, col, 1) entry; the CSR conversion sums duplicates, exactly, since
    # the counts are integers.
    words = tuple(sorted(set().union(*(record.tokens for record in kept))))
    row_of = {word: i for i, word in enumerate(words)}
    lengths = np.fromiter(
        (len(record.tokens) for record in kept), dtype=np.int64, count=len(kept)
    )
    rows = np.fromiter(
        map(row_of.__getitem__, chain.from_iterable(record.tokens for record in kept)),
        dtype=np.int32,
        count=int(lengths.sum()),
    )
    cols = np.repeat(np.arange(len(kept), dtype=np.int32), lengths)
    mat = sparse.coo_matrix(
        (np.ones(rows.size, dtype=np.float64), (rows, cols)),
        shape=(len(words), len(doc_ids)),
    ).tocsr()
    mat.sort_indices()

    doc_freq = np.diff(mat.indptr).astype(np.int64)
    doc_lengths = np.asarray(mat.sum(axis=0)).ravel()
    raw_doc_lengths = None
    if raw_lengths is not None:
        try:
            raw_doc_lengths = np.asarray(
                [raw_lengths[doc_id] for doc_id in doc_ids], dtype=np.float64
            )
        except KeyError as exc:
            raise MatrixError(f"missing raw document length for {exc.args[0]!r}") from None
    return TermDocumentMatrix(
        words=words,
        doc_ids=doc_ids,
        matrix=mat,
        scheme="raw",
        doc_lengths=doc_lengths,
        doc_freq=doc_freq,
        raw_doc_lengths=raw_doc_lengths,
    )


def apply_weighting(
    raw: TermDocumentMatrix, scheme: str, *, nf_length: str = "filtered"
) -> TermDocumentMatrix:
    """Transform a raw-count matrix entrywise under ``scheme``.

    ``normalized`` divides each column by its document length (filtered
    length by default, pre-filter length with ``nf_length="raw"``); sparsity
    is unchanged. ``tfidf`` may zero out ubiquitous terms (df = N); such rows
    are dropped from the matrix and the drop count is logged.
    """
    if scheme not in SCHEMES:
        raise MatrixError(f"unknown weighting scheme {scheme!r}: expected one of {SCHEMES}")
    if raw.scheme != "raw":
        raise MatrixError(f"apply_weighting expects raw counts, got scheme {raw.scheme!r}")
    if nf_length not in NF_LENGTH_MODES:
        raise MatrixError(f"unknown nf length mode {nf_length!r}")
    if scheme == "raw":
        return dataclasses.replace(raw, matrix=raw.matrix.copy())

    mat = raw.matrix.copy()
    if scheme == "normalized":
        if nf_length == "filtered":
            lengths = raw.doc_lengths
        else:
            if raw.raw_doc_lengths is None:
                raise MatrixError(
                    "nf_length='raw' requires raw document lengths in the matrix metadata"
                )
            lengths = raw.raw_doc_lengths
        if np.any(lengths <= 0):
            raise MatrixError("document with non-positive length in metadata")
        mat.data = mat.data / lengths[mat.indices]
        return dataclasses.replace(raw, matrix=mat, scheme="normalized")

    # tfidf: scale every row by ln(N / df); df = N rows become all-zero.
    idf = np.log(raw.n_docs / raw.doc_freq.astype(np.float64))
    mat.data = mat.data * np.repeat(idf, np.diff(mat.indptr))
    mat.eliminate_zeros()
    nonzero_rows = np.flatnonzero(np.diff(mat.indptr) > 0)
    if len(nonzero_rows) < len(raw.words):
        dropped = len(raw.words) - len(nonzero_rows)
        logger.info(
            "tf-idf zeroed %d ubiquitous term(s) (df = N); dropped from the matrix",
            dropped,
        )
        mat = mat[nonzero_rows]
        words = tuple(raw.words[i] for i in nonzero_rows)
        doc_freq = raw.doc_freq[nonzero_rows]
    else:
        words = raw.words
        doc_freq = raw.doc_freq
    mat.sort_indices()
    return dataclasses.replace(
        raw, matrix=mat, scheme="tfidf", words=words, doc_freq=doc_freq
    )


def filter_min_df(tdm: TermDocumentMatrix, min_df: int) -> TermDocumentMatrix:
    """Drop rows whose document frequency is below ``min_df`` (raw counts only).

    Document lengths are left untouched: they describe the filtered token
    streams, not the surviving rows.
    """
    if min_df <= 1:
        return tdm
    if tdm.scheme != "raw":
        raise MatrixError("min-df filtering applies to raw counts")
    keep = np.flatnonzero(tdm.doc_freq >= min_df)
    if keep.size == 0:
        raise MatrixError(f"min-df {min_df} removed every term")
    if keep.size == len(tdm.words):
        return tdm
    mat = tdm.matrix[keep]
    mat.sort_indices()
    logger.info("min-df %d dropped %d term(s)", min_df, len(tdm.words) - keep.size)
    return dataclasses.replace(
        tdm,
        matrix=mat,
        words=tuple(tdm.words[i] for i in keep),
        doc_freq=tdm.doc_freq[keep],
    )


def write_matrix_dump(tdm: TermDocumentMatrix, sink) -> None:
    """Write ``lemma#pos<TAB>doc_id<TAB>weight`` triples in row-major order,
    after a header recording scheme, corpus size, and the tf-idf variant.

    ``sink`` is a text stream or a path; a path is written atomically."""
    csr = tdm.matrix
    indptr = csr.indptr.tolist()
    indices = csr.indices.tolist()
    data = csr.data.tolist()
    doc_ids = tdm.doc_ids
    with open_sink(sink) as fh:
        fh.write(
            f"# scheme={tdm.scheme}\tn_docs={tdm.n_docs}\ttfidf_variant={TFIDF_VARIANT}\n"
        )
        for row, word in enumerate(tdm.words):
            start, stop = indptr[row], indptr[row + 1]
            fh.write(
                "".join(
                    f"{word}\t{doc_ids[col]}\t{value:.9g}\n"
                    for col, value in zip(indices[start:stop], data[start:stop])
                )
            )
