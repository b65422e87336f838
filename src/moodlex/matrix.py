"""Sparse term-by-document matrices under raw, normalized, and tf-idf weights.

A matrix is held as three plain numpy arrays in compressed sparse row (CSR)
form: row ``i`` owns the entries ``indptr[i]:indptr[i + 1]`` of ``indices``
(document columns, ascending) and ``data`` (weights). Counting is integer
arithmetic and rows follow sorted word order, so the matrix does not depend
on the order words are first seen. No explicit zeros are ever stored.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from functools import cached_property
from itertools import compress

import numpy as np

from .corpus import Corpus
from .errors import MatrixError
from .sink import format_float, open_sink

logger = logging.getLogger(__name__)

SCHEMES = ("raw", "normalized", "tfidf")
NF_LENGTH_MODES = ("filtered", "raw")

#: Recorded in dump headers for reproducibility: raw term count times
#: natural-log inverse document frequency, no smoothing.
TFIDF_VARIANT = "count*ln(N/df)"


@dataclasses.dataclass(frozen=True, eq=False)
class TermDocumentMatrix:
    """Words-by-documents weights in CSR form plus the metadata needed to
    re-weight them.

    ``doc_lengths`` holds the vocabulary-filtered token count per document
    and ``raw_doc_lengths`` (when available) the pre-filter count;
    ``doc_freq`` is the number of documents containing each word, taken from
    the raw counts.
    """

    words: tuple[str, ...]
    doc_ids: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
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

    def entry_rows(self) -> np.ndarray:
        """The row of every stored entry, in storage order."""
        return np.repeat(np.arange(len(self.words)), np.diff(self.indptr))


def count_terms(corpus: Corpus, *, raw_lengths: np.ndarray | None = None) -> TermDocumentMatrix:
    """Count raw term occurrences into a sparse words-by-documents matrix.

    Tokens are expected to be vocabulary-filtered already; raw-text
    documents, which have no tokens, count as empty. Empty documents are
    skipped; a corpus with zero non-empty documents is an error. Rows cover
    exactly the words occurring at least once, in sorted order; columns
    follow corpus order. ``raw_lengths``, one per document of ``corpus``,
    are the pre-filter lengths kept for normalized frequency.
    """
    nonempty = corpus.lengths > 0
    if not nonempty.any():
        raise MatrixError("corpus has no non-empty documents")
    doc_ids = tuple(compress(corpus.doc_ids, nonempty))
    if len(set(doc_ids)) != len(doc_ids):
        raise MatrixError("duplicate document ids in corpus")
    raw_doc_lengths = None
    if raw_lengths is not None:
        if np.shape(raw_lengths) != (len(corpus),):
            raise MatrixError(
                f"expected {len(corpus)} raw document lengths, got shape {np.shape(raw_lengths)}"
            )
        raw_doc_lengths = np.asarray(raw_lengths, dtype=np.float64)[nonempty]
    lengths = corpus.lengths[nonempty]

    # The ids that occur are ranked in sorted word order up front, so every
    # occurrence becomes one int64 key row * n_docs + col; the sorted distinct
    # keys are the entries in row-major order and their counts the exact
    # weights. The keys are built and sorted in place, and the distinct ones
    # found by hand, which at 10k x 500 tokens peaks 115 MiB lower than
    # np.unique.
    occurs = np.zeros(len(corpus.strings), dtype=bool)
    occurs[corpus.token_ids] = True
    used = sorted(np.flatnonzero(occurs).tolist(), key=corpus.strings.__getitem__)
    words = tuple(map(corpus.strings.__getitem__, used))
    row_of = np.zeros(len(corpus.strings), dtype=np.int64)
    row_of[used] = np.arange(len(used))
    keys = row_of[corpus.token_ids]
    keys *= len(doc_ids)
    keys += np.repeat(np.arange(len(doc_ids), dtype=np.int32), lengths)
    keys.sort()
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    counts = np.diff(first, append=keys.size)
    keys = keys[first]
    doc_freq = np.bincount(keys // len(doc_ids), minlength=len(words))
    return TermDocumentMatrix(
        words=words,
        doc_ids=doc_ids,
        indptr=np.concatenate(([0], np.cumsum(doc_freq))),
        indices=(keys % len(doc_ids)).astype(np.int32),
        data=counts.astype(np.float64),
        scheme="raw",
        doc_lengths=lengths,
        doc_freq=doc_freq,
        raw_doc_lengths=raw_doc_lengths,
    )


def _keep_entries(
    tdm: TermDocumentMatrix, data: np.ndarray, keep: np.ndarray, **changes
) -> TermDocumentMatrix:
    """``tdm`` holding only the entries of ``data`` where ``keep`` is true;
    rows left with no entry are dropped, with their words and doc_freq."""
    per_row = np.bincount(tdm.entry_rows()[keep], minlength=len(tdm.words))
    rows = np.flatnonzero(per_row)
    return dataclasses.replace(
        tdm,
        words=tuple(tdm.words[i] for i in rows),
        indptr=np.concatenate(([0], np.cumsum(per_row[rows]))),
        indices=tdm.indices[keep],
        data=data[keep],
        doc_freq=tdm.doc_freq[rows],
        **changes,
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
        return dataclasses.replace(raw, data=raw.data.copy())

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
        return dataclasses.replace(
            raw, data=raw.data / lengths[raw.indices], scheme="normalized"
        )

    # tfidf: scale every row by ln(N / df); df = N rows become all-zero. The log
    # is math.log, once per distinct df: numpy's log may differ in the last bit.
    dfs, inverse = np.unique(raw.doc_freq, return_inverse=True)
    idf = np.array([math.log(raw.n_docs / df) for df in dfs.tolist()])[inverse]
    data = raw.data * np.repeat(idf, np.diff(raw.indptr))
    out = _keep_entries(raw, data, data != 0, scheme="tfidf")
    if len(out.words) < len(raw.words):
        logger.info(
            "tf-idf zeroed %d ubiquitous term(s) (df = N); dropped from the matrix",
            len(raw.words) - len(out.words),
        )
    return out


def filter_min_df(tdm: TermDocumentMatrix, min_df: int) -> TermDocumentMatrix:
    """Drop rows whose document frequency is below ``min_df`` (raw counts only).

    Document lengths are left untouched: they describe the filtered token
    streams, not the surviving rows.
    """
    if min_df <= 1:
        return tdm
    if tdm.scheme != "raw":
        raise MatrixError("min-df filtering applies to raw counts")
    keep = tdm.doc_freq >= min_df
    if not keep.any():
        raise MatrixError(f"min-df {min_df} removed every term")
    if keep.all():
        return tdm
    logger.info("min-df %d dropped %d term(s)", min_df, len(keep) - np.count_nonzero(keep))
    return _keep_entries(tdm, tdm.data, np.repeat(keep, np.diff(tdm.indptr)))


def write_matrix_dump(tdm: TermDocumentMatrix, sink) -> None:
    """Write ``lemma#pos<TAB>doc_id<TAB>weight`` triples in row-major order,
    after a header recording scheme, corpus size, and the tf-idf variant.

    ``sink`` is a text stream or a path; a path is written atomically."""
    # Each distinct weight is formatted once, each doc_id cell built once.
    # searchsorted gives the indices np.unique's return_inverse would, with
    # a quarter of the temporary memory (47 vs 190 MiB at 4.85M entries).
    values = np.unique(tdm.data)
    which = np.searchsorted(values, tdm.data)
    weights = [format_float(value) + "\n" for value in values.tolist()]
    cells = [doc_id + "\t" for doc_id in tdm.doc_ids]
    bounds = tdm.indptr.tolist()
    with open_sink(sink) as fh:
        fh.write(
            f"# scheme={tdm.scheme}\tn_docs={tdm.n_docs}\ttfidf_variant={TFIDF_VARIANT}\n"
        )
        for word, start, stop in zip(tdm.words, bounds, bounds[1:]):
            head = word + "\t"
            fh.write(
                "".join(
                    [
                        head + cells[col] + weights[w]
                        for col, w in zip(
                            tdm.indices[start:stop].tolist(), which[start:stop].tolist()
                        )
                    ]
                )
            )
