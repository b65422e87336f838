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
from typing import Container

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
    re-weight them and multiply them into the votes.

    ``doc_lengths`` holds the vocabulary-filtered token count per document
    and ``raw_doc_lengths`` the pre-filter count; ``doc_freq`` is the number
    of documents containing each word, its row's entry count, as no stored
    weight is zero. Row ``j`` of ``votes`` is the vote fractions of ``doc_ids[j]``.
    """

    words: tuple[str, ...]
    doc_ids: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    scheme: str
    doc_lengths: np.ndarray
    raw_doc_lengths: np.ndarray
    votes: np.ndarray

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def doc_freq(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def row_index(self) -> dict[str, int]:
        return {word: i for i, word in enumerate(self.words)}


def count_terms(corpus: Corpus, vocab: Container[str]) -> TermDocumentMatrix:
    """Count the tokens of ``corpus`` that ``vocab`` holds into a sparse
    words-by-documents matrix.

    Other tokens are dropped, and so are the documents left with no token,
    with a warning; raw-text documents, which have no tokens until
    lemmatized, count as empty. A corpus with zero non-empty documents is an
    error. Rows cover exactly the words occurring at least once, in sorted
    order; columns follow corpus order. The kept documents' pre-filter
    lengths and votes go with the matrix.
    """
    # Vocabulary membership is decided once per distinct string.
    in_vocab = np.fromiter(
        map(vocab.__contains__, corpus.strings), dtype=bool, count=len(corpus.strings)
    )
    keep = in_vocab[corpus.token_ids]
    doc_of = np.repeat(np.arange(len(corpus), dtype=np.int32), corpus.lengths)
    lengths = np.bincount(doc_of[keep], minlength=len(corpus))
    del doc_of
    nonempty = lengths > 0
    empty = len(corpus) - int(np.count_nonzero(nonempty))
    if empty:
        logger.warning(
            "%d document(s) had no tokens after vocabulary filtering and were dropped",
            empty,
        )
    if empty == len(corpus):
        raise MatrixError("corpus has no non-empty documents")
    doc_ids = tuple(compress(corpus.doc_ids, nonempty))
    if len(set(doc_ids)) != len(doc_ids):
        raise MatrixError("duplicate document ids in corpus")
    token_ids = corpus.token_ids[keep]
    del keep
    lengths = lengths[nonempty]

    # The ids that occur are ranked in sorted word order up front, so every
    # occurrence becomes one int64 key row * n_docs + col; the sorted distinct
    # keys are the entries in row-major order and their counts the exact
    # weights. The keys are built and sorted in place, and the distinct ones
    # found by hand, which at 10k x 500 tokens peaks 115 MiB lower than
    # np.unique.
    occurs = np.zeros(len(corpus.strings), dtype=bool)
    occurs[token_ids] = True
    used = sorted(np.flatnonzero(occurs).tolist(), key=corpus.strings.__getitem__)
    words = tuple(map(corpus.strings.__getitem__, used))
    row_of = np.zeros(len(corpus.strings), dtype=np.int64)
    row_of[used] = np.arange(len(used))
    keys = row_of[token_ids]
    del token_ids
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
        raw_doc_lengths=corpus.lengths[nonempty],
        votes=corpus.votes[nonempty],
    )


def check_min_df(min_df: int) -> None:
    """Raise :class:`MatrixError` unless ``min_df`` keeps some row: at least 1."""
    if min_df < 1:
        raise MatrixError(f"min-df must be at least 1, got {min_df}")


def apply_weighting(
    raw: TermDocumentMatrix, scheme: str, *, nf_length: str = "filtered", min_df: int = 1
) -> TermDocumentMatrix:
    """Drop the rows that cannot carry weight, then weight the rest of a
    raw-count matrix entrywise under ``scheme``.

    Rows found in fewer than ``min_df`` documents are dropped, and under
    ``tfidf`` so are the ubiquitous ones (df = N): ln(N / df) is positive
    for every other row, and counts are at least 1, so those are exactly the
    rows tf-idf would zero. Each drop count is logged. ``normalized`` divides
    each column by its document length (filtered length by default,
    pre-filter length with ``nf_length="raw"``). Document lengths describe
    the token streams, not the surviving rows.
    """
    if scheme not in SCHEMES:
        raise MatrixError(f"unknown weighting scheme {scheme!r}: expected one of {SCHEMES}")
    if raw.scheme != "raw":
        raise MatrixError(f"apply_weighting expects raw counts, got scheme {raw.scheme!r}")
    if nf_length not in NF_LENGTH_MODES:
        raise MatrixError(f"unknown nf length mode {nf_length!r}")
    check_min_df(min_df)

    keep = raw.doc_freq >= min_df
    if not keep.any():
        raise MatrixError(f"min-df {min_df} removed every term")
    rare = len(keep) - int(np.count_nonzero(keep))
    if rare:
        logger.info("min-df %d dropped %d term(s)", min_df, rare)
    if scheme == "tfidf":
        keep &= raw.doc_freq < raw.n_docs
        ubiquitous = len(keep) - rare - int(np.count_nonzero(keep))
        if ubiquitous:
            logger.info(
                "tf-idf zeroed %d ubiquitous term(s) (df = N); dropped from the matrix",
                ubiquitous,
            )
    if not keep.all():
        entries = np.repeat(keep, raw.doc_freq)
        raw = dataclasses.replace(
            raw,
            words=tuple(compress(raw.words, keep)),
            indptr=np.concatenate(([0], np.cumsum(raw.doc_freq[keep]))),
            indices=raw.indices[entries],
            data=raw.data[entries],
        )

    if scheme == "raw":
        return raw
    if scheme == "normalized":
        lengths = raw.doc_lengths if nf_length == "filtered" else raw.raw_doc_lengths
        return dataclasses.replace(raw, data=raw.data / lengths[raw.indices], scheme="normalized")
    # tfidf: scale every row by ln(N / df). The log is math.log, once per
    # distinct df: numpy's log may differ in the last bit.
    dfs, inverse = np.unique(raw.doc_freq, return_inverse=True)
    idf = np.array([math.log(raw.n_docs / df) for df in dfs.tolist()])[inverse]
    return dataclasses.replace(raw, data=raw.data * np.repeat(idf, raw.doc_freq), scheme="tfidf")


#: Bytes of text per block of dump lines: a block's temporaries are about
#: twenty times this, small enough to leave the peak RSS where the rest of the
#: build set it.
DUMP_BLOCK_BYTES = 1 << 16


def write_matrix_dump(tdm: TermDocumentMatrix, sink) -> None:
    """Write ``lemma#pos<TAB>doc_id<TAB>weight`` triples in row-major order,
    after a header recording scheme, corpus size, and the tf-idf variant.
    ``sink`` is a text stream or a path; a path is written atomically.

    Every word, doc id and distinct weight is held once, as UTF-8 bytes in
    one buffer. Each block of lines, at most :data:`DUMP_BLOCK_BYTES` of text
    or one longer line, is gathered from it and written at once. The sorted
    copy that finds the distinct weights is the only temporary as long as
    the matrix (a float ``np.unique`` would import ``numpy.ma``).
    """
    data, indptr = tdm.data, tdm.indptr
    with open_sink(sink) as fh:
        fh.write(f"# scheme={tdm.scheme}\tn_docs={tdm.n_docs}\ttfidf_variant={TFIDF_VARIANT}\n")
        if not data.size:
            return
        values = np.sort(data)
        values = values[np.concatenate(([True], values[1:] != values[:-1]))]
        # Cell i is the bytes at[i]:at[i] + size[i] of text: the words and doc
        # ids, each ended by a tab, then the distinct weights, each by a line break.
        texts = [*tdm.words, *tdm.doc_ids, *map(format_float, values.tolist())]
        n_words, n_tabbed = len(tdm.words), len(tdm.words) + tdm.n_docs
        text = "\t".join(texts[:n_tabbed]) + "\t" + "\n".join(texts[n_tabbed:]) + "\n"
        text = np.frombuffer(text.encode(), np.uint8)
        size = np.fromiter(map(len, map(str.encode, texts)), np.intp, len(texts)) + 1
        at = size.cumsum() - size
        widest = [int(part.max()) for part in np.split(size, (n_words, n_tabbed))]
        # A block holds at most DUMP_BLOCK_BYTES of text, or one longer line.
        count_up = np.arange(max(DUMP_BLOCK_BYTES, sum(widest)))
        start, window = 0, DUMP_BLOCK_BYTES // 16
        while start < data.size:
            # The rows holding entries start:stop, each repeated once per entry.
            stop = min(start + window, data.size)
            first = int(indptr.searchsorted(start, "right")) - 1
            last = int(indptr.searchsorted(stop))
            per_row = np.diff(indptr[first : last + 1].clip(start, stop))
            rows = np.repeat(np.arange(first, last), per_row)
            docs = tdm.indices[start:stop] + n_words
            # Keep the lines that fit the block even with the widest weight.
            room = (size[rows] + size[docs] + widest[2]).cumsum()
            n = max(1, int(room.searchsorted(DUMP_BLOCK_BYTES, "right")))
            stop, window = start + n, n + n // 4 + 1
            cells = np.empty((n, 3), np.intp)
            cells[:, 0], cells[:, 1] = rows[:n], docs[:n]
            # Searched for in sorted order, the weights take few, predictable
            # steps each: on the build-tokens benchmark matrix (1,777 distinct
            # nf weights) a search in storage order took twice as long. It is
            # faster only when there are very few distinct weights.
            order = data[start:stop].argsort()
            cells[order, 2] = values.searchsorted(data[start:stop][order]) + n_tabbed
            # Byte j of cell c is text[at[c] + j]: the gather index counts up
            # through each cell from its start.
            counts = size[cells.ravel()]
            ends = counts.cumsum()
            index = np.repeat(at[cells.ravel()] - ends + counts, counts)
            index += count_up[: ends[-1]]
            fh.write(str(text[index], "utf-8"))
            start = stop
