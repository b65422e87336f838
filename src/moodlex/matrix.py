"""Term-by-document weights under raw, normalized, and tf-idf schemes, and
their product with the documents' emotion votes.

The corpus is read in chunks of whole documents, so no array as long as the
corpus's (word, document) entries is held unless the matrix dump asks for
it. The dump's matrix is held as three plain numpy arrays in compressed
sparse row (CSR) form: row ``i`` owns the entries ``indptr[i]:indptr[i + 1]``
of ``indices`` (document columns, ascending) and ``data`` (weights).
Counting is integer arithmetic and rows follow sorted word order, so nothing
depends on the order words are first seen. No explicit zeros are ever stored.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from itertools import chain, compress
from typing import Container

import numpy as np

from .corpus import Corpus
from .errors import MatrixError
from .lexicon import _row_sums
from .sink import format_float, open_sink

logger = logging.getLogger(__name__)

SCHEMES = ("raw", "normalized", "tfidf")
NF_LENGTH_MODES = ("filtered", "raw")

#: Recorded in dump headers for reproducibility: raw term count times
#: natural-log inverse document frequency, no smoothing.
TFIDF_VARIANT = "count*ln(N/df)"

#: Tokens per chunk of whole documents; a longer document is a chunk alone.
CHUNK_TOKENS = 1 << 18


@dataclasses.dataclass(frozen=True, eq=False)
class TermDocumentMatrix:
    """Words-by-documents weights in CSR form, as the matrix dump writes them."""

    words: tuple[str, ...]
    doc_ids: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    scheme: str

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)


def check_min_df(min_df: int) -> None:
    """Raise :class:`MatrixError` unless ``min_df`` keeps some row: at least 1."""
    if min_df < 1:
        raise MatrixError(f"min-df must be at least 1, got {min_df}")


def _chunk_entries(corpus: Corpus, row_of: np.ndarray, n_rows: int, end: int):
    """Per chunk of whole documents before document ``end``, holding at most
    :data:`CHUNK_TOKENS` tokens or one document: its first and end document,
    then the row, the document (counted from the first) and the count of
    each distinct (row, document) pair, in row-major order and in the type
    of the chunk's keys. ``row_of`` maps a token id to its row, or to -1 for
    a token that has none."""
    ends = np.cumsum(corpus.lengths)
    a = 0
    while a < end:
        start = int(ends[a - 1]) if a else 0
        b = max(a + 1, int(ends.searchsorted(start + CHUNK_TOKENS, "right")))
        m = b - a
        # The key row * m + document is below n_rows * m, and negative for a
        # token with no row; the sort puts those first, to be cut off.
        keys = row_of[corpus.token_ids[start : ends[b - 1]]]
        keys = keys.astype(np.int32 if n_rows * m < 2**31 else np.int64, copy=False)
        keys *= m
        keys += np.repeat(np.arange(m, dtype=np.int32), corpus.lengths[a:b])
        keys.sort()
        keys = keys[keys.searchsorted(0) :]
        first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]][: keys.size])
        yield a, b, *np.divmod(keys[first], m), np.diff(first, append=keys.size).astype(keys.dtype)
        a = b


def emotion_mass(
    corpus: Corpus,
    vocab: Container[str],
    scheme: str,
    *,
    nf_length: str = "filtered",
    min_df: int = 1,
    keep_matrix: bool = False,
) -> tuple[tuple[str, ...], np.ndarray, int, TermDocumentMatrix | None]:
    """Count the tokens of ``corpus`` that ``vocab`` holds, weight the counts
    under ``scheme`` and multiply them into the votes. Returns the kept
    words, in sorted order; their raw words-by-emotions mass, for each word
    and emotion the sum over documents of the word's weight times the
    document's vote fraction; the number of documents counted; and, with
    ``keep_matrix``, the weighted matrix, else None.

    A document left with no token is dropped, with a warning; a raw-text
    document has no tokens until lemmatized. No document left is an error.
    Words found in fewer than ``min_df`` documents are dropped, and under
    ``tfidf`` so are the ubiquitous ones (df = N), which tf-idf would zero.
    Each drop is logged; dropping every word is an error. ``normalized``
    divides a count by its document's length: the filtered length, or the
    pre-filter length with ``nf_length="raw"``.

    A first pass over the chunks finds the document frequencies and
    lengths. The second adds each chunk's weighted counts onto every word's
    sums so far: each word's entries are added in document order from 0.0,
    as a CSR matrix-vector product adds them, whatever the chunk bound.
    """
    if scheme not in SCHEMES:
        raise MatrixError(f"unknown weighting scheme {scheme!r}: expected one of {SCHEMES}")
    if nf_length not in NF_LENGTH_MODES:
        raise MatrixError(f"unknown nf length mode {nf_length!r}")
    check_min_df(min_df)

    # Rows: the vocabulary words that occur, sorted; membership once per string.
    in_vocab = np.fromiter(map(vocab.__contains__, corpus.strings), bool, len(corpus.strings))
    occurs = np.zeros(len(corpus.strings), dtype=bool)
    occurs[corpus.token_ids] = True
    used = sorted(np.flatnonzero(occurs & in_vocab).tolist(), key=corpus.strings.__getitem__)
    row_of = np.full(len(corpus.strings), -1, dtype=np.int32)
    row_of[used] = np.arange(len(used))
    doc_freq = np.zeros(len(used), dtype=np.int64)
    lengths = np.zeros(len(corpus))
    for a, b, rows, docs, counts in _chunk_entries(corpus, row_of, len(used), len(corpus)):
        doc_freq += np.bincount(rows, minlength=len(used))
        lengths[a:b] = np.bincount(docs, weights=counts, minlength=b - a)
    nonempty = lengths > 0
    n_docs = int(np.count_nonzero(nonempty))
    if n_docs < len(corpus):
        logger.warning(
            "%d document(s) had no tokens after vocabulary filtering and were dropped",
            len(corpus) - n_docs,
        )
    if not n_docs:
        raise MatrixError("corpus has no non-empty documents")
    doc_ids = tuple(compress(corpus.doc_ids, nonempty))
    if len(set(doc_ids)) != n_docs:
        raise MatrixError("duplicate document ids in corpus")

    keep = doc_freq >= min_df
    if not keep.any():
        raise MatrixError(f"min-df {min_df} removed every term")
    rare = len(keep) - int(np.count_nonzero(keep))
    if rare:
        logger.info("min-df %d dropped %d term(s)", min_df, rare)
    if scheme == "tfidf":
        keep &= doc_freq < n_docs
        if not keep.any():
            raise MatrixError("tf-idf removed every term: each is in every document")
        ubiquitous = len(keep) - rare - int(np.count_nonzero(keep))
        if ubiquitous:
            logger.info(
                "tf-idf zeroed %d ubiquitous term(s) (df = N); dropped from the matrix",
                ubiquitous,
            )
    words = tuple(compress(map(corpus.strings.__getitem__, used), keep))
    # Raw counts times 1; tf-idf's ln(N / df) by math.log (numpy's may differ in the last bit).
    factor = np.ones(len(used))
    if scheme == "tfidf":
        factor = np.array(list(map(math.log, (n_docs / doc_freq).tolist())))
    nf_lengths = lengths if nf_length == "filtered" else corpus.lengths

    # Pass 2 keeps pass 1's rows, dropped words too, and ends on pass 1's last chunk.
    last = (a, b, rows, docs, counts)
    mass = None  # the first chunk's sums start from 0.0
    if keep_matrix:
        sizes = np.where(keep, doc_freq, 0)
        fill = np.cumsum(sizes) - sizes
        indptr = np.append(fill[keep], sizes.sum())
        # One spare last slot takes every entry of a dropped word.
        indices = np.empty(indptr[-1] + 1, dtype=np.int32)
        data = np.empty(indptr[-1] + 1)
        column = np.cumsum(nonempty, dtype=np.int32) - 1
    for a, _, rows, docs, counts in chain(_chunk_entries(corpus, row_of, len(used), a), [last]):
        docs += a
        if scheme == "normalized":
            weights = counts / nf_lengths[docs]
        else:
            weights = counts * factor[rows]
        products = (weights * votes[docs] for votes in corpus.votes.T)
        mass = _row_sums(rows, products, len(used), start=mass)
        if keep_matrix:  # each entry to the next free slot of its row
            per_row = np.bincount(rows, minlength=len(used))
            slots = (fill - per_row.cumsum() + per_row)[rows] + np.arange(rows.size)
            slots[~keep[rows]] = indptr[-1]
            fill += per_row
            indices[slots], data[slots] = column[docs], weights
    if not keep_matrix:
        return words, mass[keep], n_docs, None
    tdm = TermDocumentMatrix(words, doc_ids, indptr, indices[:-1], data[:-1], scheme)
    return words, mass[keep], n_docs, tdm


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
