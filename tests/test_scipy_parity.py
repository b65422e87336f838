"""The chunked count, weight and product against the same steps done with
scipy.sparse.

moodlex itself does not need scipy; this module is skipped without it. The
reference below does counting, min-df, weighting and the emotion product
with scipy.sparse CSR matrices, and every array must come out equal, not
merely close.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moodlex import (
    EmotionSet,
    MatrixError,
    emotion_mass,
)
from moodlex import matrix

from corpora import corpus_of

sparse = pytest.importorskip("scipy.sparse")

EMOTIONS = EmotionSet.default()
VOTES = {"AFRAID": 1.0}


def scipy_pipeline(streams, raw_lengths, min_df, scheme, nf_length, votes):
    """(words, doc_freq, csr) after counting, min-df and weighting, and the
    product with ``votes`` (one row per kept document); None when no row is
    left."""
    kept = [tokens for tokens in streams if tokens]
    words = sorted(set().union(*kept))
    row_of = {word: i for i, word in enumerate(words)}
    rows = [row_of[t] for tokens in kept for t in tokens]
    cols = [j for j, tokens in enumerate(kept) for _ in tokens]
    mat = sparse.coo_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(len(words), len(kept))
    ).tocsr()
    mat.sort_indices()
    doc_freq = np.diff(mat.indptr)
    lengths = np.asarray(mat.sum(axis=0)).ravel()
    if min_df > 1:
        keep = np.flatnonzero(doc_freq >= min_df)
        if keep.size == 0:
            return None
        mat = mat[keep]
        mat.sort_indices()
        words = [words[i] for i in keep]
        doc_freq = doc_freq[keep]
    mat = mat.copy()
    if scheme == "normalized":
        divisor = lengths if nf_length == "filtered" else raw_lengths
        mat.data = mat.data / divisor[mat.indices]
    elif scheme == "tfidf":
        idf = np.log(len(kept) / doc_freq.astype(np.float64))
        mat.data = mat.data * np.repeat(idf, np.diff(mat.indptr))
        mat.eliminate_zeros()
        nonzero = np.flatnonzero(np.diff(mat.indptr) > 0)
        if nonzero.size == 0:
            return None
        mat = mat[nonzero]
        mat.sort_indices()
        words = [words[i] for i in nonzero]
        doc_freq = doc_freq[nonzero]
    return words, doc_freq, mat, np.asarray(mat @ votes)


corpora = st.lists(
    st.lists(st.integers(0, 7), max_size=9), min_size=1, max_size=8
).filter(lambda streams: any(streams))


@settings(max_examples=150, deadline=None)
@given(
    corpora,
    st.booleans(),
    st.integers(1, 3),
    st.sampled_from(["raw", "normalized", "tfidf"]),
    st.sampled_from(["filtered", "raw"]),
    st.integers(0, 2**32 - 1),
)
@example([[0, 1], [], [1, 2]], True, 1, "tfidf", "filtered", 0)  # df = N: w1 and all#n
@example([[0], [0, 1], [2, 2]], False, 2, "normalized", "raw", 1)  # min-df drops w1, w2
@example([[0], [1]], False, 2, "raw", "filtered", 2)  # min-df drops every row
@example([[0, 1], [1, 0]], False, 1, "tfidf", "filtered", 3)  # tf-idf drops every row
def test_matches_scipy(word_ids, everywhere, min_df, scheme, nf_length, seed):
    """Empty documents are skipped, a word in every document (df = N) is
    dropped by tf-idf, and min-df or tf-idf may drop rows or every row. Each document
    also holds up to three tokens outside the vocabulary."""
    streams = [
        [f"w{i}#n" for i in doc] + (["all#n"] if everywhere and doc else []) for doc in word_ids
    ]
    rng = np.random.default_rng(seed)
    raw_lengths = np.array([len(tokens) + int(rng.integers(0, 4)) for tokens in streams])
    records = corpus_of(
        (f"d{j}", tokens + ["oov#n"] * (n - len(tokens)), VOTES)
        for j, (tokens, n) in enumerate(zip(streams, raw_lengths))
    )
    kept = [bool(tokens) for tokens in streams]
    votes = rng.random((len(streams), len(EMOTIONS)))
    expected = scipy_pipeline(
        streams,
        np.array(raw_lengths[kept], dtype=np.float64),
        min_df,
        scheme,
        nf_length,
        votes[kept],
    )

    records = dataclasses.replace(records, votes=votes)
    vocab = set(records.strings) - {"oov#n"}
    if expected is None:
        with pytest.raises(MatrixError, match="removed every term"):
            emotion_mass(records, vocab, scheme, min_df=min_df)
        return
    words, got, n_docs, tdm = emotion_mass(
        records, vocab, scheme, nf_length=nf_length, min_df=min_df, keep_matrix=True
    )
    want_words, doc_freq, mat, product = expected
    assert list(words) == list(tdm.words) == want_words
    assert tdm.doc_ids == tuple(f"d{j}" for j, tokens in enumerate(streams) if tokens)
    assert n_docs == tdm.n_docs
    assert np.array_equal(np.diff(tdm.indptr), doc_freq)
    assert np.array_equal(tdm.indptr, mat.indptr)
    assert np.array_equal(tdm.indices, mat.indices)
    assert np.array_equal(tdm.data, mat.data)
    assert np.array_equal(got, product)


@pytest.mark.parametrize("chunk_tokens", [1000, matrix.CHUNK_TOKENS])
def test_product_matches_scipy_on_long_rows(monkeypatch, chunk_tokens):
    """Rows with thousands of entries, where a different summation order
    would show in the last bits, summed in one chunk or in 90."""
    monkeypatch.setattr(matrix, "CHUNK_TOKENS", chunk_tokens)
    rng = np.random.default_rng(5)
    n_words, n_docs = 40, 3000
    records = corpus_of(
        (f"d{j}", [f"w{int(i)}#n" for i in rng.integers(0, n_words, size=30)], VOTES)
        for j in range(n_docs)
    )
    votes = rng.dirichlet(np.full(len(EMOTIONS), 0.4), size=n_docs)
    records = dataclasses.replace(records, votes=votes)
    _, got, _, tdm = emotion_mass(records, records.strings, "normalized", keep_matrix=True)
    mat = sparse.csr_matrix((tdm.data, tdm.indices, tdm.indptr), shape=(n_words, n_docs))
    assert np.array_equal(got, np.asarray(mat @ votes))
