"""Term-document matrix construction and the three weighting schemes."""

from __future__ import annotations

import dataclasses
import io
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moodlex import (
    MatrixError,
    apply_weighting,
    count_terms,
    write_matrix_dump,
)
from moodlex.matrix import DUMP_BLOCK_BYTES

import dense_reference
from corpora import corpus_of
from dense_reference import dense_count, make_random_corpus, normalized_frequency, tfidf_weight


#: Words and doc ids of 1 to 40 code points, of 1 to 4 UTF-8 bytes each.
NAMES = st.text(alphabet="aé文😀", min_size=1, max_size=40)


def records_from(token_streams):
    return corpus_of((f"d{i}", tokens, {"AFRAID": 1.0}) for i, tokens in enumerate(token_streams))


def counted(token_streams):
    """The raw counts of every token of ``token_streams``."""
    records = records_from(token_streams)
    return count_terms(records, records.strings)


class TestCountTerms:
    def test_simple_counts(self):
        tdm = counted([["kill#v", "kill#v", "war#n"]])
        dense = dense_reference.dense(tdm)
        assert tdm.words == ("kill#v", "war#n")
        assert dense[tdm.row_index["kill#v"], 0] == 2
        assert dense[tdm.row_index["war#n"], 0] == 1
        assert tdm.scheme == "raw"

    def test_absent_word_has_no_stored_entry(self):
        tdm = counted([["a#n"], ["b#n"]])
        assert len(tdm.data) == 2  # one entry per (word, doc) that occurs

    def test_random_corpus_matches_nested_loop_recount(self):
        rng = np.random.default_rng(23)
        streams = [
            [f"w{int(k)}#n" for k in rng.integers(0, 12, size=int(rng.integers(1, 30)))]
            for _ in range(10)
        ]
        tdm = counted(streams)
        words, counts = dense_count(streams)
        assert list(tdm.words) == words
        dense = dense_reference.dense(tdm)
        for wi in range(len(words)):
            for dj in range(len(streams)):
                assert dense[wi, dj] == counts[wi][dj]

    def test_doc_freq_and_lengths_metadata(self):
        tdm = counted([["a#n", "b#n"], ["a#n", "a#n", "c#n"]])
        assert tdm.doc_freq[tdm.row_index["a#n"]] == 2
        assert tdm.doc_freq[tdm.row_index["b#n"]] == 1
        np.testing.assert_array_equal(tdm.doc_lengths, [2, 3])

    def test_empty_documents_skipped(self):
        tdm = counted([["a#n"], [], ["b#n"]])
        assert tdm.doc_ids == ("d0", "d2")

    def test_all_empty_is_error(self):
        with pytest.raises(MatrixError, match="no non-empty"):
            counted([[], []])

    def test_duplicate_document_ids_are_an_error(self):
        # parse_corpus rejects a repeated id, so only a hand-made Corpus has one.
        records = dataclasses.replace(records_from([["a#n"], ["b#n"]]), doc_ids=("d1", "d1"))
        with pytest.raises(MatrixError, match="^duplicate document ids in corpus$"):
            count_terms(records, records.strings)

    def test_vocabulary_filter_and_raw_lengths(self):
        records = records_from([["a#n", "x#n"], ["x#n", "x#n"], ["b#n", "a#n", "y#v"]])
        tdm = count_terms(records, {"a#n", "b#n"})
        assert tdm.words == ("a#n", "b#n")
        assert tdm.doc_ids == ("d0", "d2")
        np.testing.assert_array_equal(tdm.doc_lengths, [1, 2])
        np.testing.assert_array_equal(tdm.raw_doc_lengths, [2, 3])
        np.testing.assert_array_equal(tdm.votes, records.votes[[0, 2]])


class TestScalarWeights:
    def test_normalized_frequency(self):
        assert normalized_frequency(2, 4) == 0.5
        assert normalized_frequency(0, 10) == 0.0
        assert normalized_frequency(3, 3) == 1.0

    def test_normalized_frequency_errors(self):
        with pytest.raises(MatrixError):
            normalized_frequency(1, 0)
        with pytest.raises(MatrixError):
            normalized_frequency(5, 3)

    def test_tfidf_value_against_independent_constant(self):
        # 2 * ln(4) evaluated independently at high precision.
        assert tfidf_weight(2, 1, 4) == pytest.approx(2.7725887222397812, abs=1e-12)

    def test_tfidf_ubiquitous_term_is_zero(self):
        for n in (1, 2, 7, 100):
            assert tfidf_weight(5, n, n) == 0.0

    def test_tfidf_absent_term_is_zero(self):
        assert tfidf_weight(0, 3, 10) == 0.0

    def test_tfidf_errors(self):
        with pytest.raises(MatrixError):
            tfidf_weight(1, 0, 10)
        with pytest.raises(MatrixError):
            tfidf_weight(1, 11, 10)


class TestApplyWeighting:
    def test_raw_is_identity(self):
        tdm = counted([["a#n", "b#n", "a#n"]])
        out = apply_weighting(tdm, "raw")
        assert out.scheme == "raw"
        np.testing.assert_array_equal(dense_reference.dense(out), dense_reference.dense(tdm))

    def test_tfidf_drops_ubiquitous_term(self):
        tdm = counted([["a#n", "b#n"], ["a#n"]])
        out = apply_weighting(tdm, "tfidf")
        assert "a#n" not in out.words  # df = N, ln 1 = 0, row dropped
        assert "b#n" in out.words

    def test_normalized_matches_dense_entrywise_oracle(self):
        rng = np.random.default_rng(31)
        streams = [
            [f"w{int(k)}#n" for k in rng.integers(0, 8, size=int(rng.integers(1, 12)))]
            for _ in range(6)
        ]
        tdm = apply_weighting(counted(streams), "normalized")
        words, counts = dense_count(streams)
        dense = dense_reference.dense(tdm)
        for wi, word in enumerate(words):
            for dj, stream in enumerate(streams):
                expected = counts[wi][dj] / len(stream)
                assert dense[tdm.row_index[word], dj] == pytest.approx(expected, abs=1e-15)

    def test_tfidf_matches_scalar_formula(self):
        rng = np.random.default_rng(37)
        streams = [
            [f"w{int(k)}#n" for k in rng.integers(0, 6, size=int(rng.integers(1, 9)))]
            for _ in range(5)
        ]
        raw = counted(streams)
        out = apply_weighting(raw, "tfidf")
        raw_dense = dense_reference.dense(raw)
        out_dense = dense_reference.dense(out)
        for word in out.words:
            wi_raw = raw.row_index[word]
            df = int(raw.doc_freq[wi_raw])
            for dj in range(len(streams)):
                expected = tfidf_weight(raw_dense[wi_raw, dj], df, raw.n_docs)
                assert out_dense[out.row_index[word], dj] == pytest.approx(expected, abs=1e-15)

    def test_tfidf_idf_is_math_log_bit_for_bit(self):
        """Every df from 1 to N = 300 gets exactly math.log(N / df); numpy's
        vectorized log differs from it in the last bit at some of these."""
        n = 300
        # Word k occurs once in each of the first k documents: df = k.
        streams = [[f"w{k:03d}#n" for k in range(j + 1, n + 1)] for j in range(n)]
        out = apply_weighting(counted(streams), "tfidf")
        assert len(out.words) == n - 1  # df = N scores ln 1 = 0 and is dropped
        for row, word in enumerate(out.words):
            df = int(word[1:4])
            entries = out.data[out.indptr[row] : out.indptr[row + 1]]
            assert entries.tolist() == [math.log(n / df)] * df

    def test_normalized_columns_sum_to_one(self):
        rng = np.random.default_rng(41)
        docs, words = make_random_corpus(rng, max_docs=12, max_words=30)
        streams = [tokens for _, tokens, _ in docs if tokens]
        filtered = [[t for t in s if t in set(words)] for s in streams]
        filtered = [s for s in filtered if s]
        tdm = apply_weighting(counted(filtered), "normalized")
        sums = dense_reference.dense(tdm).sum(axis=0)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_nf_raw_length_mode(self):
        records = records_from([["a#n", "out#n", "b#n", "out#n"]])
        tdm = count_terms(records, {"a#n", "b#n"})
        out = apply_weighting(tdm, "normalized", nf_length="raw")
        dense = dense_reference.dense(out)
        assert dense[out.row_index["a#n"], 0] == 0.25
        columns = dense_reference.dense(out).sum(axis=0)
        assert columns[0] == pytest.approx(0.5)  # 2 of 4 raw tokens survived

    def test_nf_raw_length_columns_sum_to_survival_fraction(self):
        rng = np.random.default_rng(53)
        universe = [f"w{int(i)}#n" for i in range(10)] + ["out1#n", "out2#n"]
        vocab = set(universe[:10])
        streams, filtered = [], []
        for j in range(8):
            tokens = [universe[int(k)] for k in rng.integers(0, 12, size=int(rng.integers(2, 15)))]
            kept = [t for t in tokens if t in vocab]
            if not kept:
                continue
            streams.append(tokens)
            filtered.append(kept)
        tdm = count_terms(records_from(streams), vocab)
        out = apply_weighting(tdm, "normalized", nf_length="raw")
        sums = dense_reference.dense(out).sum(axis=0)
        for j, (tokens, kept) in enumerate(zip(streams, filtered)):
            assert sums[j] == pytest.approx(len(kept) / len(tokens), abs=1e-12)
            assert sums[j] <= 1.0 + 1e-12
            if len(kept) == len(tokens):
                assert sums[j] == pytest.approx(1.0, abs=1e-9)

    def test_no_new_entries_created(self):
        rng = np.random.default_rng(43)
        streams = [
            [f"w{int(k)}#n" for k in rng.integers(0, 10, size=int(rng.integers(1, 15)))]
            for _ in range(8)
        ]
        raw = counted(streams)
        raw_pattern = set(zip(*dense_reference.dense(raw).nonzero()))
        for scheme in ("raw", "normalized", "tfidf"):
            out = apply_weighting(raw, scheme)
            for wi, dj in zip(*dense_reference.dense(out).nonzero()):
                raw_wi = raw.row_index[out.words[wi]]
                assert (raw_wi, dj) in raw_pattern

    def test_requires_raw_input(self):
        tdm = counted([["a#n"]])
        weighted = apply_weighting(tdm, "normalized")
        with pytest.raises(MatrixError, match="expects raw counts"):
            apply_weighting(weighted, "tfidf")

    def test_unknown_scheme(self):
        tdm = counted([["a#n"]])
        with pytest.raises(MatrixError, match="unknown weighting scheme"):
            apply_weighting(tdm, "bm25")

    def test_tfidf_zero_iff_absent_or_ubiquitous(self):
        rng = np.random.default_rng(47)
        streams = [
            [f"w{int(k)}#n" for k in rng.integers(0, 7, size=int(rng.integers(1, 10)))]
            for _ in range(6)
        ]
        raw = counted(streams)
        out = apply_weighting(raw, "tfidf")
        raw_dense = dense_reference.dense(raw)
        out_words = set(out.words)
        for word in raw.words:
            wi = raw.row_index[word]
            df = int(raw.doc_freq[wi])
            if df == raw.n_docs:
                assert word not in out_words
                continue
            for dj in range(raw.n_docs):
                value = dense_reference.dense(out)[out.row_index[word], dj]
                assert (value == 0.0) == (raw_dense[wi, dj] == 0.0)


class TestMinDf:
    def test_filters_rare_terms(self):
        tdm = counted([["a#n", "b#n"], ["a#n"]])
        out = apply_weighting(tdm, "raw", min_df=2)
        assert out.words == ("a#n",)

    def test_error_when_everything_removed(self):
        tdm = counted([["a#n"]])
        with pytest.raises(MatrixError, match="removed every term"):
            apply_weighting(tdm, "raw", min_df=5)


class TestDump:
    def test_header_and_triples(self):
        tdm = apply_weighting(counted([["a#n", "a#n", "b#n"]]), "normalized")
        buf = io.StringIO()
        write_matrix_dump(tdm, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("# scheme=normalized\tn_docs=1\ttfidf_variant=")
        assert lines[1] == "a#n\td0\t0.666666667"
        assert lines[2] == "b#n\td0\t0.333333333"

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=12), min_size=1, max_size=8),
        st.sampled_from(["raw", "normalized", "tfidf"]),
        st.one_of(
            st.none(),
            st.lists(
                st.floats(min_value=5e-324, max_value=1e300, allow_subnormal=True),
                min_size=1,
                max_size=4,
            ),
        ),
        st.randoms(use_true_random=False),
        st.lists(NAMES.map(lambda lemma: lemma[:38] + "#n"), min_size=10, max_size=10, unique=True),
        st.lists(NAMES, min_size=8, max_size=8, unique=True),
    )
    @example(  # tf-idf over one document drops every row: the header alone
        [[0]],
        "tfidf",
        None,
        random.Random(0),
        [f"w{i}#n" for i in range(10)],
        [f"d{j}" for j in range(8)],
    )
    def test_bytes_match_per_entry_writer(self, ids, scheme, pool, rnd, words, doc_ids):
        """The same bytes as formatting each weight on its own, under every
        scheme, for arbitrary positive weights, few of them distinct, and for
        words and doc ids of 1 to 40 code points of 1 to 4 UTF-8 bytes each."""
        streams = [[words[i] for i in doc] + ["all#n"] for doc in ids]
        records = corpus_of(
            (doc_id, tokens, {"AFRAID": 1.0}) for doc_id, tokens in zip(doc_ids, streams)
        )
        tdm = apply_weighting(count_terms(records, records.strings), scheme)
        if pool is not None:
            weights = np.array([rnd.choice(pool) for _ in range(len(tdm.data))])
            tdm = dataclasses.replace(tdm, data=weights)
        got, want = io.StringIO(), io.StringIO()
        write_matrix_dump(tdm, got)
        dense_reference.write_matrix_dump_reference(tdm, want)
        assert got.getvalue() == want.getvalue()

    def test_bytes_match_per_entry_writer_across_blocks(self):
        """Rows longer than a block: blocks end inside rows, each on a line."""
        # A line holds at least 9 bytes, so each row of 8,192 lines holds
        # more than DUMP_BLOCK_BYTES.
        n_docs = DUMP_BLOCK_BYTES // 8
        tdm = counted([["a#n", "bé#v", "文😀#n"]] * n_docs)
        rng = np.random.default_rng(7)
        tdm = dataclasses.replace(tdm, data=rng.choice([0.5, 1 / 3, 2.0, 1e-300], tdm.data.size))
        got, want = WriteLog(), io.StringIO()
        write_matrix_dump(tdm, got)
        dense_reference.write_matrix_dump_reference(tdm, want)
        assert "".join(got.writes) == want.getvalue()
        blocks = got.writes[1:]
        assert len(blocks) > 3
        assert all(len(block.encode()) <= DUMP_BLOCK_BYTES for block in blocks)
        assert all(block.endswith("\n") for block in blocks)

    def test_long_names_cost_only_their_bytes(self):
        """A doc id of 80,000 bytes, longer than a block, and a key of 10,002
        bytes among 2,000 documents: the same bytes, in blocks of at most
        DUMP_BLOCK_BYTES or one line, no table padded to the longest name
        (that would take 2,000 x 80,001 bytes at least), and blocks that grow
        back after the long line instead of holding one line each."""
        long_id, long_key = "é" * 40_000, "k" * 10_000 + "#n"
        records = corpus_of(
            (long_id if j == 0 else f"d{j}", ["a#n", long_key] if j == 1 else ["a#n"], [1.0])
            for j in range(2_000)
        )
        tdm = apply_weighting(count_terms(records, records.strings), "normalized")
        got, want = WriteLog(), io.StringIO()
        tracemalloc.start()
        try:
            write_matrix_dump(tdm, got)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dense_reference.write_matrix_dump_reference(tdm, want)
        assert "".join(got.writes) == want.getvalue()
        assert all(
            len(block.encode()) <= DUMP_BLOCK_BYTES or block.count("\n") == 1
            for block in got.writes[1:]
        )
        assert peak < 4 << 20
        assert len(got.writes) < 100


class WriteLog:
    """A text sink that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
