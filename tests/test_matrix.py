"""Counting, the three weighting schemes, the product with the votes, and the dump."""

from __future__ import annotations

import dataclasses
import importlib.util
import io
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moodlex import (
    EmotionSet,
    LemmaTable,
    MatrixError,
    VocabularyFilter,
    build_lexicon,
    emotion_mass,
    load_corpus,
    write_lexicon,
    write_matrix_dump,
)
from moodlex import matrix
from moodlex.corpus import Corpus
from moodlex.matrix import DUMP_BLOCK_BYTES, TFIDF_VARIANT, TermDocumentMatrix

import dense_reference
from corpora import corpus_of
from dense_reference import dense_count, make_random_corpus, normalized_frequency, tfidf_weight


#: Words and doc ids of 1 to 40 code points, of 1 to 4 UTF-8 bytes each.
NAMES = st.text(alphabet="aé文😀", min_size=1, max_size=40)


def records_from(token_streams):
    return corpus_of((f"d{i}", tokens, {"AFRAID": 1.0}) for i, tokens in enumerate(token_streams))


def matrix_of(records, vocab, scheme, **options):
    """The weighted matrix that :func:`emotion_mass` keeps for the dump."""
    return emotion_mass(records, vocab, scheme, keep_matrix=True, **options)[3]


def counted(token_streams, scheme="raw", **options):
    """The matrix of every token of ``token_streams``, raw counts by default."""
    records = records_from(token_streams)
    return matrix_of(records, records.strings, scheme, **options)


def doc_freq(tdm):
    return np.diff(tdm.indptr)


class TestCountTerms:
    def test_simple_counts(self):
        tdm = counted([["kill#v", "kill#v", "war#n"]])
        dense = dense_reference.dense(tdm)
        assert tdm.words == ("kill#v", "war#n")
        assert dense[tdm.words.index("kill#v"), 0] == 2
        assert dense[tdm.words.index("war#n"), 0] == 1
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
        streams = [["a#n", "b#n"], ["a#n", "a#n", "c#n"]]
        tdm = counted(streams, "normalized")
        np.testing.assert_array_equal(doc_freq(tdm), [2, 1, 1])
        # Each count is divided by its document's length, 2 and 3.
        np.testing.assert_array_equal(
            dense_reference.dense(tdm), [[1 / 2, 2 / 3], [1 / 2, 0], [0, 1 / 3]]
        )

    def test_empty_documents_skipped(self, caplog):
        records = records_from([["a#n"], [], ["b#n"]])
        words, mass, n_docs, tdm = emotion_mass(records, records.strings, "raw", keep_matrix=True)
        assert tdm.doc_ids == ("d0", "d2") and n_docs == 2
        assert "1 document(s) had no tokens after vocabulary filtering" in caplog.text

    def test_all_empty_is_error(self):
        with pytest.raises(MatrixError, match="no non-empty"):
            counted([[], []])

    def test_duplicate_document_ids_are_an_error(self):
        # parse_corpus rejects a repeated id, so only a hand-made Corpus has one.
        records = dataclasses.replace(records_from([["a#n"], ["b#n"]]), doc_ids=("d1", "d1"))
        with pytest.raises(MatrixError, match="^duplicate document ids in corpus$"):
            emotion_mass(records, records.strings, "raw")

    def test_vocabulary_filter_and_raw_lengths(self):
        streams = [["a#n", "x#n"], ["x#n", "x#n"], ["b#n", "a#n", "y#v"]]
        votes = [[0.5, 0.5], [1.0, 0.0], [0.25, 0.75]]
        records = corpus_of(
            ((f"d{i}", tokens, v) for i, (tokens, v) in enumerate(zip(streams, votes))),
            EmotionSet(["E1", "E2"]),
        )
        vocab = {"a#n", "b#n"}
        filtered = matrix_of(records, vocab, "normalized")
        raw = matrix_of(records, vocab, "normalized", nf_length="raw")
        assert filtered.words == raw.words == ("a#n", "b#n")
        assert filtered.doc_ids == raw.doc_ids == ("d0", "d2")
        # Filtered lengths 1 and 2; pre-filter lengths 2 and 3.
        np.testing.assert_array_equal(dense_reference.dense(filtered), [[1, 1 / 2], [0, 1 / 2]])
        np.testing.assert_array_equal(dense_reference.dense(raw), [[1 / 2, 1 / 3], [0, 1 / 3]])
        # The mass takes the votes of the kept documents d0 and d2.
        words, mass, n_docs, _ = emotion_mass(records, vocab, "raw")
        np.testing.assert_array_equal(mass, [[0.75, 1.25], [0.25, 0.75]])


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """``bench/gen.py``'s token and raw-text corpora of 24 documents, each
    with its vocabulary; the raw-text one lemmatized once, here."""
    gen_py = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", gen_py)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    corpora = {}
    for kind in ("tokens", "text"):
        root = tmp_path_factory.mktemp(kind)
        gen.generate_build(str(root), 3, docs=24, text=kind == "text", min_df=1, tfidf=False)
        vocab = VocabularyFilter.from_file(root / "vocab.txt")
        table = LemmaTable.from_file(root / "lemmas.tsv") if kind == "text" else None
        corpus = load_corpus(root / "corpus.jsonl", EmotionSet.default())
        corpora[kind] = corpus.lemmatized(table, vocab, "all"), vocab
    return corpora


@pytest.mark.parametrize("kind", ["tokens", "text"])
def test_chunk_bound_changes_no_byte(generated, monkeypatch, kind):
    """Chunks of one document, of 997 tokens (about two documents) and of
    the whole corpus give the same lexicon and dump bytes, and the same
    score bits before rounding, under every scheme, min-df and nf length:
    each chunk continues every word's sum."""
    corpus, vocab = generated[kind]
    outputs = {}
    for bound in (1, 997, 1 << 15, 1 << 18, 1 << 30):
        monkeypatch.setattr(matrix, "CHUNK_TOKENS", bound)
        for scheme, min_df, nf_length in itertools.product(
            matrix.SCHEMES, (1, 2), matrix.NF_LENGTH_MODES
        ):
            lexicon, dump = io.StringIO(), io.StringIO()
            lex = build_lexicon(
                corpus, vocab, scheme, min_df=min_df, nf_length=nf_length, matrix_dump_sink=dump
            )
            write_lexicon(lex, lexicon)
            outputs.setdefault((scheme, min_df, nf_length), set()).add(
                (lexicon.getvalue(), dump.getvalue(), lex.scores.tobytes())
            )
    assert len(outputs) == 12
    assert all(len(kept) == 1 for kept in outputs.values())


def test_int64_keys_give_the_int32_keys_bits(monkeypatch):
    """A chunk of 2**18 one-token documents over 2**13 + 1 words has keys up
    to 2**31 + 2**18 - 1, so it sorts int64 keys; chunks of 2**12 documents
    sort int32 ones. Both give the same mass, bit for bit."""
    n_words, n_docs = (1 << 13) + 1, 1 << 18
    rng = np.random.default_rng(5)
    strings = tuple(f"w{i}#n" for i in range(n_words))
    corpus = Corpus(
        doc_ids=tuple(map(str, range(n_docs))),
        votes=rng.dirichlet(np.ones(2), n_docs),
        emotions=("A", "B"),
        token_ids=rng.permutation(np.arange(n_docs, dtype=np.int32) % n_words),
        lengths=np.ones(n_docs, dtype=np.int64),
        strings=strings,
    )
    masses = []
    for bound in (1 << 18, 1 << 12):
        monkeypatch.setattr(matrix, "CHUNK_TOKENS", bound)
        words, mass, _, _ = emotion_mass(corpus, frozenset(strings), "normalized")
        masses.append(mass.tobytes())
    assert len(words) == n_words
    assert masses[0] == masses[1]


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
        out = counted([["a#n", "b#n", "a#n"]], "raw")
        assert out.scheme == "raw"
        np.testing.assert_array_equal(dense_reference.dense(out), [[2], [1]])

    def test_tfidf_drops_ubiquitous_term(self, caplog):
        caplog.set_level("INFO", logger="moodlex.matrix")
        out = counted([["a#n", "b#n"], ["a#n"]], "tfidf")
        assert "a#n" not in out.words  # df = N, ln 1 = 0, row dropped
        assert "b#n" in out.words
        assert caplog.messages == [
            "tf-idf zeroed 1 ubiquitous term(s) (df = N); dropped from the matrix"
        ]

    @pytest.mark.parametrize(
        "streams",
        [[["a#n", "b#n"]], [["a#n", "b#n"], ["b#n", "a#n", "a#n"]]],
        ids=["one-document", "shared-terms"],
    )
    def test_tfidf_removing_every_term_is_an_error(self, streams):
        with pytest.raises(MatrixError, match="^tf-idf removed every term"):
            counted(streams, "tfidf")

    def test_normalized_matches_dense_entrywise_oracle(self):
        rng = np.random.default_rng(31)
        streams = [
            [f"w{int(k)}#n" for k in rng.integers(0, 8, size=int(rng.integers(1, 12)))]
            for _ in range(6)
        ]
        tdm = counted(streams, "normalized")
        words, counts = dense_count(streams)
        dense = dense_reference.dense(tdm)
        for wi, word in enumerate(words):
            for dj, stream in enumerate(streams):
                expected = counts[wi][dj] / len(stream)
                assert dense[tdm.words.index(word), dj] == pytest.approx(expected, abs=1e-15)

    def test_tfidf_matches_scalar_formula(self):
        rng = np.random.default_rng(37)
        streams = [
            [f"w{int(k)}#n" for k in rng.integers(0, 6, size=int(rng.integers(1, 9)))]
            for _ in range(5)
        ]
        raw = counted(streams)
        out = counted(streams, "tfidf")
        raw_dense = dense_reference.dense(raw)
        out_dense = dense_reference.dense(out)
        for word in out.words:
            wi_raw = raw.words.index(word)
            df = int(doc_freq(raw)[wi_raw])
            for dj in range(len(streams)):
                expected = tfidf_weight(raw_dense[wi_raw, dj], df, raw.n_docs)
                assert out_dense[out.words.index(word), dj] == pytest.approx(expected, abs=1e-15)

    def test_tfidf_idf_is_math_log_bit_for_bit(self):
        """Every df from 1 to N = 300 gets exactly math.log(N / df); numpy's
        vectorized log differs from it in the last bit at some of these."""
        n = 300
        # Word k occurs once in each of the first k documents: df = k.
        streams = [[f"w{k:03d}#n" for k in range(j + 1, n + 1)] for j in range(n)]
        out = counted(streams, "tfidf")
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
        tdm = counted(filtered, "normalized")
        sums = dense_reference.dense(tdm).sum(axis=0)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_nf_raw_length_mode(self):
        records = records_from([["a#n", "out#n", "b#n", "out#n"]])
        out = matrix_of(records, {"a#n", "b#n"}, "normalized", nf_length="raw")
        dense = dense_reference.dense(out)
        assert dense[out.words.index("a#n"), 0] == 0.25
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
        out = matrix_of(records_from(streams), vocab, "normalized", nf_length="raw")
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
            out = counted(streams, scheme)
            for wi, dj in zip(*dense_reference.dense(out).nonzero()):
                raw_wi = raw.words.index(out.words[wi])
                assert (raw_wi, dj) in raw_pattern

    def test_unknown_scheme_and_nf_length(self):
        with pytest.raises(MatrixError, match="unknown weighting scheme"):
            counted([["a#n"]], "bm25")
        with pytest.raises(MatrixError, match="unknown nf length mode"):
            counted([["a#n"]], "normalized", nf_length="both")

    def test_tfidf_zero_iff_absent_or_ubiquitous(self):
        rng = np.random.default_rng(47)
        streams = [
            [f"w{int(k)}#n" for k in rng.integers(0, 7, size=int(rng.integers(1, 10)))]
            for _ in range(6)
        ]
        raw = counted(streams)
        out = counted(streams, "tfidf")
        raw_dense = dense_reference.dense(raw)
        out_words = set(out.words)
        for word in raw.words:
            wi = raw.words.index(word)
            df = int(doc_freq(raw)[wi])
            if df == raw.n_docs:
                assert word not in out_words
                continue
            for dj in range(raw.n_docs):
                value = dense_reference.dense(out)[out.words.index(word), dj]
                assert (value == 0.0) == (raw_dense[wi, dj] == 0.0)


class TestMinDf:
    def test_filters_rare_terms(self, caplog):
        caplog.set_level("INFO", logger="moodlex.matrix")
        out = counted([["a#n", "b#n"], ["a#n"]], "raw", min_df=2)
        assert out.words == ("a#n",)
        assert caplog.messages == ["min-df 2 dropped 1 term(s)"]

    def test_both_drops_are_logged_and_leave_the_rest(self, caplog):
        caplog.set_level("INFO", logger="moodlex.matrix")
        streams = [["a#n", "b#n", "c#n"], ["a#n", "b#n"], ["a#n"]]
        out = counted(streams, "tfidf", min_df=2)
        assert out.words == ("b#n",)
        assert caplog.messages == [
            "min-df 2 dropped 1 term(s)",
            "tf-idf zeroed 1 ubiquitous term(s) (df = N); dropped from the matrix",
        ]

    def test_error_when_everything_removed(self):
        with pytest.raises(MatrixError, match="^min-df 5 removed every term$"):
            counted([["a#n"]], "raw", min_df=5)
        with pytest.raises(MatrixError, match="^min-df must be at least 1, got 0$"):
            counted([["a#n"]], "raw", min_df=0)


class TestDump:
    def test_header_and_triples(self):
        tdm = counted([["a#n", "a#n", "b#n"]], "normalized")
        buf = io.StringIO()
        write_matrix_dump(tdm, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("# scheme=normalized\tn_docs=1\ttfidf_variant=")
        assert lines[1] == "a#n\td0\t0.666666667"
        assert lines[2] == "b#n\td0\t0.333333333"

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=12), min_size=1, max_size=7),
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
    def test_bytes_match_per_entry_writer(self, ids, scheme, pool, rnd, words, doc_ids):
        """The same bytes as formatting each weight on its own, under every
        scheme, for arbitrary positive weights, few of them distinct, and for
        words and doc ids of 1 to 40 code points of 1 to 4 UTF-8 bytes each.
        The last document keeps tf-idf from dropping every word."""
        streams = [[words[i] for i in doc] + ["all#n"] for doc in ids] + [["one#n"]]
        records = corpus_of(
            (doc_id, tokens, {"AFRAID": 1.0}) for doc_id, tokens in zip(doc_ids, streams)
        )
        tdm = matrix_of(records, records.strings, scheme)
        if pool is not None:
            weights = np.array([rnd.choice(pool) for _ in range(len(tdm.data))])
            tdm = dataclasses.replace(tdm, data=weights)
        got, want = io.StringIO(), io.StringIO()
        write_matrix_dump(tdm, got)
        dense_reference.write_matrix_dump_reference(tdm, want)
        assert got.getvalue() == want.getvalue()

    def test_empty_matrix_writes_the_header_alone(self):
        tdm = TermDocumentMatrix((), ("d0",), np.zeros(1, int), np.zeros(0, np.int32), np.zeros(0), "tfidf")
        got = io.StringIO()
        write_matrix_dump(tdm, got)
        assert got.getvalue() == f"# scheme=tfidf\tn_docs=1\ttfidf_variant={TFIDF_VARIANT}\n"

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
        tdm = matrix_of(records, records.strings, "normalized")
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
