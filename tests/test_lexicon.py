"""Emotion mass, two-stage normalization, lexicon build and serialization."""

from __future__ import annotations

import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moodlex import (
    EmotionSet,
    LemmaTable,
    LexiconError,
    MoodlexError,
    TextPipeError,
    VocabularyFilter,
    build_lexicon,
    column_normalize,
    emotion_mass,
    load_corpus,
    read_lexicon,
    row_scale,
    tokenize,
    validate_votes,
    write_lexicon,
)
from moodlex.lexicon import EmotionLexicon

import dense_reference
from corpora import SMALL_DOCS, corpus_of
from dense_reference import dense_build, dense_product, read_lexicon_lines_reference

GOLDEN = Path(__file__).parent / "data" / "golden_lexicon.tsv"


def doc(emotions, doc_id, tokens, votes):
    return doc_id, tokens, votes


def product(corpus):
    """The raw mass of every token of ``corpus``, and its matrix."""
    _, mass, _, tdm = emotion_mass(corpus, corpus.strings, "raw", keep_matrix=True)
    return mass, tdm


class TestEmotionProduct:
    def test_identity_multiplication(self):
        emotions = EmotionSet(["E1", "E2"])
        records = [
            doc(emotions, "d0", ["wa#n"], {"E1": 1.0}),
            doc(emotions, "d1", ["wb#n", "wb#n"], {"E2": 1.0}),
        ]
        corpus = corpus_of(records, emotions)
        out, _ = product(corpus)
        np.testing.assert_allclose(out, [[1.0, 0.0], [0.0, 2.0]], atol=1e-15)

    def test_one_hot_votes_concentrate_one_column(self):
        emotions = EmotionSet(["E1", "E2", "E3"])
        records = [
            doc(emotions, "d0", ["a#n", "b#n"], {"E2": 1.0}),
            doc(emotions, "d1", ["a#n"], {"E2": 1.0}),
        ]
        corpus = corpus_of(records, emotions)
        out, _ = product(corpus)
        assert np.all(out[:, [0, 2]] == 0)
        assert np.all(out[:, 1] > 0)

    def test_random_instance_matches_triple_loop(self):
        rng = np.random.default_rng(53)
        emotions = EmotionSet(["A", "B", "C"])
        words = [f"w{i}#n" for i in range(5)]
        streams = []
        for j in range(4):
            idx = rng.integers(0, 5, size=int(rng.integers(1, 9)))
            streams.append([words[int(k)] for k in idx])
        votes = rng.random((4, 3)) + 0.01
        votes = votes / votes.sum(axis=1, keepdims=True)
        records = [
            doc(emotions, f"d{j}", streams[j], dict(zip(emotions.labels, votes[j])))
            for j in range(4)
        ]
        corpus = corpus_of(records, emotions)
        out, wd = product(corpus)
        dense_weights = dense_reference.dense(wd)
        expected = dense_product(dense_weights.tolist(), votes.tolist())
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestColumnNormalize:
    def test_divides_by_column_sum(self):
        out = column_normalize(np.array([[1.0], [3.0]]), ["E"])
        np.testing.assert_allclose(out, [[0.25], [0.75]], atol=1e-15)

    def test_already_normalized_unchanged(self):
        col = np.array([[0.2], [0.8]])
        np.testing.assert_allclose(column_normalize(col, ["E"]), col, atol=1e-12)

    def test_random_matrix_matches_per_column_oracle(self):
        rng = np.random.default_rng(59)
        mat = rng.random((6, 8)) + 0.01
        out = column_normalize(mat, [f"E{i}" for i in range(8)])
        for e in range(8):
            total = 0.0
            for wi in range(6):
                total += mat[wi, e]
            for wi in range(6):
                assert out[wi, e] == pytest.approx(mat[wi, e] / total, abs=1e-12)

    def test_zero_column_names_emotion(self):
        mat = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(LexiconError, match="HAPPY"):
            column_normalize(mat, ["SAD", "HAPPY"])

    def test_max_mode(self):
        mat = np.array([[1.0], [4.0]])
        out = column_normalize(mat, ["E"], mode="max")
        np.testing.assert_allclose(out, [[0.25], [1.0]], atol=1e-15)


class TestRowScale:
    def test_scales_to_unit_sum(self):
        words, scaled, dropped = row_scale(np.array([[2.0, 2.0, 6.0]]), ["w#n"])
        np.testing.assert_allclose(scaled, [[0.2, 0.2, 0.6]], atol=1e-15)
        assert words == ("w#n",) and dropped == 0

    def test_published_row_already_unit_sum(self):
        # awe#n row of the published word-by-emotion excerpt sums to one.
        row = np.array([[0.08, 0.12, 0.04, 0.11, 0.07, 0.15, 0.38, 0.05]])
        words, scaled, dropped = row_scale(row, ["awe#n"])
        np.testing.assert_allclose(scaled, row, atol=1e-12)
        assert dropped == 0

    def test_random_rows_match_per_row_oracle(self):
        rng = np.random.default_rng(61)
        mat = rng.random((10, 8))
        words = [f"w{i}#n" for i in range(10)]
        kept, scaled, dropped = row_scale(mat, words)
        assert dropped == 0
        for wi in range(10):
            total = 0.0
            for e in range(8):
                total += mat[wi, e]
            for e in range(8):
                assert scaled[wi, e] == pytest.approx(mat[wi, e] / total, abs=1e-12)

    def test_zero_rows_dropped_and_counted(self):
        mat = np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 0.0]])
        words, scaled, dropped = row_scale(mat, ["a#n", "b#n", "c#n"])
        assert words == ("a#n", "c#n")
        assert dropped == 1
        np.testing.assert_allclose(scaled.sum(axis=1), 1.0, atol=1e-12)


def planted_corpus(emotions):
    """word planted#n occurs only in documents voted 100% AFRAID."""
    return corpus_of([
        doc(emotions, "d0", ["planted#n", "filler#v"], {"AFRAID": 1.0}),
        doc(emotions, "d1", ["planted#n", "planted#n"], {"AFRAID": 1.0}),
        doc(
            emotions,
            "d2",
            ["filler#v", "other#n"],
            {"AMUSED": 0.2, "ANGRY": 0.2, "ANNOYED": 0.2, "DONT_CARE": 0.2, "HAPPY": 0.2},
        ),
        doc(
            emotions,
            "d3",
            ["other#n", "third#a", "third#a"],
            {"INSPIRED": 0.5, "SAD": 0.3, "HAPPY": 0.2},
        ),
        doc(emotions, "d4", ["third#a", "filler#v"], {"SAD": 0.6, "AFRAID": 0.4}),
    ], emotions)


PLANTED_VOCAB = ["planted#n", "filler#v", "other#n", "third#a"]


class TestBuildLexicon:
    @pytest.mark.parametrize("scheme", ["raw", "normalized", "tfidf"])
    def test_planted_word_is_one_hot(self, emotions, scheme):
        lex = build_lexicon(planted_corpus(emotions), VocabularyFilter(PLANTED_VOCAB), scheme)
        row = lex.row("planted#n")
        afraid = emotions.index("AFRAID")
        assert row[afraid] == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.delete(row, afraid) <= 1e-9)

    @pytest.mark.parametrize("scheme", ["raw", "normalized", "tfidf"])
    def test_matches_dense_reference(self, emotions, scheme):
        rng = np.random.default_rng(67)
        words = [f"w{i:02d}#n" for i in range(12)]
        triples = []
        for j in range(8):
            idx = rng.integers(0, 12, size=int(rng.integers(1, 7)))
            tokens = [words[int(k)] for k in idx]
            votes = rng.random(8) + 0.05
            votes = votes / votes.sum()
            triples.append((f"d{j}", tokens, votes))
        vocab = VocabularyFilter(words)
        lex = build_lexicon(corpus_of(triples, emotions), vocab, scheme)
        expected = dense_build(triples, set(words), scheme)
        assert set(lex.words) == set(expected)
        for word, row in expected.items():
            np.testing.assert_allclose(lex.row(word), row, atol=1e-9)

    def test_row_stochastic(self, emotions, small_corpus, small_vocab):
        for scheme in ("raw", "normalized", "tfidf"):
            lex = build_lexicon(small_corpus, small_vocab, scheme)
            sums = lex.scores.sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-9)
            assert np.all(lex.scores >= 0) and np.all(lex.scores <= 1)

    def test_column_scale_invariance_literal(self):
        rng = np.random.default_rng(71)
        raw_we = rng.random((10, 8)) + 0.01
        emotions = [f"E{i}" for i in range(8)]
        words = [f"w{i}#n" for i in range(10)]
        base_words, base_rows, _ = row_scale(column_normalize(raw_we, emotions), words)
        for c in (0.1, 3.0, 100.0):
            for e in (0, 5):
                scaled = raw_we.copy()
                scaled[:, e] = scaled[:, e] * c
                got_words, got_rows, _ = row_scale(
                    column_normalize(scaled, emotions), words
                )
                assert got_words == base_words
                assert np.max(np.abs(got_rows - base_rows)) < 1e-12

    def test_document_order_invariance(self, emotions, small_corpus, small_vocab):
        lex = build_lexicon(small_corpus, small_vocab, "normalized")
        permuted = corpus_of([SMALL_DOCS[i] for i in (3, 0, 4, 2, 1)], emotions)
        lex_perm = build_lexicon(permuted, small_vocab, "normalized")
        assert lex.words == lex_perm.words
        assert np.max(np.abs(lex.scores - lex_perm.scores)) <= 1e-12

    def test_text_mode_corpus(self, emotions):
        spread = {label: 0.1 for label in emotions.labels}
        records = corpus_of(
            [
                ("t0", "Killers kill; the war!", spread | {"AFRAID": 0.3}),
                ("t1", "A happy game", spread | {"HAPPY": 0.3}),
            ],
            emotions,
        )
        vocab = VocabularyFilter(["kill#v", "war#n", "happy#a", "game#n"])
        lex = build_lexicon(records, vocab, "normalized")
        # "Killers"/"the" pass through as nouns and fall to the filter; the
        # rest resolve to the vocabulary entries.
        assert set(lex.words) == {"kill#v", "war#n", "happy#a", "game#n"}
        afraid = emotions.index("AFRAID")
        happy = emotions.index("HAPPY")
        assert lex.row("kill#v")[afraid] > lex.row("game#n")[afraid]
        assert lex.row("game#n")[happy] > lex.row("kill#v")[happy]

    @pytest.mark.parametrize("scheme", ["raw", "normalized", "tfidf"])
    @pytest.mark.parametrize("ambiguity", ["all", "first"])
    def test_text_corpus_with_shared_surfaces_matches_dense_reference(
        self, emotions, scheme, ambiguity
    ):
        # Every document draws from one small surface pool, so surface forms
        # repeat within and across documents; the oracle expands each
        # occurrence independently with the unmemoized candidate function.
        table = LemmaTable(
            entries=[("men", "n", "man"), ("ran", "v", "run")],
            rules=[("v", "ed", ""), ("n", "s", "")],
        )
        vocab_words = ["man#n", "run#v", "run#n", "walk#v", "war#n", "war#v", "sad#a", "kill#v"]
        vocab = VocabularyFilter(vocab_words)
        pool = ["Men", "ran", "runs", "walked", "wars", "war", "sad", "kill", "the", "xyzzy"]
        rng = np.random.default_rng(79)
        records = []
        triples = []
        for j in range(10):
            picks = rng.integers(0, len(pool), size=int(rng.integers(1, 9)))
            text = " ".join(pool[int(k)] for k in picks) + "!"
            votes = rng.random(8) + 0.05
            votes = votes / votes.sum()
            records.append((f"t{j}", text, votes))
            candidates = [
                c
                for surface in tokenize(text)
                for c in dense_reference.candidates_reference(surface, table, vocab, ambiguity)
            ]
            triples.append((f"t{j}", candidates, votes))
        lex = build_lexicon(
            corpus_of(records, emotions), vocab, scheme,
            lemma_table=table, ambiguity=ambiguity, nf_length="raw",
        )
        expected = dense_build(triples, set(vocab_words), scheme, nf_length="raw")
        assert set(lex.words) == set(expected)
        for word, row in expected.items():
            np.testing.assert_allclose(lex.row(word), row, atol=1e-9)

    def test_columns_follow_the_corpus_emotions(self):
        """A corpus parsed with its own label order labels the lexicon with it."""
        emotions = EmotionSet(reversed(EmotionSet.default().labels))
        others = {label: 1 / 7 for label in emotions.labels if label != "SAD"}
        corpus = corpus_of(
            [("d0", ["sad#a"], {"SAD": 1.0}), ("d1", ["other#n"], others)], emotions
        )
        lex = build_lexicon(corpus, VocabularyFilter(["sad#a", "other#n"]), "raw")
        assert lex.emotions == corpus.emotions
        assert lex.row("sad#a")[lex.emotions.index("SAD")] == 1.0

    def test_empty_lexicon_is_error(self, emotions):
        records = corpus_of([doc(emotions, "d0", ["a#n"], {"AFRAID": 1.0})], emotions)
        with pytest.raises(Exception, match="no non-empty documents"):
            build_lexicon(records, VocabularyFilter(["zzz#n"]), "raw")

    def test_unknown_ambiguity_rejected_for_token_corpus(self, small_corpus, small_vocab):
        with pytest.raises(TextPipeError, match="ambiguity policy 'best'"):
            build_lexicon(small_corpus, small_vocab, "raw", ambiguity="best")

    def test_provenance_records_flags(self, emotions, small_corpus, small_vocab):
        lex = build_lexicon(small_corpus, small_vocab, "tfidf", min_df=2, col_norm="max")
        meta = dict(lex.provenance)
        assert meta["scheme"] == "tfidf"
        assert meta["min-df"] == "2"
        assert meta["col-norm"] == "max"
        assert meta["entries"] == str(len(lex))


class TestEmotionLexicon:
    def test_needs_emotions_and_rows(self):
        with pytest.raises(LexiconError, match="at least one emotion"):
            EmotionLexicon([], ["w#n"], [[]])
        with pytest.raises(LexiconError, match="empty lexicon"):
            EmotionLexicon(["A"], [], np.zeros((0, 1)))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (2,), (1, 2, 2)])
    def test_shape_must_match_words_and_emotions(self, shape):
        with pytest.raises(LexiconError, match=r"expected \(2, 2\)"):
            EmotionLexicon(["A", "B"], ["u#n", "w#n"], np.full(shape, 0.5))

    def test_ragged_rows_are_a_lexicon_error(self):
        with pytest.raises(LexiconError, match="not an array of numbers"):
            EmotionLexicon(["A", "B"], ["u#n", "w#n"], [[0.5, 0.5], [1.0]])

    @pytest.mark.parametrize(
        "words", [["w#n", "u#n", "w#n"], ["u#n", "u#n", "w#n"], ["u#n", "w#n", "w#n"]]
    )
    def test_duplicate_words(self, words):
        with pytest.raises(LexiconError, match="duplicate words"):
            EmotionLexicon(["A"], words, [[1.0], [1.0], [1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.25])
    def test_scores_finite_and_non_negative(self, bad):
        with pytest.raises(LexiconError, match="finite and non-negative"):
            EmotionLexicon(["A", "B"], ["u#n", "w#n"], [[0.5, 0.5], [1.25, bad]])

    @pytest.mark.parametrize("order", [(2, 0, 1), (0, 2, 1), (1, 0, 2), (0, 1, 2)])
    def test_words_come_out_sorted_with_their_rows(self, order):
        words = ("apple#n", "mango#n", "zebra#n")
        rows = [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]
        scores = np.array([rows[i] for i in order])
        lex = EmotionLexicon(["A", "B"], [words[i] for i in order], scores)
        scores[:] = 7.0
        assert lex.words == words
        np.testing.assert_array_equal(lex.scores, rows)
        np.testing.assert_array_equal(lex.row("zebra#n"), [1.0, 0.0])

    @pytest.mark.parametrize("words", [["u#n", "w#n"], ["w#n", "u#n"]])
    def test_owns_a_copy_of_the_scores(self, words):
        scores = np.array([[1.0, 0.0], [0.0, 1.0]])
        lex = EmotionLexicon(["A", "B"], words, scores)
        before = lex.scores.copy()
        scores[:] = 7.0
        np.testing.assert_array_equal(lex.scores, before)


class TestSerialization:
    def test_published_row_roundtrips_at_serialized_precision(self, emotions):
        # comical#a row of the published word-by-emotion excerpt.
        row = [0.02, 0.51, 0.04, 0.05, 0.12, 0.17, 0.03, 0.06]
        lex = EmotionLexicon(emotions.labels, ["comical#a"], [row])
        buf = io.StringIO()
        write_lexicon(lex, buf)
        again = read_lexicon(io.StringIO(buf.getvalue()))
        np.testing.assert_array_equal(again.row("comical#a"), row)

    def test_golden_file_reserializes_byte_identically(self):
        original = GOLDEN.read_bytes().decode("utf-8")
        lex = read_lexicon(GOLDEN)
        buf = io.StringIO()
        write_lexicon(lex, buf)
        assert buf.getvalue() == original

    def test_golden_rows_match_published_values(self):
        lex = read_lexicon(GOLDEN)
        np.testing.assert_array_equal(
            lex.row("awe#n"), [0.08, 0.12, 0.04, 0.11, 0.07, 0.15, 0.38, 0.05]
        )
        np.testing.assert_array_equal(
            lex.row("comical#a"), [0.02, 0.51, 0.04, 0.05, 0.12, 0.17, 0.03, 0.06]
        )
        np.testing.assert_array_equal(
            lex.row("kill#v"), [0.23, 0.06, 0.21, 0.07, 0.05, 0.06, 0.05, 0.27]
        )

    def test_missing_path_is_error(self, tmp_path):
        with pytest.raises(LexiconError, match="cannot read"):
            read_lexicon(tmp_path / "absent.tsv")

    def test_random_rows_roundtrip(self, emotions):
        rng = np.random.default_rng(73)
        rows = {}
        for i in range(100):
            vec = rng.dirichlet(np.ones(8))
            rows[f"w{i:03d}#{'nvar'[i % 4]}"] = vec
        lex = EmotionLexicon(emotions.labels, list(rows), list(rows.values()))
        buf = io.StringIO()
        write_lexicon(lex, buf)
        again = read_lexicon(io.StringIO(buf.getvalue()))
        assert again.words == lex.words
        np.testing.assert_allclose(again.scores, lex.scores, atol=1e-9)

    def test_rows_written_in_lexicographic_order(self, emotions):
        rows = {
            "zebra#n": np.full(8, 0.125),
            "apple#n": np.full(8, 0.125),
            "mango#n": np.full(8, 0.125),
        }
        buf = io.StringIO()
        write_lexicon(EmotionLexicon(emotions.labels, list(rows), list(rows.values())), buf)
        words = [line.split("\t")[0] for line in buf.getvalue().splitlines()[1:]]
        assert words == ["apple#n", "mango#n", "zebra#n"]

    def test_provenance_preserved_by_roundtrip(self, emotions):
        lex = EmotionLexicon(
            emotions.labels,
            ["w#n"],
            [np.full(8, 0.125)],
            provenance=[("scheme", "raw"), ("note", "a: b: c")],
        )
        buf = io.StringIO()
        write_lexicon(lex, buf)
        again = read_lexicon(io.StringIO(buf.getvalue()))
        assert again.provenance == [("scheme", "raw"), ("note", "a: b: c")]

    @pytest.mark.parametrize(
        "content, match",
        [
            ("AFRAID\tSAD\n", "expected header"),
            ("Lemma#PoS\tAFRAID\nw#n\tnope\n", ":2: non-numeric"),
            ("Lemma#PoS\tAFRAID\tSAD\nw#n\t0.9\t0.2\n", ":2: row sum"),
            ("Lemma#PoS\tAFRAID\tSAD\nw#n\t0.5\n", ":2: expected 3 tab-separated fields, got 2"),
            ("Lemma#PoS\tAFRAID\nw#n\t1\nw#n\t1\n", ":3: duplicate row"),
            ("Lemma#PoS\tAFRAID\nW#n\t1\n", ":2: bad word key"),
            ("Lemma#PoS\tAFRAID\tAFRAID\nw#n\t0.5\t0.5\n", "duplicate emotion"),
            ("# only: metadata\n", "missing lexicon header"),
            ("Lemma#PoS\tAFRAID\n", "no rows"),
        ],
    )
    def test_malformed_files_error_with_line_numbers(self, content, match):
        with pytest.raises(LexiconError, match=match):
            read_lexicon(io.StringIO(content))


#: Defects injected into lexicon rows; each turns a fields list into a bad one.
DEFECTS = {
    "columns": lambda fields, other: fields[:-1] if len(fields) > 2 else fields + ["0"],
    "key": lambda fields, other: ["W#n", *fields[1:]],
    "duplicate": lambda fields, other: [other, *fields[1:]],
    "non-numeric": lambda fields, other: [*fields[:-1], "nope"],
    "negative": lambda fields, other: [fields[0], "-" + fields[1], *fields[2:]],
    "nan": lambda fields, other: [fields[0], "nan", *fields[2:]],
    "inf": lambda fields, other: [*fields[:-1], "inf"],
    "sum": lambda fields, other: [fields[0], _nudge(fields[1]), *fields[2:]],
}


def _nudge(value):
    """``value`` raised by 1e-5, or left as it is when an earlier defect on the
    same row already made it non-numeric."""
    try:
        return repr(float(value) + 1e-5)
    except ValueError:
        return value


@st.composite
def lexicon_files(draw):
    """A lexicon file of 1-6 rows over 1-4 emotions with 0-3 defects, each at
    a random row, so a file may hold defects of two kinds on two lines."""
    n_emotions = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 6))
    words = [f"w{i}#{'nvar'[i % 4]}" for i in range(n_rows)]
    weight = st.integers(0, 1000)
    lines = ["# scheme: raw", "Lemma#PoS\t" + "\t".join(f"E{j}" for j in range(n_emotions))]
    rows = []
    for word in words:
        weights = draw(st.lists(weight, min_size=n_emotions, max_size=n_emotions))
        weights[0] += 1
        rows.append([word, *(format(w / sum(weights), ".9g") for w in weights)])
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n_rows - 1))
        kind = draw(st.sampled_from(sorted(DEFECTS)))
        rows[i] = DEFECTS[kind](rows[i], words[(i + 1) % n_rows])
    lines.extend("\t".join(fields) for fields in rows)
    return "".join(line + "\n" for line in lines)


#: Distinct emotion labels of varied length, drawn from by valid_lexicons.
EMOTION_LABEL_POOL = ("A", "ZX", "B_C", "XYZA", "_", "CAB", "Y_")


@st.composite
def valid_lexicons(draw):
    """A lexicon with arbitrary keys, emotions, provenance and rows."""
    n_words, n_emotions, n_pairs = (
        draw(st.integers(1, 8)), draw(st.integers(1, 5)), draw(st.integers(0, 3))
    )
    printable = st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp"))
    # Keys, labels and rows are drawn valid rather than filtered. Every
    # whitespace character is in Zs, Zl, Zp or Cc, and lower-casing is
    # idempotent.
    no_space = st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp", "Zs"))
    lemma = st.text(no_space, min_size=1, max_size=8).map(str.lower)
    word = st.builds(lambda l, p: f"{l}#{p}", lemma, st.sampled_from("vnar"))
    value = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
    positive = st.floats(min_value=0.0, max_value=1e6, exclude_min=True)
    # A provenance key is empty or starts with a non-space character.
    key = st.builds(
        lambda empty, first, rest: "" if empty else first + rest,
        st.booleans(),
        no_space,
        st.text(printable, max_size=9),
    )
    meta = st.text(printable, max_size=10)
    # Each example makes the draws of the largest lexicon and keeps the
    # first n of each: Hypothesis caps its early examples at a few times the
    # size of its smallest one and throws away any that draws more.
    words = list(dict.fromkeys([draw(word) for _ in range(8)][:n_words]))  # distinct keys
    rows = []
    for _ in range(8):
        rest = [draw(value) for _ in range(4)][: n_emotions - 1]
        # One entry is positive, so no row sums to zero.
        rest.insert(draw(st.integers(0, n_emotions - 1)), draw(positive))
        rows.append(rest)
    provenance = [(draw(key), draw(meta)) for _ in range(3)][:n_pairs]
    emotions = draw(st.permutations(EMOTION_LABEL_POOL))[:n_emotions]
    return EmotionLexicon(
        emotions,
        words,
        [np.asarray(r) / np.sum(r) for r in rows[: len(words)]],
        provenance=provenance,
    )


class TestReadLexiconProperties:
    @settings(max_examples=400, deadline=None)
    @given(content=lexicon_files())
    def test_matches_per_row_reference(self, content):
        try:
            expected = read_lexicon_lines_reference(io.StringIO(content), "<stream>")
        except LexiconError as exc:
            with pytest.raises(LexiconError) as caught:
                read_lexicon(io.StringIO(content))
            assert str(caught.value) == str(exc)
            return
        lex = read_lexicon(io.StringIO(content))
        assert lex.words == expected.words
        assert lex.emotions == expected.emotions
        assert lex.provenance == expected.provenance
        assert np.array_equal(lex.scores, expected.scores)

    @pytest.mark.parametrize(
        "rows, line, message",
        [
            (["w#n\t1\t0.1", "x#n\t-1\t2"], 2, "row sum 1.1"),
            (["w#n\t0.5\t0.5", "x#n\tnan\t1", "W#n\t1\t0"], 3, "scores must be finite"),
            (["w#n\t0.5\t0.5", "x#n\t2\t-1", "x#n\tnope\t1"], 3, "scores must be finite"),
            (["w#n\t0.5\t0.5", "x#n\t1\t0", "y#n\t1"], 4, "expected 3 tab-separated fields, got 2"),
        ],
    )
    def test_first_bad_line_wins(self, rows, line, message):
        content = "Lemma#PoS\tA\tB\n" + "".join(r + "\n" for r in rows)
        with pytest.raises(LexiconError, match=f"^<stream>:{line}: {message}"):
            read_lexicon(io.StringIO(content))

    def test_unsorted_rows_read_as_the_sorted_file(self):
        lines = GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if line.startswith("Lemma#PoS\t")) + 1
        shuffled = lines[:first] + lines[first:][::-1]
        assert shuffled != lines
        sorted_lex = read_lexicon(GOLDEN)
        unsorted_lex = read_lexicon(io.StringIO("".join(shuffled)))
        assert unsorted_lex.words == sorted_lex.words
        assert unsorted_lex.scores.tobytes() == sorted_lex.scores.tobytes()
        assert unsorted_lex.provenance == sorted_lex.provenance

    def test_bad_key_past_the_first_key_chunk_names_its_line(self):
        """The keys are checked 2**15 at a time: a bad key in the row after the
        first chunk, which still sorts last, is named at its line."""
        rows = [f"w{i:06d}#n\t1\n" for i in range(2**15)] + ["zzz#x\t1\n"]
        content = "# scheme: raw\nLemma#PoS\tA\n" + "".join(rows)
        with pytest.raises(LexiconError) as caught:
            read_lexicon(io.StringIO(content))
        assert str(caught.value) == (
            f"<stream>:{2**15 + 3}: bad word key: invalid pos tag 'x': expected one of v, n, a, r"
        )

    @settings(max_examples=200, deadline=None)
    @given(lex=valid_lexicons())
    def test_write_read_is_identity_on_bytes(self, lex):
        buf = io.StringIO()
        write_lexicon(lex, buf)
        text = buf.getvalue()
        again = io.StringIO()
        write_lexicon(read_lexicon(io.StringIO(text)), again)
        assert again.getvalue() == text


PROPERTY_TABLE = LemmaTable(
    entries=[("men", "n", "man"), ("ran", "v", "run")],
    rules=[("v", "ed", ""), ("n", "s", "")],
)
PROPERTY_VOCAB = ["man#n", "run#v", "run#n", "walk#v", "war#n", "war#v", "sad#a", "kill#v", "awe#n"]
PROPERTY_TOKENS = PROPERTY_VOCAB + ["zzz#n", "other#v"]
PROPERTY_SURFACES = ["Men", "ran", "runs", "walked", "wars", "war", "sad", "kill", "the", "xyzzy", "Awe"]
PROPERTY_DOCS = st.lists(
    st.tuples(
        st.lists(st.sampled_from(PROPERTY_TOKENS), max_size=8).map(lambda t: {"tokens": t})
        | st.lists(st.sampled_from(PROPERTY_SURFACES), max_size=8).map(
            lambda w: {"text": " ".join(w) + "!"}
        ),
        st.lists(st.floats(0.05, 1.0), min_size=8, max_size=8),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=120, deadline=None)
@given(
    docs=PROPERTY_DOCS,
    scheme=st.sampled_from(["raw", "normalized", "tfidf"]),
    ambiguity=st.sampled_from(["all", "first"]),
    min_df=st.integers(1, 3),
    nf_length=st.sampled_from(["filtered", "raw"]),
    col_norm=st.sampled_from(["sum", "max"]),
)
def test_jsonl_corpus_build_matches_dense_reference(
    emotions, docs, scheme, ambiguity, min_df, nf_length, col_norm
):
    """Random token and text corpora, written as JSONL and loaded from disk,
    build the lexicon the dense reference builds, or fail where it fails."""
    vocab = VocabularyFilter(PROPERTY_VOCAB)
    triples = []
    lines = []
    for j, (body, raw_votes) in enumerate(docs):
        total = sum(raw_votes)
        votes = dict(zip(emotions.labels, (v / total for v in raw_votes)))
        lines.append(json.dumps({"id": f"d{j}", **body, "votes": votes}))
        if "tokens" in body:
            candidates = body["tokens"]
        else:
            candidates = [
                c
                for surface in tokenize(body["text"])
                for c in dense_reference.candidates_reference(
                    surface, PROPERTY_TABLE, vocab, ambiguity
                )
            ]
        triples.append((f"d{j}", candidates, validate_votes(votes, emotions)))
    try:
        expected = dense_build(
            triples, set(PROPERTY_VOCAB), scheme,
            col_norm=col_norm, nf_length=nf_length, min_df=min_df,
        )
    except ValueError:
        expected = None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        corpus = load_corpus(path, emotions)

    def build():
        return build_lexicon(
            corpus, vocab, scheme, lemma_table=PROPERTY_TABLE, ambiguity=ambiguity,
            col_norm=col_norm, nf_length=nf_length, min_df=min_df,
        )

    if expected is None:
        with pytest.raises(MoodlexError):
            build()
        return
    lex = build()
    assert set(lex.words) == set(expected)
    for word, row in expected.items():
        np.testing.assert_allclose(lex.row(word), row, atol=1e-9)
    empty = sum(not set(candidates) & set(PROPERTY_VOCAB) for _, candidates, _ in triples)
    assert dict(lex.provenance)["dropped-empty-docs"] == str(empty)
