"""Corpus parsing, vote validation, and corpus statistics."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moodlex import (
    CorpusError,
    EmotionSet,
    LemmaTable,
    VocabularyFilter,
    VoteError,
    corpus_stats,
    parse_corpus,
    tokenize,
    validate_votes,
)
from moodlex.corpus import VOTE_SUM_TOLERANCE

from corpora import SMALL_DOCS, doc_tokens
from dense_reference import candidates_reference, parse_corpus_reference


def line(doc_id, votes, tokens=("awe#n",), text=None):
    record = {"id": doc_id, "votes": votes}
    if text is not None:
        record["text"] = text
    else:
        record["tokens"] = list(tokens)
    return json.dumps(record)


class TestEmotionSet:
    def test_default_order(self, emotions):
        assert emotions.labels == (
            "AFRAID",
            "AMUSED",
            "ANGRY",
            "ANNOYED",
            "DONT_CARE",
            "HAPPY",
            "INSPIRED",
            "SAD",
        )

    def test_case_normalized_and_unique(self):
        es = EmotionSet(["joy", "Fear"])
        assert es.labels == ("JOY", "FEAR")
        with pytest.raises(CorpusError):
            EmotionSet(["JOY", "joy"])
        with pytest.raises(CorpusError):
            EmotionSet([])
        with pytest.raises(CorpusError):
            EmotionSet(["JOY", ""])

    @pytest.mark.parametrize("label", ["A\tB", "A\rB", "A\nB"])
    def test_label_with_tab_or_line_break_is_refused(self, label):
        # A label is a field of the lexicon, scores and stats outputs.
        with pytest.raises(CorpusError, match="^emotion name holds a tab, CR or LF: 'A"):
            EmotionSet([label, "C"])

    def test_unknown_label(self, emotions):
        with pytest.raises(CorpusError, match="unknown emotion"):
            emotions.index("DISGUST")


class TestValidateVotes:
    def test_unit_sum_unchanged(self, emotions):
        # Vote row with entries 0.40/0.20/0.20/0.20 summing to exactly one.
        raw = {"AFRAID": 0.40, "ANNOYED": 0.20, "HAPPY": 0.20, "INSPIRED": 0.20}
        out = validate_votes(raw, emotions)
        np.testing.assert_allclose(
            out, [0.40, 0, 0, 0.20, 0, 0.20, 0.20, 0], atol=1e-12
        )

    def test_uniform_distribution_unchanged(self, emotions):
        out = validate_votes(dict.fromkeys(emotions.labels, 0.125), emotions)
        np.testing.assert_allclose(out, [0.125] * 8, atol=1e-15)

    def test_proportional_renormalization_at_tolerance(self, emotions):
        # 0.495 + 0.495 = 0.99, exactly at the 1e-2 boundary.
        raw = {"AFRAID": 0.495, "AMUSED": 0.495}
        out = validate_votes(raw, emotions)
        np.testing.assert_allclose(out[:2], [0.5, 0.5], atol=1e-12)
        assert abs(out.sum() - 1.0) <= 1e-9

    def test_sum_outside_tolerance_rejected(self, emotions):
        with pytest.raises(VoteError, match="corrupt"):
            validate_votes({"AFRAID": 0.49, "AMUSED": 0.49}, emotions)
        with pytest.raises(VoteError, match="corrupt"):
            validate_votes({"AFRAID": 1.02}, emotions)

    def test_negative_and_zero(self, emotions):
        with pytest.raises(VoteError, match="negative"):
            validate_votes({"AFRAID": -0.1, "HAPPY": 1.1}, emotions)
        with pytest.raises(VoteError, match="no votes"):
            validate_votes({e: 0.0 for e in emotions.labels}, emotions)

    def test_non_numeric_and_non_finite_rejected(self, emotions):
        with pytest.raises(VoteError, match="non-numeric"):
            validate_votes({"AFRAID": "lots"}, emotions)
        with pytest.raises(VoteError, match="non-numeric"):
            validate_votes({"AFRAID": None}, emotions)
        # json.loads yields unbounded ints; float() overflows on this one.
        with pytest.raises(VoteError, match="non-numeric"):
            validate_votes({"AFRAID": 10**400}, emotions)
        # json.loads accepts NaN literals, and NaN comparisons are all false,
        # so the tolerance check alone would let NaN through.
        with pytest.raises(VoteError, match="finite"):
            validate_votes({"AFRAID": float("nan")}, emotions)
        with pytest.raises(VoteError, match="finite"):
            validate_votes({"AFRAID": float("inf")}, emotions)

    @pytest.mark.parametrize("vote", [True, False])
    def test_boolean_vote_rejected(self, emotions, vote):
        # float(True) is 1.0: a JSON true would count as a whole vote.
        with pytest.raises(VoteError, match=f"non-numeric vote for HAPPY: {vote}"):
            validate_votes({"HAPPY": vote, "SAD": 1.0 - vote}, emotions)

    def test_post_sum_exact(self, emotions):
        rng = np.random.default_rng(7)
        for _ in range(50):
            raw = rng.random(8)
            raw = raw / raw.sum() * (1 + (rng.random() - 0.5) * 2 * VOTE_SUM_TOLERANCE)
            out = validate_votes(dict(zip(emotions.labels, raw)), emotions)
            assert abs(out.sum() - 1.0) <= 1e-9
            assert np.all(out >= 0)


class TestParseCorpus:
    def test_vote_rows_from_published_excerpt(self, emotions):
        # Two document rows of the published document-by-emotion excerpt.
        stream = [
            line("doc_10002", {"AFRAID": 0.75, "INSPIRED": 0.25}),
            line(
                "doc_10003",
                {"AMUSED": 0.50, "ANNOYED": 0.16, "DONT_CARE": 0.17, "HAPPY": 0.17},
            ),
        ]
        corpus = parse_corpus(stream, emotions)
        assert corpus.doc_ids == ("doc_10002", "doc_10003")
        np.testing.assert_allclose(
            corpus.votes[0], [0.75, 0, 0, 0, 0, 0, 0.25, 0], atol=1e-9
        )
        assert abs(corpus.votes[1].sum() - 1.0) <= 1e-9

    def test_empty_stream(self, emotions):
        corpus = parse_corpus([], emotions)
        assert len(corpus) == 0 and corpus.votes.shape == (0, 8)
        assert corpus.token_ids.size == 0 and corpus.strings == ()

    def test_duplicate_id_names_both_lines(self, emotions):
        stream = [line("a", {"AFRAID": 1.0}), line("a", {"HAPPY": 1.0})]
        with pytest.raises(CorpusError, match=r"lines 1 and 2"):
            parse_corpus(stream, emotions)

    def test_unknown_emotion_is_hard_error(self, emotions):
        stream = [line("a", {"DISGUST": 1.0})]
        with pytest.raises(CorpusError, match="unknown emotion"):
            parse_corpus(stream, emotions)

    def test_malformed_lines_reported_with_numbers_and_count(self, emotions):
        stream = [
            "{not json",
            line("ok", {"AFRAID": 1.0}),
            json.dumps({"id": "b", "votes": {"AFRAID": 1.0}}),  # no tokens/text
            json.dumps({"id": "c", "tokens": ["awe#n"]}),  # no votes
        ]
        with pytest.raises(CorpusError) as err:
            parse_corpus(stream, emotions)
        message = str(err.value)
        assert "3 malformed line(s)" in message
        assert "line 1" in message and "line 3" in message and "line 4" in message

    def test_tokens_and_text_mutually_exclusive(self, emotions):
        record = {"id": "a", "tokens": ["awe#n"], "text": "x", "votes": {"AFRAID": 1.0}}
        with pytest.raises(CorpusError, match="exactly one"):
            parse_corpus([json.dumps(record)], emotions)

    def test_bad_token_format_collected(self, emotions):
        stream = [line("a", {"AFRAID": 1.0}, tokens=["awe#n", "BAD#z"])]
        with pytest.raises(CorpusError, match="bad token"):
            parse_corpus(stream, emotions)

    def test_same_bad_token_reported_on_every_line(self, emotions):
        stream = [
            line("a", {"AFRAID": 1.0}, tokens=["awe#n", "BAD#z"]),
            line("b", {"AFRAID": 1.0}, tokens=["awe#n"]),
            line("c", {"AFRAID": 1.0}, tokens=["BAD#z", "awe#n"]),
            line("d", {"AFRAID": 1.0}, tokens=["awe#n", ["awe#n"]]),
            line("e", {"AFRAID": 1.0}, tokens=[["awe#n"]]),
        ]
        with pytest.raises(CorpusError) as info:
            parse_corpus(stream, emotions)
        message = str(info.value)
        assert "4 malformed line(s)" in message
        assert message.count("bad token 'BAD#z'") == 2
        assert "line 1: bad token 'BAD#z'" in message
        assert "line 3: bad token 'BAD#z'" in message
        assert "line 4: token ['awe#n'] is not a string" in message
        assert "line 5: token ['awe#n'] is not a string" in message

    def test_each_distinct_token_parsed_once(self, emotions, monkeypatch):
        from moodlex import textpipe

        calls = []
        original = textpipe.key_faults

        def counting(tokens):
            calls.extend(tokens)
            return original(tokens)

        monkeypatch.setattr(textpipe, "key_faults", counting)
        stream = [
            line("a", {"AFRAID": 1.0}, tokens=["awe#n", "war#n", "awe#n"]),
            line("b", {"AFRAID": 1.0}, tokens=["war#n", "kill#v"]),
            line("c", {"AFRAID": 1.0}, tokens=["kill#v", "awe#n"]),
        ]
        corpus = parse_corpus(stream, emotions)
        assert sorted(calls) == ["awe#n", "kill#v", "war#n"]
        assert doc_tokens(corpus) == [
            ("awe#n", "war#n", "awe#n"),
            ("war#n", "kill#v"),
            ("kill#v", "awe#n"),
        ]
        # One id per distinct token across the whole parse, in order of first
        # occurrence, held as int32.
        assert corpus.strings == ("awe#n", "war#n", "kill#v")
        assert corpus.token_ids.dtype == np.int32
        assert corpus.token_ids.tolist() == [0, 1, 0, 1, 2, 2, 0]
        assert corpus.lengths.tolist() == [3, 2, 2]

    def test_labels_equal_after_normalization_are_a_malformed_line(self, emotions):
        stream = [
            line("a", {"HAPPY": 1.0}),
            line("b", {"happy": 0.3, "HAPPY": 0.3, "SAD": 0.4}),
            line("c", {" sad": 0.5, "SAD ": 0.5}),
        ]
        with pytest.raises(CorpusError) as info:
            parse_corpus(stream, emotions)
        message = str(info.value)
        assert "2 malformed line(s)" in message
        assert "line 2: votes name HAPPY twice: 'happy' and 'HAPPY'" in message
        assert "line 3: votes name SAD twice: ' sad' and 'SAD '" in message

    def test_vote_error_collected_with_line_number(self, emotions):
        stream = [line("a", {"AFRAID": 0.4})]
        with pytest.raises(CorpusError, match="line 1.*corrupt"):
            parse_corpus(stream, emotions)

    def test_text_mode_and_empty_tokens_allowed(self, emotions):
        stream = [
            line("a", {"AFRAID": 1.0}, text="Some raw text"),
            line("b", {"HAPPY": 1.0}, tokens=[]),
        ]
        corpus = parse_corpus(stream, emotions)
        assert corpus.texts == {0: "Some raw text"}
        assert doc_tokens(corpus) == [(), ()]

    def test_min_votes_sum_drops_before_validation(self, emotions):
        stream = [
            line("a", {"AFRAID": 0.4}),  # sum 0.4: dropped, not an error
            line("b", {"HAPPY": 1.0}),
        ]
        corpus = parse_corpus(stream, emotions, min_votes_sum=0.9)
        assert corpus.doc_ids == ("b",)

    @pytest.mark.parametrize(
        "vote",
        ["x", None, [1], 10**400, True],
        ids=["string", "null", "array", "huge-int", "boolean"],
    )
    def test_min_votes_sum_non_numeric_vote_is_malformed_line(self, emotions, vote):
        stream = [line("a", {"HAPPY": 1.0}), line("b", {"AFRAID": vote})]
        with pytest.raises(CorpusError, match="1 malformed line.*line 2: non-numeric vote"):
            parse_corpus(stream, emotions, min_votes_sum=0.5)

    def test_boolean_vote_is_malformed_line(self, emotions):
        stream = [line("a", {"HAPPY": 1.0}), line("b", {"HAPPY": True})]
        with pytest.raises(CorpusError, match="1 malformed line.*line 2: non-numeric vote for HAPPY: True"):
            parse_corpus(stream, emotions)

    @pytest.mark.parametrize("doc_id", ["a\tb", "a\rb", "a\nb", "\t"])
    def test_id_with_tab_or_line_break_is_malformed_line(self, emotions, doc_id):
        stream = [line("ok", {"HAPPY": 1.0}), line(doc_id, {"HAPPY": 1.0})]
        with pytest.raises(CorpusError, match="1 malformed line.*line 2: 'id' must not contain"):
            parse_corpus(stream, emotions)

    @pytest.mark.parametrize("tokens", ["awe#n", {"awe#n": 1}, None], ids=["string", "map", "null"])
    def test_tokens_that_are_not_an_array_are_a_malformed_line(self, emotions, tokens):
        record = {"id": "b", "tokens": tokens, "votes": {"HAPPY": 1.0}}
        stream = [line("ok", {"HAPPY": 1.0}), json.dumps(record)]
        with pytest.raises(CorpusError) as info:
            parse_corpus(stream, emotions)
        message = str(info.value)
        assert "1 malformed line(s)" in message
        assert "line 2: 'tokens' must be an array of lemma#pos strings" in message

    def test_order_preserving_and_deterministic(self, emotions):
        stream = [line(f"d{i}", {"AFRAID": 0.5, "SAD": 0.5}) for i in range(10)]
        first = parse_corpus(list(stream), emotions)
        second = parse_corpus(list(stream), emotions)
        assert first.doc_ids == tuple(f"d{i}" for i in range(10))
        assert first.doc_ids == second.doc_ids
        np.testing.assert_array_equal(first.votes, second.votes)


class TestCorpusStats:
    def test_two_one_hot_docs(self, emotions):
        stream = [
            line("a", {"AFRAID": 1.0}, tokens=["awe#n", "war#n"]),
            line("b", {"HAPPY": 1.0}, tokens=["game#n"]),
        ]
        stats = corpus_stats(parse_corpus(stream, emotions))
        expected = np.zeros(8)
        expected[0] = 0.5
        expected[5] = 0.5
        np.testing.assert_allclose(stats.mean_votes, expected, atol=1e-12)
        assert stats.doc_count == 2
        assert stats.token_count == 3
        assert stats.mean_doc_length == pytest.approx(1.5)

    def test_single_doc_identity(self, emotions):
        corpus = parse_corpus([line("a", {"AFRAID": 0.75, "INSPIRED": 0.25})], emotions)
        stats = corpus_stats(corpus)
        np.testing.assert_allclose(stats.mean_votes, corpus.votes[0], atol=1e-12)

    def test_ten_random_docs_match_resummation_oracle(self, emotions):
        rng = np.random.default_rng(11)
        stream = []
        votes_by_doc = []
        for i in range(10):
            votes = rng.random(8) + 0.01
            votes = votes / votes.sum()
            votes_by_doc.append(votes)
            stream.append(line(f"d{i}", dict(zip(emotions.labels, votes))))
        stats = corpus_stats(parse_corpus(stream, emotions))
        # Spreadsheet-style recount: per-emotion column sums via fsum.
        for e in range(8):
            expected = math.fsum(
                validate_votes(dict(zip(emotions.labels, v)), emotions)[e] for v in votes_by_doc
            ) / 10
            assert abs(stats.mean_votes[e] - expected) < 1e-12

    def test_mean_votes_sum_to_one(self, emotions):
        rng = np.random.default_rng(3)
        stream = [
            line(f"d{i}", dict(zip(emotions.labels, rng.dirichlet(np.ones(8)))))
            for i in range(25)
        ]
        stats = corpus_stats(parse_corpus(stream, emotions))
        assert abs(stats.mean_votes.sum() - 1.0) <= 1e-9

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError):
            corpus_stats([])

    def test_text_mode_token_count(self, emotions):
        corpus = parse_corpus(
            [line("a", {"AFRAID": 1.0}, text="Two words here, 42")], emotions
        )
        assert corpus_stats(corpus).token_count == 3


# Surfaces over "abs", so forms repeat, the rules fire, and a text's
# candidates (pass-throughs such as "ba#n" too) often equal token strings.
LEMMA_TABLE = LemmaTable([("ab", "n", "b")], [("v", "s", ""), ("n", "s", ""), ("a", "b", "")])
LEMMA_VOCAB = VocabularyFilter(["a#v", "a#n", "b#n", "ab#v", "sa#a", "as#n", "a#a"])
LEMMA_WORDS = st.text(alphabet="abs", min_size=1, max_size=3)
MIXED_DOCS = st.lists(
    st.lists(st.sampled_from(sorted(LEMMA_VOCAB) + ["ba#n", "s#n", "bs#n"]), max_size=4)
    | st.lists(LEMMA_WORDS | LEMMA_WORDS.map(str.upper), max_size=5).map(", ".join),
    min_size=1,
    max_size=6,
)


class TestLemmatized:
    def test_text_candidates_share_ids_with_token_strings(self, emotions):
        texts = {"a": "Kill wars, the war!", "d": "", "e": "awe kills"}
        tokens = {"b": ["war#n", "kill#v"], "c": [], "f": ["awe#n", "war#n", "kill#n"]}
        stream = [
            line(doc_id, {"SAD": 1.0}, tokens=tokens.get(doc_id, ()), text=texts.get(doc_id))
            for doc_id in "abcdef"
        ]
        corpus = parse_corpus(stream, emotions)
        table = LemmaTable(rules=[("n", "s", ""), ("v", "s", "")])
        vocab = VocabularyFilter(["war#n", "kill#v", "kill#n", "awe#n"])
        out = corpus.lemmatized(table, vocab, "all")

        def candidates(text):
            return tuple(
                c for s in tokenize(text) for c in candidates_reference(s, table, vocab, "all")
            )

        expected = [tuple(tokens[d]) if d in tokens else candidates(texts[d]) for d in "abcdef"]
        assert doc_tokens(out) == expected
        # The token documents keep their ids; a candidate that repeats a token
        # string takes that string's id, and every string has one id.
        assert out.strings[: len(corpus.strings)] == corpus.strings
        assert sorted(out.strings) == sorted({t for doc in expected for t in doc})
        assert out.lengths.tolist() == [len(doc) for doc in expected]

    @settings(max_examples=200, deadline=None)
    @given(docs=MIXED_DOCS, policy=st.sampled_from(["all", "first"]))
    def test_matches_per_document_candidates(self, docs, policy):
        """Token documents (some empty) keep their tokens and text documents
        take their candidates; the token strings are numbered first, then
        the new candidates, each by first occurrence."""
        is_text = [isinstance(body, str) for body in docs]
        corpus = parse_corpus(
            line(f"d{i}", {"SAD": 1.0}, tokens=() if text else body, text=body if text else None)
            for i, (body, text) in enumerate(zip(docs, is_text))
        )
        out = corpus.lemmatized(LEMMA_TABLE, LEMMA_VOCAB, policy)

        def candidates(text):
            return [
                c for s in tokenize(text)
                for c in candidates_reference(s, LEMMA_TABLE, LEMMA_VOCAB, policy)
            ]

        expected = [candidates(body) if text else body for body, text in zip(docs, is_text)]
        first_seen = [e for e, text in zip(expected, is_text) if not text] + [
            e for e, text in zip(expected, is_text) if text
        ]
        strings = tuple(dict.fromkeys(s for e in first_seen for s in e))
        assert out.strings == strings
        assert out.lengths.tolist() == list(map(len, expected))
        assert out.token_ids.dtype == np.int32
        assert out.token_ids.tolist() == [strings.index(s) for e in expected for s in e]
        assert not out.texts


class TestCorpusVotes:
    def test_rows_follow_corpus_order(self, emotions, small_corpus):
        assert small_corpus.doc_ids == tuple(doc_id for doc_id, _, _ in SMALL_DOCS)
        for i, (_, _, votes) in enumerate(SMALL_DOCS):
            np.testing.assert_array_equal(small_corpus.votes[i], validate_votes(votes, emotions))


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
LABELS = st.sampled_from(["AFRAID", "happy", " Sad ", "HAPPY", "DISGUST", ""])
VOTES = (
    st.sampled_from([{"AFRAID": 1.0}, {"happy": 0.5, "SAD": 0.5}, {"AFRAID": 0.4}, {}])
    | st.dictionaries(LABELS, st.floats() | st.integers(-2, 2) | JSON_VALUES, max_size=4)
    | JSON_VALUES
)
TOKENS = st.sampled_from(["awe#n", "war#n", "kill#v", "BAD#z", "awe", "a b#n", "#n", ""]) | JSON_VALUES
RECORDS = st.fixed_dictionaries(
    {},
    optional={
        "id": st.sampled_from(["d1", "d2", "", "a\tb", "d\ud800"]) | JSON_VALUES,
        "tokens": st.lists(TOKENS, max_size=5) | JSON_VALUES,
        "text": st.text(max_size=10) | JSON_VALUES,
        "votes": VOTES,
        "extra": JSON_VALUES,
    },
)
# Records that pass every check up to their tokens, so odd tokens are reached.
TOKEN_RECORDS = st.fixed_dictionaries(
    {
        "id": st.sampled_from(["d1", "d2", "d3"]),
        "tokens": st.lists(TOKENS, max_size=5),
        "votes": st.sampled_from([{"AFRAID": 1.0}, {"happy": 0.5, "SAD": 0.5}]),
    }
)
LINES = st.lists(
    (TOKEN_RECORDS | RECORDS | JSON_VALUES).map(json.dumps) | st.text(max_size=12), max_size=4
)


@settings(max_examples=300, deadline=None)
@given(lines=LINES, min_votes_sum=st.none() | st.floats(0.0, 2.0))
def test_any_json_line_gives_documents_or_a_corpus_error(emotions, lines, min_votes_sum):
    """Tokens that are numbers, null, bools, lists or dicts, missing or extra
    fields and odd votes: every line parses or is a CorpusError."""
    try:
        corpus = parse_corpus(lines, emotions, min_votes_sum=min_votes_sum)
    except CorpusError:
        return
    assert len(corpus) <= len(lines)


# Records whose votes and tokens may both be bad, so the two checks meet on one line.
VOTED_TOKEN_RECORDS = st.fixed_dictionaries(
    {
        "id": st.sampled_from(["d1", "d2", "d3", "d4"]),
        "tokens": st.lists(TOKENS, max_size=4),
        "votes": VOTES,
    }
)


def parsed_or_error(parse, lines, emotions, min_votes_sum):
    try:
        return parse(lines, emotions, min_votes_sum=min_votes_sum)
    except CorpusError as exc:
        return str(exc)


def assert_same_parse(lines, emotions, min_votes_sum=None):
    got = parsed_or_error(parse_corpus, lines, emotions, min_votes_sum)
    want = parsed_or_error(parse_corpus_reference, lines, emotions, min_votes_sum)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert got.doc_ids == want.doc_ids and got.emotions == want.emotions
    assert got.strings == want.strings and got.texts == want.texts
    for name in ("token_ids", "lengths"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        assert getattr(got, name).tolist() == getattr(want, name).tolist()
    assert got.votes.dtype == np.float64 and got.votes.shape == want.votes.shape
    assert got.votes.tobytes() == want.votes.tobytes()  # bit for bit


@settings(max_examples=400, deadline=None)
@given(
    lines=st.lists(
        LINES | st.lists(VOTED_TOKEN_RECORDS.map(json.dumps), max_size=2), max_size=3
    ).map(lambda parts: [line for part in parts for line in part]),
    min_votes_sum=st.none() | st.floats(0.0, 2.0),
)
def test_matches_the_per_line_reference_parser(emotions, lines, min_votes_sum):
    """Bulk vote and token checks give the error text, or the corpus with the
    bit-identical votes, of a parser that checks one line at a time."""
    assert_same_parse(lines, emotions, min_votes_sum)


def test_errors_found_in_bulk_merge_in_line_order(emotions):
    def bad_lines(i):
        return [
            "{not json",
            line(f"v{i}", {"AFRAID": 0.4}, tokens=["BAD#z"]),  # the vote error wins
            line(f"t{i}", {"SAD": 1.0}, tokens=["awe#n", "Awe#n", "x"]),
            line(f"u{i}", {"SAD": 1.0}, tokens=["awe#n", True]),
            line(f"w{i}", {"SAD": 1.0}, tokens=[1, "BAD#z"]),  # 1 is not taken for true
            line(f"n{i}", {"SAD": -1.0, "HAPPY": 2.0}, tokens=[["x"]]),
            line(f"z{i}", {"SAD": 0.0}),
        ]

    stream = [line("ok", {"SAD": 1.0})] + [l for i in range(4) for l in bad_lines(i)]
    with pytest.raises(CorpusError) as info:
        parse_corpus(stream, emotions)
    message = str(info.value)
    assert message.startswith("<stream>: 28 malformed line(s): line 2: invalid JSON")
    assert "line 3: vote sum 0.4 outside" in message and message.endswith("; ...")
    assert "line 4: bad token 'Awe#n': lemma must be lower-case" in message
    assert "line 5: token True is not a string" in message
    assert "line 6: token 1 is not a string" in message
    assert "line 7: negative vote for SAD" in message
    assert_same_parse(stream, emotions)
