"""Tokenization, lemma#pos handling, lemmatization, and vocabulary filters."""

from __future__ import annotations

import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moodlex import (
    LemmaTable,
    TextPipeError,
    VocabularyError,
    VocabularyFilter,
    lemmatize_ids,
    tokenize,
)
from moodlex import textpipe
from moodlex.lexicon import EmotionLexicon

from corpora import doc_tokens
from dense_reference import candidates_reference, lemma_pos_reference

# Pieces of lemma#pos keys near the edges of the rules: separators, pos
# letters (and one that is not), upper and title case, characters whose
# lower case differs in length, and ASCII and Unicode whitespace.
KEY_PIECES = st.sampled_from(
    ["#", "v", "n", "a", "r", "z", "k", "é", ".", "A", "É", "ǅ", "İ", "ß",
     " ", "\t", "\n", "\x1c", "\x85", "\u00a0", "\u2003", "\u3000"]
)
PIECED = st.lists(KEY_PIECES, max_size=6).map("".join)
KEYS = st.builds("{}#{}".format, PIECED, st.sampled_from(["v", "n", "a", "r", "z", "", "N"]))
GOOD_KEYS = st.from_regex(r"[a-zé.'#]{1,4}#[vnar]", fullmatch=True)


def check_outcome(check, token):
    """None when ``check`` accepts ``token``, else its TextPipeError message."""
    try:
        check(token)
    except TextPipeError as exc:
        return str(exc)
    return None


class TestTokenize:
    def test_headline_with_digits(self):
        # Digit tokens fall out under the letters-only rule.
        assert tokenize("Iraq car bombings kill 22 People") == [
            "iraq",
            "car",
            "bombings",
            "kill",
            "people",
        ]

    def test_empty(self):
        assert tokenize("") == []

    def test_case_folding_and_punctuation(self):
        assert tokenize("Kill, kill; KILL!") == ["kill", "kill", "kill"]

    def test_unicode_letters(self):
        assert tokenize("Café déjà-vu") == ["café", "déjà", "vu"]

    def test_mixed_alphanumerics_split_on_digits(self):
        assert tokenize("x9y abc123 42") == ["x", "y", "abc"]

    def test_underscore_is_boundary(self):
        assert tokenize("foo_bar") == ["foo", "bar"]

    # ASCII text takes a str.translate path and any other text the regex, so
    # both kinds are drawn and checked against the regex alone.
    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(st.text(), st.text(st.characters(max_codepoint=127))))
    @example(text="".join(map(chr, range(128))))
    @example(text="İstanbul")
    @example(text="x9y 42 abc123 foo_bar _a_ 7_")
    def test_matches_regex_reference(self, text):
        assert tokenize(text) == [t.lower() for t in re.findall(r"[^\W\d_]+", text)]

    # A batch that is ASCII and free of line breaks is tokenized at once, any
    # other text by text; both must give what tokenize gives each text.
    @settings(max_examples=300, deadline=None)
    @given(
        texts=st.lists(
            st.text(st.characters(max_codepoint=127), max_size=12)
            | st.text(max_size=8)
            | st.sampled_from(["a\nb", "\n", "Kill\r\nWAR", "x\x0by", "déjà\nvu"]),
            max_size=6,
        )
    )
    @example(texts=[])
    @example(texts=[""])
    @example(texts=["", ""])
    @example(texts=["Iraq car bombings kill 22", "a\tb c"])
    @example(texts=["ASCII only", "then\na break"])
    @example(texts=["ASCII only", "Café"])
    def test_batch_matches_each(self, texts):
        assert list(textpipe.tokenize_all(texts)) == list(map(tokenize, texts))


class TestCheckToken:
    @pytest.mark.parametrize("token", ["kill#v", "awe#n", "déjà#r", "a#a", "x.y'z#n"])
    def test_valid_accepted(self, token):
        assert textpipe.check_lemma_pos(token) is None

    @pytest.mark.parametrize("token", ["kill", "kill#z", "#n", "Kill#v", "two words#n"])
    def test_invalid_rejected(self, token):
        with pytest.raises(TextPipeError):
            textpipe.check_lemma_pos(token)

    @settings(max_examples=500, deadline=None)
    @given(token=st.one_of(st.text(), PIECED, KEYS))
    def test_matches_reference(self, token):
        assert check_outcome(textpipe.check_lemma_pos, token) == check_outcome(
            lemma_pos_reference, token
        )

    @settings(max_examples=500, deadline=None)
    @given(tokens=st.lists(st.one_of(GOOD_KEYS, GOOD_KEYS, st.text(), PIECED, KEYS), max_size=5))
    @example(tokens=["a#v\nb#n"])
    @example(tokens=[])
    @example(tokens=[""])
    @example(tokens=["ok#n", "ok#n\n"])
    @example(tokens=["ok#n", "Bad#n", "ok#n", "bad#z"])
    def test_bulk_check_matches_each(self, tokens):
        """key_faults maps the index of every key check_lemma_pos rejects to
        the text of what it raises, and holds no other index."""
        expected = {}
        for i, token in enumerate(tokens):
            try:
                textpipe.check_lemma_pos(token)
            except TextPipeError as exc:
                expected[i] = str(exc)
        assert textpipe.key_faults(tokens) == expected

    def test_bulk_check_reports_bad_keys_in_every_chunk(self):
        keys = [f"w{i}#n" for i in range(2**15 + 3)]
        assert textpipe.key_faults(keys) == {}
        keys[5] = "Early#n"
        keys.append("late#z")
        assert textpipe.key_faults(keys) == {
            5: "lemma must be lower-case with no whitespace: 'Early'",
            2**15 + 3: "invalid pos tag 'z': expected one of v, n, a, r",
        }

    def test_non_string_key_is_a_type_error(self):
        with pytest.raises(TypeError):
            textpipe.key_faults(["ok#n", 5])


class TestVocabularyFilter:
    def test_empty_is_configuration_error(self):
        with pytest.raises(VocabularyError):
            VocabularyFilter([])

    def test_membership_exact(self):
        vocab = VocabularyFilter(["awe#n"])
        assert "awe#n" in vocab
        assert "awe#v" not in vocab
        assert "awes#n" not in vocab

    def test_from_file_with_comments(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("# comment line\nawe#n\n\nkill#v\n", encoding="utf-8")
        vocab = VocabularyFilter.from_file(path)
        assert len(vocab) == 2 and "kill#v" in vocab

    def test_from_file_bad_line(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("awe#n\nnot a token\n", encoding="utf-8")
        with pytest.raises(VocabularyError, match="vocab.txt:2"):
            VocabularyFilter.from_file(path)

    def test_from_file_names_first_bad_line_among_repeats(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("awe#n\nawe#n\nwar#x\nAwe#n\nwar#x\n", encoding="utf-8")
        with pytest.raises(VocabularyError, match=r"vocab.txt:3: invalid pos tag 'x'"):
            VocabularyFilter.from_file(path)

    def test_from_file_checks_each_distinct_entry_once(self, tmp_path, monkeypatch):
        path = tmp_path / "vocab.txt"
        path.write_text("awe#n\nkill#v\n# awe#n\nawe#n\n\n kill#v\nwar#n\n", encoding="utf-8")
        calls = []
        check = textpipe.key_faults

        def counted(tokens):
            calls.extend(tokens)
            return check(tokens)

        monkeypatch.setattr(textpipe, "key_faults", counted)
        vocab = VocabularyFilter.from_file(path)
        assert sorted(vocab) == ["awe#n", "kill#v", "war#n"]
        assert sorted(calls) == ["awe#n", "kill#v", "war#n"]


class TestLemmaTable:
    def test_from_file_entries_and_rules(self, tmp_path):
        path = tmp_path / "lemmas.tsv"
        path.write_text(
            "bombings\tn\tbombing\nwent\tv\tgo\n[rules]\nv\ts\t\nn\tings\ting\n",
            encoding="utf-8",
        )
        table = LemmaTable.from_file(path)
        assert table.entry("bombings", "n") == "bombing"
        assert table.entry("went", "v") == "go"
        assert list(table.rule_rewrites("kills", "v")) == ["kill"]
        assert list(table.rule_rewrites("killings", "n")) == ["killing"]

    def test_rules_never_yield_empty_lemma(self):
        table = LemmaTable(rules=[("v", "s", "")])
        assert list(table.rule_rewrites("s", "v")) == []

    def test_bad_pos_and_field_count(self, tmp_path):
        with pytest.raises(TextPipeError, match="^invalid pos tag 'z' in lemma table$"):
            LemmaTable(entries=[("x", "z", "y")])
        path = tmp_path / "lemmas.tsv"
        path.write_text("only two\tfields\n", encoding="utf-8")
        with pytest.raises(TextPipeError, match="lemmas.tsv:1"):
            LemmaTable.from_file(path)
        # The section line is exactly [rules]: padded, it is a one-field row.
        path.write_text("went\tv\tgo\n[rules] \nv\ts\t\n", encoding="utf-8")
        with pytest.raises(TextPipeError, match="lemmas.tsv:2: expected 3 tab-separated fields, got 1"):
            LemmaTable.from_file(path)

    def test_conflicting_entries_rejected(self):
        with pytest.raises(TextPipeError, match="conflicting"):
            LemmaTable(entries=[("went", "v", "go"), ("went", "v", "wend")])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("went\tv\tgo\n[rules]\nx\ts\t\n", "3: invalid pos tag 'x' in lemma table"),
            ("went\tx\tgo\n", "1: invalid pos tag 'x' in lemma table"),
            ("went\tv\tgo\n\n[rules]\nv\ts\t\nn\t\ta\n", "5: suffix rule with empty suffix"),
            (
                "# table\nwent\tv\tgo\nwent\tn\twent\nwent\tv\twend\n",
                "4: conflicting lemma table entries for 'went'#v",
            ),
            # Entries no vocabulary can license, which would hide "went"'s
            # other verb candidates.
            ("went\tv\t\n", "1: lemma must be non-empty"),
            (
                "went\tn\twent\nwent\tv\tGo\n",
                "2: lemma must be lower-case with no whitespace: 'Go'",
            ),
            ("went\tv\tgo\n\tn\tgo\n", "2: lemma table entry with empty surface"),
        ],
        ids=["rule-pos", "entry-pos", "empty-suffix", "conflict", "empty-lemma", "upper-lemma",
             "empty-surface"],
    )
    def test_from_file_names_the_bad_line(self, tmp_path, text, message):
        path = tmp_path / "badpos.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(TextPipeError, match=f"^{re.escape(str(path))}:{message}$"):
            LemmaTable.from_file(path)


class TestLemmatize:
    def test_table_hit(self):
        table = LemmaTable(entries=[("bombings", "n", "bombing")])
        vocab = VocabularyFilter(["bombing#n"])
        assert doc_tokens(lemmatize_ids([["bombings"]], table, vocab=vocab)) == [("bombing#n",)]

    def test_all_licensed_candidates(self):
        vocab = VocabularyFilter(["kill#v", "kill#n"])
        out = lemmatize_ids([["kill"]], LemmaTable(), vocab=vocab)
        assert doc_tokens(out) == [("kill#v", "kill#n")]

    def test_first_candidate_policy(self):
        vocab = VocabularyFilter(["kill#v", "kill#n"])
        out = lemmatize_ids([["kill"]], LemmaTable(), vocab=vocab, policy="first")
        assert doc_tokens(out) == [("kill#v",)]

    def test_unmapped_token_passes_through_as_noun(self):
        vocab = VocabularyFilter(["kill#v"])
        out = lemmatize_ids([["xyzzy"]], LemmaTable(), vocab=vocab)
        assert doc_tokens(out) == [(textpipe.UNLICENSED,)]

    def test_rule_rewrite_needs_vocabulary_licensing(self):
        table = LemmaTable(rules=[("v", "s", ""), ("n", "s", "")])
        vocab = VocabularyFilter(["kill#v"])
        # kills -> rule strips the s; only the verb reading is licensed.
        assert doc_tokens(lemmatize_ids([["kills"]], table, vocab=vocab)) == [("kill#v",)]

    def test_without_vocabulary_only_table_hits(self):
        table = LemmaTable(entries=[("went", "v", "go")])
        out = lemmatize_ids([["went", "kill"]], table, vocab=())
        assert doc_tokens(out) == [("go#v", textpipe.UNLICENSED)]

    def test_bad_policy(self):
        with pytest.raises(TextPipeError):
            lemmatize_ids([["kill"]], LemmaTable(), vocab=(), policy="best")

    def test_manual_table_walk_oracle(self):
        # Twenty tokens pushed through a small table + vocabulary; the
        # expected stream below was derived by walking the documented
        # candidate procedure (table entry, then licensed identity per pos in
        # v/n/a/r order, then licensed rule rewrite) entry by entry by hand.
        table = LemmaTable(
            entries=[("bombings", "n", "bombing"), ("men", "n", "man")],
            rules=[("v", "ed", ""), ("n", "s", "")],
        )
        vocab = VocabularyFilter(
            [
                "bombing#n",
                "man#n",
                "kill#v",
                "kill#n",
                "war#n",
                "sad#a",
                "walk#v",
                "car#n",
                "fast#r",
                "fast#a",
            ]
        )
        tokens = [
            "bombings", "kill", "war", "men", "sad", "walked", "cars", "fast",
            "kill", "unknown", "war", "sad", "bombings", "walked", "men",
            "cars", "fast", "kill", "war", "xyzzy",
        ]
        expected = [
            "bombing#n",            # table hit, pos n
            "kill#v", "kill#n",     # identity licensed for v and n
            "war#n",                # identity licensed for n
            "man#n",                # table hit
            "sad#a",                # identity licensed for a
            "walk#v",               # rule v: -ed
            "car#n",                # rule n: -s
            "fast#a", "fast#r",     # identity licensed for a then r (v/n/a/r order)
            "kill#v", "kill#n",
            textpipe.UNLICENSED,    # unmapped: the placeholder
            "war#n",
            "sad#a",
            "bombing#n",
            "walk#v",
            "man#n",
            "car#n",
            "fast#a", "fast#r",
            "kill#v", "kill#n",
            "war#n",
            textpipe.UNLICENSED,    # unmapped: the placeholder
        ]
        assert doc_tokens(lemmatize_ids([tokens], table, vocab=vocab)) == [tuple(expected)]


MEMO_TABLE = LemmaTable(
    entries=[("men", "n", "man"), ("ran", "v", "run")],
    rules=[("v", "ed", ""), ("n", "s", ""), ("a", "er", "")],
)
MEMO_VOCAB = VocabularyFilter(
    ["man#n", "run#v", "run#n", "a#n", "ab#v", "ab#a", "b#n", "ba#r", "men#a"]
)

# Random tables, vocabularies and surfaces over a two-letter alphabet, short
# enough that surface forms repeat within and across streams, suffixes often
# overlap within a pos or equal a whole surface, replacements are often
# empty, and table lemmas are sometimes missing from the vocabulary.
AB = st.text(alphabet="ab", min_size=1, max_size=2)
POS = st.sampled_from(textpipe.POS_TAGS)
TABLES = st.builds(
    lambda entries, rules: LemmaTable(
        [(surface, pos, lemma) for (surface, pos), lemma in entries.items()], rules
    ),
    st.dictionaries(st.tuples(AB, POS), AB, max_size=4),
    st.lists(st.tuples(POS, AB, st.text(alphabet="ab", max_size=1)), max_size=10),
)


def make_vocab(form, words):
    """``words`` as a set, a VocabularyFilter or a lexicon, or no words at
    all (an empty set, which licenses table hits only). Only the set keeps
    words that are not lemma#pos keys: "#v", with an empty lemma, shows
    whether a rewrite that would empty a surface is skipped, and "aav", "#"
    or "a#" whether a tag is only ever read after a "#"."""
    if form == "empty":
        return set()
    if form == "set":
        return set(words)
    valid = [w for w in sorted(set(words)) if not check_outcome(textpipe.check_lemma_pos, w)]
    valid = valid or ["a#n"]
    if form == "filter":
        return VocabularyFilter(valid)
    return EmotionLexicon(["X"], valid, np.ones((len(valid), 1)))


# Every key with a lemma of at most two letters, less a drawn few: most
# rewrites are licensed, so rule order decides often. Words with a "#" in
# the lemma, or none before the tag, are drawn too.
KEYS_AB = [
    f"{lemma}#{pos}"
    for lemma in ("", "a", "b", "aa", "ab", "ba", "bb")
    for pos in textpipe.POS_TAGS
] + ["a#b#v", "##n", "#", "ab", "a#", "aav", "b#an"]
VOCABS = st.builds(
    lambda form, dropped: make_vocab(form, [k for k in KEYS_AB if k not in dropped]),
    st.sampled_from(["empty", "set", "filter", "lexicon"]),
    st.sets(st.sampled_from(KEYS_AB)),
)
SURFACES = st.text(alphabet="ab", min_size=1, max_size=3) | st.sampled_from(
    ["a#", "#b", "a#b", "#"]
)
STREAMS = st.lists(st.lists(SURFACES, max_size=8), max_size=4)


class TestLemmatizeAll:
    @settings(max_examples=300, deadline=None)
    @given(
        table=TABLES, vocab=VOCABS, policy=st.sampled_from(["all", "first"]), streams=STREAMS
    )
    # An empty replacement that would empty "b" (and "#v" is in the set), a
    # suffix equal to the whole surface "ab", two same-pos suffixes that
    # both license a rewrite of "aab" in either file order, and a table
    # lemma "bb#n" that the vocabulary lacks.
    @example(
        table=LemmaTable(
            [("ab", "n", "bb")], [("v", "b", ""), ("v", "ab", "b"), ("a", "ab", "b")]
        ),
        vocab={"#v", "aa#v", "ab#v", "b#a"},
        policy="all",
        streams=[["b", "aab", "ab"], ["ab"]],
    )
    @example(
        table=LemmaTable([("ab", "n", "bb")], [("v", "ab", "b"), ("v", "b", "")]),
        vocab=make_vocab("lexicon", ["aa#v", "ab#v", "b#v"]),
        policy="first",
        streams=[["aab", "ab", "b"]],
    )
    # "#"s in surfaces and in keys: only a tag after a "#" licenses a lemma.
    @example(
        table=LemmaTable(rules=[("v", "b", ""), ("n", "b", "#")]),
        vocab={"aav", "a#b#v", "##n", "#", "ab", "a#", "b#an", "a##v"},
        policy="all",
        streams=[["a", "a#b", "#", "a#", "#b", "b"]],
    )
    # Table hits, identity licensing, rule rewrites and pass-through.
    @example(
        table=MEMO_TABLE,
        vocab=MEMO_VOCAB,
        policy="all",
        streams=[["men", "ran", "runs", "abed", "aber"], ["abs", "ba", "men", "xyzzy"]],
    )
    def test_matches_unmemoized_candidates_per_stream(self, table, vocab, policy, streams):
        expected = [
            tuple(c for s in stream for c in candidates_reference(s, table, vocab, policy))
            for stream in streams
        ]
        assert doc_tokens(lemmatize_ids(streams, table, vocab=vocab, policy=policy)) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        table=TABLES, vocab=VOCABS, policy=st.sampled_from(["all", "first"]), streams=STREAMS
    )
    # Each stream's end counts as a token: with a bound of 1 or 3 the empty
    # streams fall on chunk edges, and the long stream spans several chunks.
    @example(
        table=MEMO_TABLE,
        vocab=MEMO_VOCAB,
        policy="all",
        streams=[[], ["men", "ran", "xyzzy", "runs", "abed", "men", "aber"], [], [], ["ba"], []],
    )
    @example(
        table=MEMO_TABLE,
        vocab=MEMO_VOCAB,
        policy="first",
        streams=[["men"], [], ["runs", "xyzzy", "ran", "men", "ba", "abs", "ran", "men"], []],
    )
    def test_chunk_bound_changes_nothing(self, table, vocab, policy, streams):
        def run(bound):
            with mock.patch.object(textpipe, "CHUNK_TOKENS", bound):
                token_ids, lengths, strings = lemmatize_ids(
                    streams, table, vocab=vocab, policy=policy
                )
            return token_ids.dtype, token_ids.tolist(), lengths.dtype, lengths.tolist(), strings

        expected = run(sum(map(len, streams)) + len(streams) + 1)
        assert run(1) == expected
        assert run(3) == expected

    def test_candidates_run_once_per_distinct_surface(self, monkeypatch):
        calls = []
        original = textpipe._candidate_runs

        def counting(row_of, *args):
            calls.extend(row_of)
            return original(row_of, *args)

        def no_membership_calls(self, token):
            raise AssertionError("membership checked through __contains__")

        monkeypatch.setattr(textpipe, "_candidate_runs", counting)
        # The vocabulary is read once per call, never checked key by key.
        monkeypatch.setattr(VocabularyFilter, "__contains__", no_membership_calls)
        streams = [["men", "runs", "men"], [], ["runs", "abed", "men"], ["abed"]]
        out = doc_tokens(lemmatize_ids(iter(streams), MEMO_TABLE, vocab=MEMO_VOCAB))
        assert sorted(calls) == ["abed", "men", "runs"]
        # men: table man#n, then identity men#a; runs: rule n -s.
        assert out[0] == ("man#n", "men#a", "run#n", "man#n", "men#a")
        assert out[1] == ()

    @pytest.mark.parametrize("streams", [[], [[], [], []]], ids=["no-streams", "empty-streams"])
    def test_no_tokens(self, streams):
        token_ids, lengths, strings = lemmatize_ids(streams, MEMO_TABLE, vocab=MEMO_VOCAB)
        assert token_ids.dtype == np.int32 and token_ids.size == 0 and strings == ()
        assert lengths.tolist() == [0] * len(streams)

    @pytest.mark.parametrize("policy", ["all", "first"])
    def test_surface_with_two_candidates(self, policy):
        # "run" is licensed as run#v and run#n; "men" as man#n and men#a.
        streams = [["run", "men", "run"], [], ["men"]]
        token_ids, lengths, strings = lemmatize_ids(
            streams, MEMO_TABLE, vocab=MEMO_VOCAB, policy=policy
        )
        expected = [
            [c for s in stream for c in candidates_reference(s, MEMO_TABLE, MEMO_VOCAB, policy)]
            for stream in streams
        ]
        assert len(expected[0]) == (6 if policy == "all" else 3)
        assert lengths.tolist() == [len(e) for e in expected]
        assert [strings[i] for i in token_ids.tolist()] == sum(expected, [])
        # One id per distinct string, numbered in order of first occurrence.
        assert list(strings) == list(dict.fromkeys(sum(expected, [])))

    def test_nul_characters_belong_to_the_surface(self):
        # Suffix tests on NUL-padded form ends would see "c", padded to two
        # code points, end in "\x00c", which it does not.
        table = LemmaTable(rules=[("n", "s", ""), ("n", "\x00c", "a")])
        vocab = {"b#n", "bs#n", "a#n"}
        streams = [["bs\x00", "bs", "c"]]
        expected = [c for s in streams[0] for c in candidates_reference(s, table, vocab, "all")]
        assert expected == [textpipe.UNLICENSED, "bs#n", textpipe.UNLICENSED]
        assert doc_tokens(lemmatize_ids(streams, table, vocab=vocab)) == [tuple(expected)]

    def test_long_surface_form_costs_no_wide_array(self):
        # An array of whole forms for the suffix tests would be as wide as the
        # 20,000-letter form: 501 forms x 80 kB.
        streams = [["a" * 20_000] + [chr(97 + i // 26) + chr(97 + i % 26) + "s" for i in range(500)]]
        tracemalloc.start()
        try:
            out = doc_tokens(lemmatize_ids(streams, MEMO_TABLE, vocab=MEMO_VOCAB))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000
        expected = [candidates_reference(s, MEMO_TABLE, MEMO_VOCAB, "all") for s in streams[0]]
        assert out == [tuple(c for candidates in expected for c in candidates)]

    def test_bad_policy_raised_before_reading_streams(self):
        def streams():
            raise AssertionError("streams consumed")
            yield []

        with pytest.raises(TextPipeError, match="ambiguity policy"):
            lemmatize_ids(streams(), MEMO_TABLE, vocab=MEMO_VOCAB, policy="best")
