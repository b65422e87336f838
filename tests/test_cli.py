"""End-to-end CLI behavior: subcommands, metadata headers, exit codes."""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moodlex import MoodlexError, __version__, read_lexicon, tokenize
from moodlex.cli import _config_echo, _read_score_input, build_parser, main

from dense_reference import read_score_input_reference

CORPUS_LINES = [
    {"id": "d1", "tokens": ["awe#n", "kill#v", "war#n"], "votes": {"AFRAID": 0.5, "SAD": 0.5}},
    {"id": "d2", "tokens": ["game#n", "happy#a", "happy#a"], "votes": {"HAPPY": 0.7, "AMUSED": 0.3}},
    {"id": "d3", "tokens": ["kill#v", "war#n", "war#n"], "votes": {"ANGRY": 0.4, "AFRAID": 0.3, "SAD": 0.3}},
    {
        "id": "d4",
        "tokens": ["sad#a", "awe#n"],
        "votes": {"SAD": 0.5, "INSPIRED": 0.3, "DONT_CARE": 0.1, "ANNOYED": 0.1},
    },
    {"id": "d5", "tokens": ["game#n", "awe#n"], "votes": {"INSPIRED": 0.6, "DONT_CARE": 0.2, "ANNOYED": 0.2}},
]

VOCAB = "awe#n\nkill#v\nwar#n\ngame#n\nsad#a\nhappy#a\n"


@pytest.fixture()
def workdir(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        "".join(json.dumps(rec) + "\n" for rec in CORPUS_LINES), encoding="utf-8"
    )
    (tmp_path / "vocab.txt").write_text(VOCAB, encoding="utf-8")
    return tmp_path


def build_args(workdir, output="lex.tsv", **extra):
    args = [
        "build",
        "--corpus", str(workdir / "corpus.jsonl"),
        "--vocab", str(workdir / "vocab.txt"),
        "--output", str(workdir / output),
    ]
    for flag, value in extra.items():
        args.extend([f"--{flag.replace('_', '-')}", str(value)])
    return args


def metadata_lines(path):
    return [l for l in path.read_text(encoding="utf-8").splitlines() if l.startswith("#")]


def report_rows(path):
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#") or line.startswith("section\t"):
            continue
        rows.append(tuple(line.split("\t")))
    return rows


class TestBuild:
    def test_build_writes_lexicon_with_metadata(self, workdir):
        assert main(build_args(workdir)) == 0
        lex_path = workdir / "lex.tsv"
        lines = lex_path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# command: moodlex build ")
        assert any(l.startswith("# input-corpus-sha256: ") for l in lines)
        assert any(l.startswith("# input-vocab-sha256: ") for l in lines)
        assert any(l.startswith("# tool-version: moodlex ") for l in lines)
        lex = read_lexicon(lex_path)
        assert len(lex) == 6
        np.testing.assert_allclose(lex.scores.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("first", [True, False], ids=["first-line", "later-line"])
    def test_hash_led_key_is_kept(self, workdir, first):
        """``#tag#n`` is a valid lemma#pos key: as a vocabulary line and a
        corpus token it becomes a lexicon row, which read_lexicon reads back."""
        records = [
            dict(CORPUS_LINES[0], tokens=["#tag#n", *CORPUS_LINES[0]["tokens"]]),
            *CORPUS_LINES[1:],
        ]
        (workdir / "corpus.jsonl").write_text(
            "".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8"
        )
        vocab = "#tag#n\n" + VOCAB if first else VOCAB + "#tag#n\n"
        (workdir / "vocab.txt").write_text(vocab, encoding="utf-8")
        assert main(build_args(workdir)) == 0
        lines = (workdir / "lex.tsv").read_text(encoding="utf-8").splitlines()
        assert [l.split("\t")[0] for l in lines if l.startswith("#tag#n\t")] == ["#tag#n"]
        lex = read_lexicon(workdir / "lex.tsv")
        assert lex.words[0] == "#tag#n" and len(lex) == 7
        np.testing.assert_allclose(lex.row("#tag#n").sum(), 1.0)

    def test_rerun_is_byte_identical(self, workdir):
        assert main(build_args(workdir)) == 0
        first = (workdir / "lex.tsv").read_bytes()
        assert main(build_args(workdir)) == 0
        assert (workdir / "lex.tsv").read_bytes() == first

    def test_worker_count_does_not_change_bytes(self, workdir):
        assert main(build_args(workdir, output="w1.tsv", workers=1)) == 0
        assert main(build_args(workdir, output="w4.tsv", workers=4)) == 0
        one = (workdir / "w1.tsv").read_text(encoding="utf-8")
        four = (workdir / "w4.tsv").read_text(encoding="utf-8")
        # The config echo omits --workers, so even the headers agree.
        assert one.replace("w1.tsv", "OUT") == four.replace("w4.tsv", "OUT")

    def test_three_schemes_differ_only_in_scheme_metadata(self, workdir):
        by_scheme = {}
        for weighting in ("f", "nf", "tfidf"):
            assert main(build_args(workdir, weighting=weighting)) == 0
            by_scheme[weighting] = metadata_lines(workdir / "lex.tsv")
        for a, b in (("f", "nf"), ("nf", "tfidf")):
            differing = [
                (x, y) for x, y in zip(by_scheme[a], by_scheme[b]) if x != y
            ]
            assert differing, "schemes must be visible in the metadata"
            for x, y in differing:
                assert x.startswith("# command: ") or x.startswith("# scheme: ")

    def test_planted_signal_end_to_end(self, tmp_path):
        lines = [
            {"id": "p1", "tokens": ["planted#n", "filler#v"], "votes": {"AFRAID": 1.0}},
            {"id": "p2", "tokens": ["planted#n"], "votes": {"AFRAID": 1.0}},
            {
                "id": "p3",
                "tokens": ["filler#v", "other#n"],
                "votes": {"AMUSED": 0.2, "ANGRY": 0.2, "ANNOYED": 0.2, "DONT_CARE": 0.2, "HAPPY": 0.2},
            },
            {
                "id": "p4",
                "tokens": ["other#n", "filler#v"],
                "votes": {"INSPIRED": 0.5, "SAD": 0.5},
            },
        ]
        (tmp_path / "corpus.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8"
        )
        (tmp_path / "vocab.txt").write_text("planted#n\nfiller#v\nother#n\n", encoding="utf-8")
        assert main(build_args(tmp_path, weighting="nf")) == 0
        lex = read_lexicon(tmp_path / "lex.tsv")
        row = lex.row("planted#n")
        assert row[lex.emotions.index("AFRAID")] == pytest.approx(1.0, abs=1e-9)

    def test_dump_matrix_flag(self, workdir):
        assert main(build_args(workdir, dump_matrix=str(workdir / "matrix.tsv"))) == 0
        dump = (workdir / "matrix.tsv").read_text(encoding="utf-8")
        assert dump.startswith("# command: moodlex build ")
        assert "# scheme=normalized\tn_docs=5\t" in dump
        assert "awe#n\td1\t" in dump

    def test_failed_build_leaves_no_output_files(self, workdir, caplog):
        # Six of the eight emotion columns receive no votes at all.
        lines = [
            {"id": "d1", "tokens": ["awe#n", "war#n"], "votes": {"AFRAID": 1.0}},
            {"id": "d2", "tokens": ["game#n"], "votes": {"SAD": 1.0}},
        ]
        (workdir / "corpus.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8"
        )
        before = sorted(p.name for p in workdir.iterdir())
        assert main(build_args(workdir, dump_matrix=str(workdir / "dump.tsv"))) == 1
        messages = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert any("build-lexicon: emotion column(s) with zero mass" in m for m in messages)
        assert sorted(p.name for p in workdir.iterdir()) == before

    @pytest.mark.parametrize(
        "docs, min_df",
        [
            ([["awe#n", "war#n"]], 1),
            ([["awe#n", "war#n"], ["war#n", "awe#n", "awe#n"]], 1),
            ([["awe#n", "war#n"], ["war#n", "game#n", "awe#n"], ["awe#n", "war#n"]], 2),
        ],
        ids=["one-document", "shared-terms", "after-min-df"],
    )
    def test_tfidf_removing_every_term_exits_one(self, workdir, caplog, docs, min_df):
        """When every term left is in every document, tf-idf keeps none: the
        build names that, not the empty emotion columns, and writes nothing."""
        (workdir / "corpus.jsonl").write_text(
            "".join(
                json.dumps({"id": f"d{i}", "tokens": tokens, "votes": {"AFRAID": 0.5, "SAD": 0.5}})
                + "\n"
                for i, tokens in enumerate(docs)
            ),
            encoding="utf-8",
        )
        before = sorted(p.name for p in workdir.iterdir())
        argv = build_args(workdir, weighting="tfidf", min_df=min_df, dump_matrix=workdir / "dump.tsv")
        assert main(argv) == 1
        messages = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert messages == ["build-lexicon: tf-idf removed every term: each is in every document"]
        assert sorted(p.name for p in workdir.iterdir()) == before

    def test_failed_build_keeps_earlier_outputs(self, workdir):
        (workdir / "lex.tsv").write_text("earlier lexicon\n", encoding="utf-8")
        (workdir / "dump.tsv").write_text("earlier dump\n", encoding="utf-8")
        (workdir / "vocab.txt").write_text("absent#n\n", encoding="utf-8")
        assert main(build_args(workdir, dump_matrix=str(workdir / "dump.tsv"))) == 1
        assert (workdir / "lex.tsv").read_text(encoding="utf-8") == "earlier lexicon\n"
        assert (workdir / "dump.tsv").read_text(encoding="utf-8") == "earlier dump\n"

    def test_failed_build_keeps_the_file_a_dump_link_names(self, workdir, caplog):
        # Six of the eight emotion columns receive no votes at all.
        lines = [
            {"id": "d1", "tokens": ["awe#n", "war#n"], "votes": {"AFRAID": 1.0}},
            {"id": "d2", "tokens": ["game#n"], "votes": {"SAD": 1.0}},
        ]
        (workdir / "corpus.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8"
        )
        real = workdir / "real_dump.tsv"
        real.write_text("earlier dump\n", encoding="utf-8")
        link = workdir / "dlink.tsv"
        link.symlink_to(real)
        before = sorted(p.name for p in workdir.iterdir())
        assert main(build_args(workdir, dump_matrix=link)) == 1
        messages = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert any("build-lexicon: emotion column(s) with zero mass" in m for m in messages)
        assert real.read_text(encoding="utf-8") == "earlier dump\n"
        assert link.is_symlink()
        assert sorted(p.name for p in workdir.iterdir()) == before

    def test_emotion_label_with_a_tab_exits_one(self, workdir, caplog):
        before = {p.name: p.read_bytes() for p in workdir.iterdir()}
        assert main(build_args(workdir, emotions="A\tB,C")) == 1
        messages = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert messages == [
            "configure: emotion labels must not contain a tab, CR or LF: 'A\\tB'"
        ]
        assert {p.name: p.read_bytes() for p in workdir.iterdir()} == before

    def test_output_that_is_a_directory_exits_one(self, workdir, caplog):
        (workdir / "out").mkdir()
        assert main(build_args(workdir, output="out")) == 1
        messages = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert any(m.startswith("write-lexicon: ") for m in messages)
        assert sorted(p.name for p in workdir.iterdir()) == ["corpus.jsonl", "out", "vocab.txt"]

    def test_output_naming_the_other_output_is_refused(self, workdir, caplog):
        before = {p.name: p.read_bytes() for p in workdir.iterdir()}
        same = workdir / "same.tsv"
        assert main(build_args(workdir, output="same.tsv", dump_matrix=same)) == 1
        messages = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert messages == [f"configure: --dump-matrix {same} is the same file as --output"]
        assert {p.name: p.read_bytes() for p in workdir.iterdir()} == before

    def test_output_naming_an_input_is_refused(self, workdir, caplog):
        before = {p.name: p.read_bytes() for p in workdir.iterdir()}
        corpus = workdir / "corpus.jsonl"
        assert main(build_args(workdir, output="corpus.jsonl")) == 1
        messages = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert messages == [f"configure: --output {corpus} is the same file as --corpus"]
        assert {p.name: p.read_bytes() for p in workdir.iterdir()} == before

    def test_dump_through_a_symlink_to_an_input_is_refused(self, workdir, caplog):
        link = workdir / "link.tsv"
        link.symlink_to(workdir / "vocab.txt")
        before = (workdir / "vocab.txt").read_bytes()
        assert main(build_args(workdir, dump_matrix=link)) == 1
        messages = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert messages == [f"configure: --dump-matrix {link} is the same file as --vocab"]
        assert (workdir / "vocab.txt").read_bytes() == before
        assert not (workdir / "lex.tsv").exists()

    def test_outputs_to_one_device_are_written_in_place(self, workdir):
        assert main(build_args(workdir, output=os.devnull, dump_matrix=os.devnull)) == 0

    def test_non_default_flags_reach_the_pipeline(self, workdir):
        args = build_args(
            workdir,
            weighting="nf",
            nf_length="raw",
            col_norm="max",
            ambiguity="first",
            min_df=2,
        )
        assert main(args) == 0
        got = read_lexicon(workdir / "lex.tsv")
        meta = dict(got.provenance)
        assert meta["nf-length"] == "raw"
        assert meta["col-norm"] == "max"
        assert meta["ambiguity"] == "first"
        assert meta["min-df"] == "2"

        from moodlex import VocabularyFilter, build_lexicon, load_corpus

        expected = build_lexicon(
            load_corpus(workdir / "corpus.jsonl"),
            VocabularyFilter.from_file(workdir / "vocab.txt"),
            "normalized",
            nf_length="raw",
            col_norm="max",
            ambiguity="first",
            min_df=2,
        )
        assert got.words == expected.words
        np.testing.assert_allclose(got.scores, expected.scores, atol=1e-9)

    def test_missing_corpus_exits_nonzero(self, workdir, caplog):
        args = build_args(workdir)
        args[2] = str(workdir / "absent.jsonl")
        assert main(args) == 1
        assert any("load-corpus" in r.message for r in caplog.records)

    def test_malformed_corpus_exits_nonzero(self, workdir, caplog):
        (workdir / "corpus.jsonl").write_text("{broken\n", encoding="utf-8")
        assert main(build_args(workdir)) == 1
        messages = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert any("load-corpus" in m and "malformed" in m for m in messages)

    def test_non_numeric_vote_with_min_votes_sum_exits_one(self, workdir, caplog):
        bad = {"id": "x", "tokens": ["awe#n"], "votes": {"AFRAID": "x"}}
        with open(workdir / "corpus.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(bad) + "\n")
        assert main(build_args(workdir, min_votes_sum=0.5)) == 1
        messages = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert any("load-corpus" in m and "line 6: non-numeric vote" in m for m in messages)

    @pytest.mark.parametrize("subcommand", ["build", "stats"])
    def test_unknown_emotion_label_names_its_line(self, workdir, caplog, subcommand):
        corpus = workdir / "corpus.jsonl"
        lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = json.dumps({**CORPUS_LINES[1], "votes": {"FEAR": 1.0}}) + "\n"
        corpus.write_text("".join(lines), encoding="utf-8")
        before = sorted(p.name for p in workdir.iterdir())
        argv = build_args(workdir) if subcommand == "build" else [
            "stats", "--corpus", str(corpus), "--output", str(workdir / "stats.tsv")
        ]
        assert main(argv) == 1
        messages = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert messages == [f"load-corpus: {corpus}: unknown emotion label 'FEAR' on line 2"]
        assert sorted(p.name for p in workdir.iterdir()) == before

    def test_document_the_vocabulary_empties_is_dropped_and_counted(self, workdir):
        """Token and raw-text documents in one corpus; the one whose every
        token the vocabulary drops is left out of the dump and counted in the
        lexicon. A non-ASCII key and doc id reach the dump as UTF-8."""
        records = [
            *CORPUS_LINES,
            {"id": "t6", "text": "Kills: the WAR went on, games.", "votes": {"ANGRY": 0.5, "AMUSED": 0.5}},
            {"id": "z7", "tokens": ["zzz#n"], "votes": {"SAD": 1.0}},
            {"id": "dé8", "tokens": ["café#n"], "votes": {"SAD": 1.0}},
        ]
        (workdir / "corpus.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        (workdir / "vocab.txt").write_text(VOCAB + "café#n\n", encoding="utf-8")
        dump = workdir / "dump.tsv"
        assert main(build_args(workdir, dump_matrix=dump)) == 0
        assert "# dropped-empty-docs: 1" in metadata_lines(workdir / "lex.tsv")
        lines = dump.read_text(encoding="utf-8").splitlines()
        assert any(l.startswith("# scheme=normalized\tn_docs=7\t") for l in lines)
        assert "café#n\tdé8\t1" in lines
        assert not any("\tz7\t" in l for l in lines)

    @pytest.mark.parametrize("min_df", [0, -3])
    def test_min_df_below_one_exits_one(self, workdir, caplog, min_df):
        assert main(build_args(workdir, min_df=min_df)) == 1
        messages = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert messages == [f"configure: min-df must be at least 1, got {min_df}"]
        assert not (workdir / "lex.tsv").exists()

    def test_min_df_checked_before_any_input_is_read(self, workdir, caplog):
        args = build_args(workdir, min_df=0)
        args[2] = "/nonexistent/corpus.jsonl"
        assert main(args) == 1
        messages = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert messages == ["configure: min-df must be at least 1, got 0"]

    def test_nan_min_votes_sum_exits_one(self, workdir, caplog):
        assert main(build_args(workdir, min_votes_sum="nan")) == 1
        messages = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert messages == ["configure: min vote sum must be a number, got nan"]

    def test_min_votes_sum_checked_before_any_input_is_read(self, workdir, caplog):
        args = build_args(workdir, min_votes_sum="nan")
        args[2] = "/nonexistent/corpus.jsonl"
        assert main(args) == 1
        messages = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert messages == ["configure: min vote sum must be a number, got nan"]


@pytest.fixture()
def built(workdir):
    assert main(build_args(workdir)) == 0
    gold = workdir / "gold.tsv"
    gold.write_text(
        "id\ttext\tFEAR\tJOY\tDISGUST\n"
        "h1\tWar kill awe\t0.9\t0.1\t0.3\n"
        "h2\tHappy game fun\t0.1\t0.8\t0.0\n"
        "h3\tSad awe\t0.4\t0.2\t0.1\n"
        "h4\tZebra quark\t0.3\t0.3\t0.2\n",
        encoding="utf-8",
    )
    (workdir / "labels.tsv").write_text("h1\tFEAR\nh2\tJOY\n", encoding="utf-8")
    (workdir / "mapping.tsv").write_text(
        "FEAR\tAFRAID\nJOY\tHAPPY\nDISGUST\t-\n", encoding="utf-8"
    )
    return workdir


class TestEval:
    def eval_args(self, workdir, **extra):
        args = [
            "eval",
            "--lexicon", str(workdir / "lex.tsv"),
            "--gold", str(workdir / "gold.tsv"),
            "--mapping", str(workdir / "mapping.tsv"),
            "--output", str(workdir / "report.tsv"),
        ]
        for flag, value in extra.items():
            args.extend([f"--{flag.replace('_', '-')}", str(value)])
        return args

    def test_report_structure_and_discarded(self, built):
        assert main(self.eval_args(built, labels=str(built / "labels.tsv"))) == 0
        rows = report_rows(built / "report.tsv")
        sections = {(r[0], r[1], r[2]) for r in rows}
        assert ("regression", "FEAR", "pearson_r") in sections
        assert ("regression", "JOY", "pearson_r") in sections
        assert ("classification", "FEAR", "f1") in sections
        assert ("discarded", "DISGUST", "discarded_target") in sections
        assert not any(r[0] == "regression" and r[1] == "DISGUST" for r in rows)
        coverage = {r[2]: r[3] for r in rows if r[0] == "coverage"}
        assert float(coverage["mean_headline_coverage"]) > 0
        assert coverage["uncovered_headlines"] == "1"  # h4 covers nothing

    def test_values_match_library_path(self, built):
        from moodlex import EmotionMapping, evaluate_all, load_gold, load_labels

        assert main(self.eval_args(built, labels=str(built / "labels.tsv"))) == 0
        rows = report_rows(built / "report.tsv")
        lex = read_lexicon(built / "lex.tsv")
        gold = load_labels(built / "labels.tsv", load_gold(built / "gold.tsv", lex))
        mapping = EmotionMapping.from_file(built / "mapping.tsv")
        report = evaluate_all(gold, mapping)
        for row in rows:
            if row[0] == "regression":
                assert float(row[3]) == pytest.approx(report.regression[row[1]], abs=1e-9)
            if row[0] == "classification" and row[2] == "f1":
                assert float(row[3]) == pytest.approx(
                    report.classification[row[1]].f1, abs=1e-9
                )

    def test_identity_mapping_with_matching_emotions(self, built):
        gold = built / "gold_identity.tsv"
        gold.write_text(
            "id\ttext\tAFRAID\tHAPPY\n"
            "h1\tWar kill awe\t0.9\t0.1\n"
            "h2\tHappy game\t0.1\t0.8\n"
            "h3\tSad awe\t0.4\t0.2\n",
            encoding="utf-8",
        )
        args = [
            "eval",
            "--lexicon", str(built / "lex.tsv"),
            "--gold", str(gold),
            "--output", str(built / "report2.tsv"),
        ]
        assert main(args) == 0
        rows = report_rows(built / "report2.tsv")
        assert not any(r[0] == "discarded" for r in rows)
        assert {r[1] for r in rows if r[0] == "regression"} == {"AFRAID", "HAPPY"}

    def test_lower_case_lexicon_emotions_give_the_same_report(self, built):
        """Lexicon emotion names are read stripped and upper-cased, as the
        gold, mapping and label names are."""
        text = (built / "lex.tsv").read_text(encoding="utf-8")
        header = next(line for line in text.split("\n") if line.startswith("Lemma#PoS\t"))
        lower = text.replace(header, "Lemma#PoS" + header[len("Lemma#PoS"):].lower())
        (built / "lower.tsv").write_text(lower, encoding="utf-8")
        labels = str(built / "labels.tsv")
        assert main(self.eval_args(built, labels=labels)) == 0
        upper = report_rows(built / "report.tsv")
        args = self.eval_args(built, labels=labels)
        args[2] = str(built / "lower.tsv")
        assert main(args) == 0
        assert report_rows(built / "report.tsv") == upper

    def test_report_rerun_byte_identical(self, built):
        args = self.eval_args(built)
        assert main(args) == 0
        first = (built / "report.tsv").read_bytes()
        assert main(args) == 0
        assert (built / "report.tsv").read_bytes() == first

    def test_classification_requires_labels_flag(self, built):
        assert main(self.eval_args(built)) == 0
        rows = report_rows(built / "report.tsv")
        assert not any(r[0] == "classification" for r in rows)

    def test_malformed_gold_exits_nonzero(self, built, caplog):
        (built / "gold.tsv").write_text("garbage\n", encoding="utf-8")
        assert main(self.eval_args(built)) == 1
        assert any("load-gold" in r.message for r in caplog.records)

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_exits_one(self, built, caplog, threshold):
        args = self.eval_args(built, labels=built / "labels.tsv", threshold=threshold)
        assert main(args) == 1
        messages = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert messages == [f"configure: threshold must be finite, got {threshold}"]

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_exits_one_without_labels(self, built, caplog, threshold):
        args = self.eval_args(built, threshold=threshold)
        args[2] = "/nonexistent/lex.tsv"  # checked before any input is read
        assert main(args) == 1
        messages = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert messages == [f"configure: threshold must be finite, got {threshold}"]
        assert not (built / "report.tsv").exists()

    def test_skip_with_no_covered_headline_exits_one(self, built, caplog):
        (built / "gold.tsv").write_text(
            "id\ttext\tFEAR\tJOY\tDISGUST\n"
            "h1\tZebra quark\t0.3\t0.3\t0.2\n"
            "h2\tNothing known\t0.5\t0.1\t0.4\n",
            encoding="utf-8",
        )
        assert main(self.eval_args(built, uncovered="skip")) == 1
        messages = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert messages == ["evaluate: no headlines left to evaluate"]
        assert not (built / "report.tsv").exists()

    def test_unmappable_source_exits_nonzero(self, built, caplog):
        (built / "mapping.tsv").write_text("FEAR\tTERROR\n", encoding="utf-8")
        assert main(self.eval_args(built)) == 1
        assert any("evaluate" in r.message for r in caplog.records)

    def test_gold_and_label_line_order_does_not_change_the_report(self, built):
        words = ["war", "kill", "awe", "happy", "game", "sad", "zebra"]
        rng = np.random.default_rng(11)
        gold_lines, label_lines = [], []
        for i in range(1, 16):
            text = " ".join(rng.choice(words, size=int(rng.integers(1, 5))))
            fear, joy, disgust = (f"{v:.3f}" for v in rng.random(3))
            gold_lines.append(f"h{i}\t{text}\t{fear}\t{joy}\t{disgust}\n")
            if i % 3:
                label_lines.append(f"h{i}\t{'FEAR' if i % 2 else 'JOY,FEAR'}\n")
        orders = {
            "forward": lambda lines: lines,
            "reversed": lambda lines: lines[::-1],
            "shuffled": lambda lines: [lines[i] for i in rng.permutation(len(lines))],
        }
        reports = {}
        for name, order in orders.items():
            gold = built / f"gold_{name}.tsv"
            header = "id\ttext\tFEAR\tJOY\tDISGUST\n"
            gold.write_text(header + "".join(order(gold_lines)), encoding="utf-8")
            labels = built / f"labels_{name}.tsv"
            labels.write_text("".join(order(label_lines)), encoding="utf-8")
            args = self.eval_args(built, labels=str(labels))
            args[args.index("--gold") + 1] = str(gold)
            assert main(args) == 0
            reports[name] = report_rows(built / "report.tsv")
        # Regression for FEAR and JOY, three classification metrics each,
        # three coverage lines, and DISGUST discarded.
        assert len(reports["forward"]) == 2 + 2 * 3 + 3 + 1
        assert reports["reversed"] == reports["forward"]
        assert reports["shuffled"] == reports["forward"]


class TestScore:
    def score_args(self, workdir, name="headlines.tsv"):
        return [
            "score",
            "--lexicon", str(workdir / "lex.tsv"),
            "--input", str(workdir / name),
            "--output", str(workdir / "scores.tsv"),
        ]

    def test_fully_covered_line_sums_to_one(self, built):
        (built / "headlines.tsv").write_text("h1\tAwe kill war\n", encoding="utf-8")
        assert main(self.score_args(built)) == 0
        lines = [
            l
            for l in (built / "scores.tsv").read_text(encoding="utf-8").splitlines()
            if not l.startswith("#")
        ]
        assert lines[0].startswith("id\t")
        fields = lines[1].split("\t")
        assert fields[0] == "h1"
        scores = [float(v) for v in fields[1:9]]
        assert abs(sum(scores) - 1.0) <= 1e-9
        assert fields[9] == "3" and fields[10] == "3"

    def test_empty_input_header_only_exit_zero(self, built):
        (built / "headlines.tsv").write_text("", encoding="utf-8")
        assert main(self.score_args(built)) == 0
        lines = (built / "scores.tsv").read_text(encoding="utf-8").splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data == ["id\t" + "\t".join(read_lexicon(built / "lex.tsv").emotions) + "\tcovered\ttotal"]

    def test_headlines_without_letters_score_zero(self, built):
        # No headline yields a surface form, so none yields a candidate.
        texts = ["42", "", "-- 1,000 _ 3.5!", "\u00a0\u2003 ¿?"]
        assert all(not tokenize(t) for t in texts)
        (built / "headlines.tsv").write_text(
            "".join(f"h{i}\t{t}\n" for i, t in enumerate(texts)), encoding="utf-8"
        )
        assert main(self.score_args(built)) == 0
        rows = [
            l.split("\t")
            for l in (built / "scores.tsv").read_text(encoding="utf-8").splitlines()
            if not l.startswith("#") and not l.startswith("id\t")
        ]
        assert [r[0] for r in rows] == [f"h{i}" for i in range(len(texts))]
        assert all(r[1:] == ["0"] * 8 + ["0", "0"] for r in rows)

    def test_ten_line_fixture_matches_per_line_oracle(self, built):
        texts = [
            "awe", "kill war", "happy game", "sad awe kill", "war war war",
            "game", "unknown words only", "awe happy", "kill", "sad",
        ]
        (built / "headlines.tsv").write_text(
            "".join(f"h{i}\t{t}\n" for i, t in enumerate(texts)), encoding="utf-8"
        )
        assert main(self.score_args(built)) == 0
        lex = read_lexicon(built / "lex.tsv")
        rows = [
            l
            for l in (built / "scores.tsv").read_text(encoding="utf-8").splitlines()
            if not l.startswith("#") and not l.startswith("id\t")
        ]
        assert len(rows) == 10
        from moodlex import LemmaTable, VocabularyFilter, lemmatize_ids, score_ids

        vocab = VocabularyFilter(lex.words)
        for row, text in zip(rows, texts):
            fields = row.split("\t")
            token_ids, lengths, strings = lemmatize_ids([tokenize(text)], LemmaTable(), vocab=vocab)
            expected_vec, expected_covered = score_ids(token_ids, lengths, strings, lex)
            got = np.asarray([float(v) for v in fields[1:9]])
            np.testing.assert_allclose(got, expected_vec[0], atol=1e-9)
            assert int(fields[9]) == expected_covered[0]
            assert int(fields[10]) == lengths[0]

    def test_missing_lexicon_exits_nonzero(self, built, caplog):
        (built / "headlines.tsv").write_text("h1\tx\n", encoding="utf-8")
        args = self.score_args(built)
        args[2] = str(built / "absent.tsv")
        assert main(args) == 1
        assert any("read-lexicon" in r.message for r in caplog.records)


SCORE_LINES = st.sampled_from(
    ["h1\tKill war", "h2\t", "\tno id", "h3", "h4\ta\tb", "", "  ", "# c", "#\tx", " #\tx",
     "h5\tCafé\x0bDÉJÀ"]
) | st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


def read_or_error(read, path):
    try:
        return read(path)
    except MoodlexError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(SCORE_LINES, max_size=6),
    ends=st.lists(st.sampled_from(["\n", "\r\n", ""]), min_size=6, max_size=6),
)
@example(lines=["h1\ta", "h2\ta\tb", "h3"], ends=["\n"] * 6)
def test_score_input_matches_per_line_reference(tmp_path_factory, lines, ends):
    """The whole-file score input reader gives the rows, or the error text,
    of one that reads a line at a time."""
    path = tmp_path_factory.getbasetemp() / "score-input.tsv"
    path.write_bytes("".join(map("".join, zip(lines, ends))).encode("utf-8"))
    assert read_or_error(_read_score_input, path) == read_or_error(
        read_score_input_reference, path
    )


class TestBadInput:
    """Bad input bytes end in a stage error and exit code 1, never a traceback."""

    COMMANDS = {
        "build": [
            "build", "--corpus", "corpus.jsonl", "--vocab", "vocab.txt",
            "--lemma-table", "lemmas.tsv", "--output", "new.tsv",
        ],
        "stats": ["stats", "--corpus", "corpus.jsonl"],
        "score": [
            "score", "--lexicon", "lex.tsv", "--input", "headlines.tsv",
            "--lemma-table", "lemmas.tsv", "--output", "out.tsv",
        ],
        "eval": [
            "eval", "--lexicon", "lex.tsv", "--gold", "gold.tsv", "--labels", "labels.tsv",
            "--mapping", "mapping.tsv", "--lemma-table", "lemmas.tsv", "--output", "out.tsv",
        ],
    }

    @pytest.mark.parametrize(
        "subcommand, name, stage",
        [
            ("build", "corpus.jsonl", "load-corpus"),
            ("build", "vocab.txt", "load-vocabulary"),
            ("build", "lemmas.tsv", "load-lemma-table"),
            ("stats", "corpus.jsonl", "load-corpus"),
            ("score", "lex.tsv", "read-lexicon"),
            ("score", "lemmas.tsv", "load-lemma-table"),
            ("score", "headlines.tsv", "read-input"),
            ("eval", "lex.tsv", "read-lexicon"),
            ("eval", "gold.tsv", "load-gold"),
            ("eval", "labels.tsv", "load-labels"),
            ("eval", "mapping.tsv", "load-mapping"),
        ],
    )
    def test_non_utf8_byte_in_any_input_file(
        self, built, monkeypatch, caplog, subcommand, name, stage
    ):
        monkeypatch.chdir(built)
        Path("lemmas.tsv").write_text("killed\tv\tkill\n", encoding="utf-8")
        Path("headlines.tsv").write_text("h1\tawe\n", encoding="utf-8")
        assert main(self.COMMANDS[subcommand]) == 0
        with open(name, "ab") as fh:
            fh.write(b"caf\xe9\n")  # Latin-1, not UTF-8
        assert main(self.COMMANDS[subcommand]) == 1
        messages = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert any(m.startswith(f"{stage}: 'utf-8' codec can't decode") for m in messages)

    @pytest.mark.parametrize(
        "line, message",
        [
            (b"\xff\n", "load-corpus: 'utf-8' codec can't decode byte 0xff"),
            (b"[" * 100_000 + b"\n", "line 6: invalid JSON (nesting too deep)"),
            (
                json.dumps({"id": "d\ud800", "tokens": ["awe#n"], "votes": {"SAD": 1}}).encode()
                + b"\n",
                "line 6: 'id' must be encodable as UTF-8",
            ),
        ],
        ids=["non-utf8", "deep-nesting", "lone-surrogate-id"],
    )
    def test_build_reports_stage_error_without_traceback(self, workdir, line, message):
        with open(workdir / "corpus.jsonl", "ab") as fh:
            fh.write(line)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        args = build_args(workdir, dump_matrix=str(workdir / "dump.tsv"))
        proc = subprocess.run(
            [sys.executable, "-m", "moodlex.cli", *args],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert "ERROR load-corpus: " in proc.stderr and message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert sorted(p.name for p in workdir.iterdir()) == ["corpus.jsonl", "vocab.txt"]

    @pytest.mark.parametrize(
        "subcommand, name, old, new, where",
        [
            ("score", "lex.tsv", "\tSAD\n", "\tSAD\t\n", "read-lexicon: lex.tsv:13"),
            ("eval", "gold.tsv", "\tDISGUST\n", "\tDISGUST\t\n", "load-gold: gold.tsv:1"),
            ("eval", "mapping.tsv", "\nJOY\t", "\n\t", "load-mapping: mapping.tsv:2"),
        ],
        ids=["lexicon-header", "gold-header", "mapping-target"],
    )
    def test_empty_emotion_name_names_its_line(
        self, built, monkeypatch, caplog, subcommand, name, old, new, where
    ):
        """An emotion name left empty by a trailing tab in a header, or by a
        mapping row that starts with a tab, is refused at its line."""
        monkeypatch.chdir(built)
        Path("lemmas.tsv").write_text("killed\tv\tkill\n", encoding="utf-8")
        Path("headlines.tsv").write_text("h1\tawe\n", encoding="utf-8")
        text = Path(name).read_text(encoding="utf-8")
        assert text.count(old) == 1
        Path(name).write_text(text.replace(old, new), encoding="utf-8")
        assert main(self.COMMANDS[subcommand]) == 1
        messages = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert messages == [f"{where}: empty emotion name"]
        assert not Path("out.tsv").exists()

    @pytest.mark.parametrize(
        "subcommand, name, stage, lineno",
        [
            ("build", "corpus.jsonl", "load-corpus", 3),
            ("score", "lex.tsv", "read-lexicon", 12),
            ("eval", "gold.tsv", "load-gold", 4),
        ],
    )
    def test_decode_error_names_file_line_and_column(
        self, built, monkeypatch, caplog, subcommand, name, stage, lineno
    ):
        monkeypatch.chdir(built)
        Path("lemmas.tsv").write_text("killed\tv\tkill\n", encoding="utf-8")
        Path("headlines.tsv").write_text("h1\tawe\n", encoding="utf-8")
        lines = Path(name).read_bytes().splitlines(keepends=True)
        assert len(lines) > lineno
        column = len(lines[lineno - 1]) - 1  # the byte just before the newline
        lines[lineno - 1] = lines[lineno - 1][: column - 1] + b"\xe9" + lines[lineno - 1][column - 1 :]
        Path(name).write_bytes(b"".join(lines))
        assert main(self.COMMANDS[subcommand]) == 1
        messages = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert len(messages) == 1
        assert messages[0].startswith(f"{stage}: 'utf-8' codec can't decode byte 0xe9 ")
        assert messages[0].endswith(f"({name}, line {lineno}, column {column})")

    # A pipe cannot be read a second time, so its bad line is found in what
    # its reader kept. The score input is read whole; the corpus in chunks,
    # and 2,000 lines of it (with CRLF line breaks) take many of them.
    @pytest.mark.parametrize("subcommand", ["score", "build"])
    def test_decode_error_in_a_pipe_names_line_and_column(self, built, subcommand):
        if subcommand == "score":
            lines, lineno, column = [b"id\ttext\n", b"h1\tbad \xff byte\n"], 2, 8
            argv = ["score", "--lexicon", "lex.tsv", "--input", "/dev/stdin"]
        else:
            records = [{**CORPUS_LINES[0], "id": f"d{i}"} for i in range(2000)]
            lines = [json.dumps(record).encode() + b"\r\n" for record in records]
            lineno, column = 1999, len(lines[1998]) - 3  # just before the closing brace
            lines[1998] = lines[1998][: column - 1] + b"\xff" + lines[1998][column - 1 :]
            argv = ["build", "--corpus", "/dev/stdin", "--vocab", "vocab.txt"]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "moodlex.cli", *argv, "--output", "never.tsv"],
            cwd=built, env=env, input=b"".join(lines), capture_output=True, timeout=120,
        )
        assert proc.returncode == 1
        message = proc.stderr.decode().strip()
        assert "'utf-8' codec can't decode byte 0xff " in message
        assert message.endswith(f"(/dev/stdin, line {lineno}, column {column})")
        assert not (built / "never.tsv").exists()


@pytest.mark.parametrize(
    "value, echoed", [(0.123456789, None), (0.99999999, None), (1e-7, "1e-07"), (2.0, "2")]
)
@pytest.mark.parametrize(
    "argv, attr",
    [
        (["eval", "--lexicon", "l.tsv", "--gold", "g.tsv", "--threshold"], "threshold"),
        (
            ["build", "--corpus", "c", "--vocab", "v", "--output", "o", "--min-votes-sum"],
            "min_votes_sum",
        ),
    ],
)
def test_float_flags_echo_back_exactly(argv, attr, value, echoed):
    """The echoed command parses back to the same float; the short form is
    kept wherever it is exact, so existing metadata lines do not change."""
    parser = build_parser()
    args = parser.parse_args([*argv, repr(value)])
    echo = _config_echo(args.subcommand, args).split()
    assert echo[:2] == ["moodlex", args.subcommand]
    again = parser.parse_args(echo[1:])
    assert getattr(again, attr) == value
    flag = echo[echo.index("--" + attr.replace("_", "-")) + 1]
    assert flag == (echoed or repr(value))


@pytest.mark.parametrize("path", ["my dir/lex.tsv", "it's \"here\".tsv"])
def test_paths_echo_back_through_a_shell_split(path):
    """A value holding a space or a quote is quoted in the echo, so the
    command line splits and parses back to the same values."""
    parser = build_parser()
    args = parser.parse_args(
        ["build", "--corpus", path, "--vocab", "v.txt", "--output", path, "--dump-matrix", path]
    )
    echo = shlex.split(_config_echo("build", args))
    assert echo[:2] == ["moodlex", "build"]
    again = parser.parse_args(echo[1:])
    assert vars(again) == vars(args)


@pytest.mark.parametrize("value", ["we\nird", "we\rird"], ids=["LF", "CR"])
@pytest.mark.parametrize("option", ["corpus", "emotions"])
def test_option_value_with_a_line_break_is_refused(workdir, caplog, option, value):
    """The ``# command:`` line echoes every option value: one holding a line
    break would split it, so it is refused before any input is read."""
    if option == "corpus":
        value = str(workdir / f"{value}.jsonl")
        (workdir / "corpus.jsonl").rename(value)
    before = {p.name: p.read_bytes() for p in workdir.iterdir()}
    args = build_args(workdir, emotions="AFRAID,SAD")
    args[args.index(f"--{option}") + 1] = value
    assert main(args) == 1
    messages = [r.message for r in caplog.records if r.levelname == "ERROR"]
    assert messages == [f"configure: --{option} {value!r} holds a line break"]
    assert {p.name: p.read_bytes() for p in workdir.iterdir()} == before


@pytest.mark.parametrize(
    "subcommand, files",
    [
        ("build", ["corpus", "vocab", "lemma-table"]),
        ("eval", ["lexicon", "gold", "labels", "mapping", "lemma-table"]),
        ("score", ["lexicon", "input", "lemma-table"]),
        ("stats", ["corpus"]),
    ],
)
def test_metadata_hashes_every_input_file_given(built, subcommand, files):
    """Every file option given is hashed, in parser order whatever the
    command-line order, and nothing else is."""
    (built / "lemmas.tsv").write_text("went\tv\tgo\n[rules]\nv\ts\t\n", encoding="utf-8")
    (built / "headlines.tsv").write_text("h1\tKill war\n", encoding="utf-8")
    paths = {
        "corpus": "corpus.jsonl", "vocab": "vocab.txt", "lemma-table": "lemmas.tsv",
        "lexicon": "lex.tsv", "gold": "gold.tsv", "labels": "labels.tsv",
        "mapping": "mapping.tsv", "input": "headlines.tsv",
    }
    argv = [subcommand, "--output", str(built / "out.tsv")]
    for name in reversed(files):
        argv += [f"--{name}", str(built / paths[name])]
    assert main(argv) == 0
    hashed = [
        line[2:].split(": ")
        for line in metadata_lines(built / "out.tsv")
        if line.startswith("# input-")
    ]
    assert hashed == [
        [f"input-{name}-sha256", hashlib.sha256((built / paths[name]).read_bytes()).hexdigest()]
        for name in files
    ]


@pytest.mark.parametrize(
    "subcommand, files",
    [
        ("eval", {"lexicon": "lex.tsv", "gold": "gold.tsv", "mapping": "mapping.tsv"}),
        ("score", {"lexicon": "lex.tsv", "input": "headlines.tsv"}),
        ("stats", {"corpus": "corpus.jsonl"}),
    ],
)
def test_output_naming_an_input_is_refused_before_reading(built, caplog, subcommand, files):
    """Every subcommand refuses an output that is its last input file, in
    the configure stage: the other inputs are missing and never read."""
    (built / "headlines.tsv").write_text("h1\tKill war\n", encoding="utf-8")
    *missing, (last, name) = files.items()
    argv = [subcommand, "--output", str(built / name)]
    for flag, _ in missing:
        argv += [f"--{flag}", str(built / "missing" / flag)]
    argv += [f"--{last}", str(built / name)]
    before = {p.name: p.read_bytes() for p in built.iterdir() if p.is_file()}
    assert main(argv) == 1
    messages = [r.message for r in caplog.records if r.levelname == "ERROR"]
    assert messages == [f"configure: --output {built / name} is the same file as --{last}"]
    assert {p.name: p.read_bytes() for p in built.iterdir() if p.is_file()} == before


def test_every_output_opens_with_its_metadata_block(built):
    """The command, the input hashes in parser order, the lexicon's build
    provenance, then the tool version; the dump's own header follows it."""
    (built / "headlines.tsv").write_text("h1\tKill war\n", encoding="utf-8")
    assert main(build_args(built, output="lex2.tsv", dump_matrix=built / "dump.tsv")) == 0
    lexicon, gold = str(built / "lex.tsv"), str(built / "gold.tsv")
    assert main(["score", "--lexicon", lexicon, "--input", str(built / "headlines.tsv"),
                 "--output", str(built / "scores.tsv")]) == 0
    assert main(["eval", "--lexicon", lexicon, "--gold", gold,
                 "--mapping", str(built / "mapping.tsv"), "--output", str(built / "report.tsv")]) == 0
    assert main(["stats", "--corpus", str(built / "corpus.jsonl"),
                 "--output", str(built / "stats.tsv")]) == 0
    provenance = ["scheme", "col-norm", "nf-length", "min-df", "ambiguity", "entries",
                  "dropped-zero-rows", "dropped-empty-docs"]
    expected = {
        "lex2.tsv": ["corpus", "vocab", *provenance],
        "dump.tsv": ["corpus", "vocab"],
        "scores.tsv": ["lexicon", "input"],
        "report.tsv": ["lexicon", "gold", "mapping"],
        "stats.tsv": ["corpus"],
    }
    version = f"# tool-version: moodlex {__version__}"
    for name, keys in expected.items():
        lines = (built / name).read_text(encoding="utf-8").splitlines()
        end = lines.index(version)
        assert lines[0].startswith("# command: ")
        assert [l[2:].split(": ")[0] for l in lines[1:end]] == [
            k if k in provenance else f"input-{k}-sha256" for k in keys
        ]
        after = lines[end + 1]
        assert after.startswith("# scheme=") if name == "dump.tsv" else not after.startswith("#")


def _header_only(name, text):
    """The lexicon's metadata and header, the gold header, or else (a file
    kind with no header) one comment line."""
    if name in ("lex.tsv", "gold.tsv"):
        lines = text.splitlines(keepends=True)
        return "".join(lines[: 1 + next(i for i, l in enumerate(lines) if not l.startswith("#"))])
    return "# header\n"


MALFORMED = {
    "empty": lambda name, text: "",
    "header-only": _header_only,
    "crlf": lambda name, text: text.replace("\n", "\r\n"),
    # Half of the last line, with no newline: what an interrupted writer leaves.
    "truncated": lambda name, text: text[: len(text) - 1 - len(text.splitlines()[-1]) // 2],
}

# (subcommand, file, fixture) -> the one error message; every case not listed
# succeeds. CRLF line ends always read the same as LF.
MALFORMED_ERRORS = {
    ("score", "lex.tsv", "empty"): "read-lexicon: lex.tsv: missing lexicon header",
    ("score", "lex.tsv", "header-only"): "read-lexicon: lex.tsv: lexicon has no rows",
    ("score", "lex.tsv", "truncated"):
        "read-lexicon: lex.tsv:19: expected 9 tab-separated fields, got 4",
    ("eval", "lex.tsv", "empty"): "read-lexicon: lex.tsv: missing lexicon header",
    ("eval", "lex.tsv", "header-only"): "read-lexicon: lex.tsv: lexicon has no rows",
    ("eval", "lex.tsv", "truncated"):
        "read-lexicon: lex.tsv:19: expected 9 tab-separated fields, got 4",
    ("eval", "gold.tsv", "empty"): "load-gold: gold.tsv: missing gold header",
    ("eval", "gold.tsv", "header-only"): "load-gold: gold.tsv: no gold headlines",
    ("eval", "gold.tsv", "truncated"):
        "load-gold: gold.tsv:5: expected 5 tab-separated fields, got 2",
    # A truncated labels.tsv ends in "h2<TAB>": a label field that names no emotion.
    ("eval", "labels.tsv", "truncated"):
        "load-labels: labels.tsv:2: label field names no emotion: ''",
    ("eval", "mapping.tsv", "truncated"):
        "load-mapping: mapping.tsv:3: expected 2 tab-separated fields, got 1",
}


@pytest.mark.parametrize("fixture", sorted(MALFORMED))
@pytest.mark.parametrize(
    "subcommand, name",
    [
        ("score", "lex.tsv"),
        ("score", "headlines.tsv"),
        ("eval", "lex.tsv"),
        ("eval", "gold.tsv"),
        ("eval", "labels.tsv"),
        ("eval", "mapping.tsv"),
    ],
)
def test_malformed_input_files(built, monkeypatch, caplog, subcommand, name, fixture):
    """Every file that score and eval read, emptied, cut to its header, given
    CRLF line ends or truncated: the run works, or exits 1 with one
    stage-named message (an uncaught exception would fail the test)."""
    monkeypatch.chdir(built)
    Path("lemmas.tsv").write_text("killed\tv\tkill\n", encoding="utf-8")
    Path("headlines.tsv").write_text("h1\tAwe kill war\nh2\tHappy game\n", encoding="utf-8")
    command = TestBadInput.COMMANDS[subcommand]
    assert main(command) == 0
    before = [l for l in Path("out.tsv").read_text(encoding="utf-8").splitlines() if l[:1] != "#"]
    text = Path(name).read_text(encoding="utf-8")
    Path(name).write_bytes(MALFORMED[fixture](name, text).encode("utf-8"))
    caplog.clear()
    code = main(command)
    messages = [r.message for r in caplog.records if r.levelname == "ERROR"]
    error = MALFORMED_ERRORS.get((subcommand, name, fixture))
    if error is None:
        assert (code, messages) == (0, [])
    else:
        assert (code, messages) == (1, [error])
    if fixture == "crlf":
        after = Path("out.tsv").read_text(encoding="utf-8").splitlines()
        assert [l for l in after if l[:1] != "#"] == before


# (file, fixture) -> the one error message of a build; every case not listed
# succeeds, and CRLF line ends build the same lexicon and dump as LF. Every
# "header" line is "# header", a comment in each of these files but the corpus.
MALFORMED_BUILD_ERRORS = {
    ("corpus.jsonl", "empty"): "build-lexicon: corpus has no non-empty documents",
    ("corpus.jsonl", "header-only"):
        "load-corpus: corpus.jsonl: 1 malformed line(s): line 1: invalid JSON (Expecting value)",
    ("corpus.jsonl", "truncated"):
        "load-corpus: corpus.jsonl: 1 malformed line(s): line 5: invalid JSON (Expecting value)",
    ("vocab.txt", "empty"): "load-vocabulary: vocab.txt: vocabulary file contains no entries",
    ("vocab.txt", "header-only"): "load-vocabulary: vocab.txt: vocabulary file contains no entries",
    ("vocab.txt", "truncated"): "load-vocabulary: vocab.txt:6: not a lemma#pos token: 'happ'",
    ("lemmas.tsv", "truncated"):
        "load-lemma-table: lemmas.tsv:1: expected 3 tab-separated fields, got 2",
}


@pytest.mark.parametrize("fixture", sorted(MALFORMED))
@pytest.mark.parametrize("name", ["corpus.jsonl", "vocab.txt", "lemmas.tsv"])
def test_malformed_build_input_files(workdir, monkeypatch, caplog, name, fixture):
    """Every file that build reads, emptied, cut to a comment line, given
    CRLF line ends or truncated: the build works, or exits 1 with one
    stage-named message and leaves no output file behind."""
    monkeypatch.chdir(workdir)
    Path("lemmas.tsv").write_text("killed\tv\tkill\n", encoding="utf-8")
    command = TestBadInput.COMMANDS["build"] + ["--dump-matrix", "dump.tsv"]
    assert main(command) == 0
    before = [
        [l for l in Path(out).read_text(encoding="utf-8").splitlines() if l[:1] != "#"]
        for out in ("new.tsv", "dump.tsv")
    ]
    Path("new.tsv").unlink()
    Path("dump.tsv").unlink()
    text = Path(name).read_text(encoding="utf-8")
    Path(name).write_bytes(MALFORMED[fixture](name, text).encode("utf-8"))
    caplog.clear()
    code = main(command)
    messages = [r.message for r in caplog.records if r.levelname == "ERROR"]
    error = MALFORMED_BUILD_ERRORS.get((name, fixture))
    if error is None:
        assert (code, messages) == (0, [])
    else:
        assert (code, messages) == (1, [error])
        assert sorted(p.name for p in Path(".").iterdir()) == [
            "corpus.jsonl", "lemmas.tsv", "vocab.txt"
        ]
    if fixture == "crlf":
        after = [
            [l for l in Path(out).read_text(encoding="utf-8").splitlines() if l[:1] != "#"]
            for out in ("new.tsv", "dump.tsv")
        ]
        assert after == before


MODULES_PROBE = (
    "import sys\n"
    "import moodlex\n"
    "if sys.argv[1:]:\n"
    "    import moodlex.cli\n"
    "    assert moodlex.cli.main(sys.argv[1:]) == 0\n"
    "print(*sorted(m for m in sys.modules\n"
    "             if m.split('.')[0] in ('json', 'moodlex', 'scipy') or m == 'numpy.ma'))\n"
)

SCORE_MODULES = {
    "moodlex", "moodlex.cli", "moodlex.errors", "moodlex.sink", "moodlex.lexicon", "moodlex.textpipe"
}


@pytest.mark.parametrize("subcommand", ["import", "score", "eval", "build", "stats"])
def test_no_subcommand_loads_scipy(built, subcommand):
    """No subcommand imports scipy, and each loads only the moodlex modules it
    runs: ``score`` loads neither ``evaluate`` nor the corpus and matrix
    modules, nor ``json``; ``build`` and ``stats`` never load ``evaluate``.
    ``build`` with the matrix dump, ``score`` and ``eval`` never load
    ``numpy.ma``, which a plain ``np.unique`` imports."""
    (built / "headlines.tsv").write_text("h1\tawe\nh2\tkill war\n", encoding="utf-8")
    argv = {
        "import": [],
        "score": ["score", "--lexicon", "lex.tsv", "--input", "headlines.tsv", "--output", "out.tsv"],
        "eval": [
            "eval", "--lexicon", "lex.tsv", "--gold", "gold.tsv", "--labels", "labels.tsv",
            "--mapping", "mapping.tsv", "--output", "out.tsv",
        ],
        "build": build_args(built, output="again.tsv", dump_matrix="dump.tsv", min_df=2),
        "stats": ["stats", "--corpus", "corpus.jsonl"],
    }[subcommand]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", MODULES_PROBE, *argv],
        capture_output=True, text=True, env=env, cwd=built, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert not any(m.split(".")[0] == "scipy" for m in loaded)
    exact = {
        "import": {"moodlex"},
        "score": SCORE_MODULES,
        "eval": SCORE_MODULES | {"moodlex.evaluate"},
    }
    absent = {
        "build": {"moodlex.evaluate", "numpy.ma"},
        "stats": {"moodlex.evaluate", "moodlex.lexicon", "moodlex.matrix"},
    }
    if subcommand in exact:
        assert loaded == exact[subcommand]
    else:
        assert not loaded & absent[subcommand], loaded


class TestCommandExit:
    """``python -m moodlex.cli`` ends through ``os._exit`` once its outputs are
    committed: standard output reaches a pipe whole, and a reader that goes
    away fails the run as any failed write does."""

    SCORE = ["score", "--lexicon", "lex.tsv", "--input", "many.tsv"]

    @staticmethod
    def command(args, workdir, n_headlines=2500):
        """Start the command in ``workdir``, with ``many.tsv`` holding
        ``n_headlines`` headlines."""
        lines = (f"h{i}\tWar kill awe, happy game\n" for i in range(n_headlines))
        (workdir / "many.tsv").write_text("".join(lines), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        env.pop("PYTHONUNBUFFERED", None)
        return subprocess.Popen(
            [sys.executable, "-m", "moodlex.cli", *args], cwd=workdir, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )

    # Two lines stay in the stream's buffer until flushed; 2,500 lines are
    # more than a 64 KiB pipe holds, so the writer waits on the reader.
    @pytest.mark.parametrize("n_headlines", [2, 2500])
    def test_stdout_through_a_pipe_arrives_whole(self, built, n_headlines):
        proc = self.command(self.SCORE, built, n_headlines)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        if n_headlines > 2:
            assert len(out) > 1 << 16
        to_file = self.command([*self.SCORE, "--output", "scores.tsv"], built, n_headlines)
        to_file.communicate(timeout=120)
        assert to_file.returncode == 0
        data = [line for line in out.splitlines() if not line.startswith("#")]
        assert len(data) == 1 + n_headlines
        assert data == [
            line for line in (built / "scores.tsv").read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")
        ]

    def test_reader_closing_the_pipe_fails_the_write(self, built):
        with self.command(self.SCORE, built) as proc:
            proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 1
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR write-scores: "), err

    def test_stdout_redirected_to_a_file_gets_the_same_bytes(self, built):
        proc = self.command([*self.SCORE, "--output", "scores.tsv"], built)
        proc.communicate(timeout=120)
        assert proc.returncode == 0
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        with open(built / "redirected.tsv", "w", encoding="utf-8") as out:
            subprocess.run(
                [sys.executable, "-m", "moodlex.cli", *self.SCORE, "--output", "/dev/stdout"],
                cwd=built, env=env, stdout=out, check=True, timeout=120,
            )
        lines = (built / "redirected.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        expected = (built / "scores.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[0] == expected[0].replace("scores.tsv", "/dev/stdout")
        assert lines[1:] == expected[1:]

    # A redirect to a file with no name (an anonymous temporary file): the
    # scores reach that file, and no stray file appears in its directory.
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc fd links")
    def test_stdout_redirected_to_a_file_with_no_name_gets_the_scores(self, built):
        proc = self.command([*self.SCORE, "--output", "scores.tsv"], built)
        proc.communicate(timeout=120)
        assert proc.returncode == 0
        before = sorted(built.iterdir())
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        with tempfile.TemporaryFile(dir=built) as out:
            subprocess.run(
                [sys.executable, "-m", "moodlex.cli", *self.SCORE, "--output", "/dev/stdout"],
                cwd=built, env=env, stdout=out, check=True, timeout=120,
            )
            out.seek(0)
            lines = out.read().decode("utf-8").splitlines(keepends=True)
        expected = (built / "scores.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[0] == expected[0].replace("scores.tsv", "/dev/stdout")
        assert lines[1:] == expected[1:]
        assert sorted(built.iterdir()) == before

    # 2,500 headlines are more than a pipe holds at once: the input is hashed
    # across many reads, and none of it is read a second time.
    @pytest.mark.parametrize("n_headlines", [2, 2500])
    def test_input_piped_to_stdin_is_hashed_as_read(self, built, n_headlines):
        proc = self.command([*self.SCORE, "--output", "scores.tsv"], built, n_headlines)
        proc.communicate(timeout=120)
        assert proc.returncode == 0
        piped = ["score", "--lexicon", "lex.tsv", "--input", "/dev/stdin", "--output", "piped.tsv"]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        data = (built / "many.tsv").read_bytes()
        subprocess.run([sys.executable, "-m", "moodlex.cli", *piped], cwd=built, env=env,
                       input=data, check=True, timeout=120)
        lines = (built / "piped.tsv").read_text(encoding="utf-8").splitlines()
        expected = (built / "scores.tsv").read_text(encoding="utf-8").splitlines()
        assert f"# input-input-sha256: {hashlib.sha256(data).hexdigest()}" in lines
        assert lines[1:] == expected[1:]

    def test_usage_error_exits_two(self, workdir):
        proc = self.command(["score", "--input", "many.tsv"], workdir)
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 2
        assert "the following arguments are required: --lexicon" in err


def _python(code, **env_changes):
    """Run ``code`` in a fresh interpreter on this source tree; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(env_changes)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc")
def test_command_line_pins_one_blas_thread():
    """Importing the command line before numpy leaves numpy's BLAS with no
    worker threads: the process has exactly one thread."""
    probe = "import os, moodlex.cli, numpy; print(len(os.listdir('/proc/self/task')))"
    assert _python(probe) == ["1"]


def test_user_blas_thread_setting_wins():
    probe = "import os, moodlex.cli, numpy; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _python(probe, OPENBLAS_NUM_THREADS="2") == ["2"]


def test_package_import_is_lazy_and_every_public_name_resolves():
    """``import moodlex`` loads no numpy and leaves the environment alone;
    each name in ``__all__`` then loads its module on first use."""
    probe = (
        "import os, sys, moodlex\n"
        "print('numpy' in sys.modules, 'OPENBLAS_NUM_THREADS' in os.environ)\n"
        "missing = [n for n in moodlex.__all__ if getattr(moodlex, n, None) is None]\n"
        "print(len(moodlex.__all__), missing)\n"
    )
    out = _python(probe)
    assert out[:2] == ["False", "False"]
    assert int(out[2]) > 40 and out[3:] == ["[]"]


GOLDEN_DIR = Path(__file__).parent / "data"
GOLDEN_HEADLINES = [
    "Awe kill war", "happy game", "Sad awe kill", "war war war", "",
    "unknown words only", "awe happy", "Kill", "GAME game fun", "sad",
]


def run_golden_commands():
    """Build, score and eval on the fixture corpus in the current directory,
    with relative paths so the metadata echo is stable; returns the score and
    report paths."""
    Path("corpus.jsonl").write_text(
        "".join(json.dumps(rec) + "\n" for rec in CORPUS_LINES), encoding="utf-8"
    )
    Path("vocab.txt").write_text(VOCAB, encoding="utf-8")
    Path("headlines.tsv").write_text(
        "".join(f"s{i}\t{t}\n" for i, t in enumerate(GOLDEN_HEADLINES)), encoding="utf-8"
    )
    Path("gold.tsv").write_text(
        "id\ttext\tFEAR\tJOY\tDISGUST\n"
        "h1\tWar kill awe\t0.9\t0.1\t0.3\n"
        "h2\tHappy game fun\t0.1\t0.8\t0.0\n"
        "h3\tSad awe\t0.4\t0.2\t0.1\n"
        "h4\tZebra quark\t0.3\t0.3\t0.2\n",
        encoding="utf-8",
    )
    Path("labels.tsv").write_text("h1\tFEAR\nh2\tJOY\n", encoding="utf-8")
    Path("mapping.tsv").write_text("FEAR\tAFRAID\nJOY\tHAPPY\nDISGUST\t-\n", encoding="utf-8")
    assert main(["build", "--corpus", "corpus.jsonl", "--vocab", "vocab.txt", "--output", "lex.tsv"]) == 0
    assert main(
        ["score", "--lexicon", "lex.tsv", "--input", "headlines.tsv", "--output", "scores.tsv"]
    ) == 0
    assert main(
        [
            "eval", "--lexicon", "lex.tsv", "--gold", "gold.tsv", "--labels", "labels.tsv",
            "--mapping", "mapping.tsv", "--output", "report.tsv",
        ]
    ) == 0
    return Path("scores.tsv"), Path("report.tsv")


def test_score_and_eval_bytes_match_golden_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    scores, report = run_golden_commands()
    assert scores.read_bytes() == (GOLDEN_DIR / "golden_scores.tsv").read_bytes()
    assert report.read_bytes() == (GOLDEN_DIR / "golden_report.tsv").read_bytes()


class TestStats:
    def test_stats_match_library(self, workdir):
        out = workdir / "stats.tsv"
        args = ["stats", "--corpus", str(workdir / "corpus.jsonl"), "--output", str(out)]
        assert main(args) == 0
        lines = [l for l in out.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
        values = dict(l.split("\t") for l in lines[:3])
        assert values["doc_count"] == "5"
        assert values["token_count"] == "13"
        assert float(values["mean_doc_length"]) == pytest.approx(2.6)
        emotion_rows = dict(l.split("\t") for l in lines[4:])
        from moodlex import corpus_stats, load_corpus

        stats = corpus_stats(load_corpus(workdir / "corpus.jsonl"))
        for i, label in enumerate(
            ("AFRAID", "AMUSED", "ANGRY", "ANNOYED", "DONT_CARE", "HAPPY", "INSPIRED", "SAD")
        ):
            assert float(emotion_rows[label]) == pytest.approx(stats.mean_votes[i], abs=1e-9)

    def test_nan_min_votes_sum_checked_before_any_input_is_read(self, caplog):
        args = ["stats", "--corpus", "/nonexistent/corpus.jsonl", "--min-votes-sum", "nan"]
        assert main(args) == 1
        messages = [r.message for r in caplog.records if r.levelname == "ERROR"]
        assert messages == ["configure: min vote sum must be a number, got nan"]

    def test_empty_corpus_exits_nonzero(self, tmp_path, caplog):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("", encoding="utf-8")
        assert main(["stats", "--corpus", str(corpus)]) == 1
        assert any("corpus-stats" in r.message for r in caplog.records)

    def test_stdout_output(self, workdir, capsys):
        assert main(["stats", "--corpus", str(workdir / "corpus.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "doc_count\t5" in out
        assert out.startswith("# command: moodlex stats ")
