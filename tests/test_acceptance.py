"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
``ACCEPTANCE PASS/FAIL`` line per criterion.
"""

from __future__ import annotations

import importlib.util
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest

from moodlex import (
    EmotionLexicon,
    EmotionMapping,
    VocabularyFilter,
    build_lexicon,
    column_normalize,
    emotion_mass,
    evaluate_classification,
    evaluate_regression,
    load_gold,
    pearson,
    precision_recall_f1,
    read_lexicon,
    row_scale,
    write_lexicon,
)
from moodlex.cli import main

from corpora import corpus_of
from dense_reference import dense_build, exact_pearson, make_random_corpus
from launcher import measure

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_lexicon.tsv")
BENCH_GEN = ROOT / "bench" / "gen.py"
SCHEMES = ("raw", "normalized", "tfidf")
SCALE_DOCS, SCALE_LENGTH, SCALE_KEYS = 25_000, 500, 8_000


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE FAIL: {name}")
        raise
    print(f"\nACCEPTANCE PASS: {name}")


def bench_gen():
    """``bench/gen.py``, the generator of the benchmark's inputs."""
    spec = importlib.util.spec_from_file_location("bench_gen", BENCH_GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def to_records(triples):
    return corpus_of(triples)


@pytest.fixture(scope="module")
def randomized_builds():
    """100 randomized corpora built under all three weightings, next to the
    independently coded dense reference results, with the total runtime."""
    rng = np.random.default_rng(20240808)
    results = []
    start = time.perf_counter()
    for _ in range(100):
        triples, words = make_random_corpus(rng, max_docs=20, max_words=50)
        records = to_records(triples)
        vocab = VocabularyFilter(words)
        per_scheme = {}
        for scheme in SCHEMES:
            lex = build_lexicon(records, vocab, scheme)
            reference = dense_build(triples, set(words), scheme)
            per_scheme[scheme] = (lex, reference)
        results.append((triples, words, per_scheme))
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_oracle_equivalence_randomized_corpora(randomized_builds):
    with criterion(
        "oracle equivalence: 100 random corpora x 3 weightings within 1e-9, < 10 s"
    ):
        results, elapsed = randomized_builds
        assert len(results) == 100
        for _, _, per_scheme in results:
            for scheme in SCHEMES:
                lex, reference = per_scheme[scheme]
                assert set(lex.words) == set(reference)
                for word, expected in reference.items():
                    np.testing.assert_allclose(
                        lex.row(word), expected, atol=1e-9, rtol=0
                    )
        assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds the 10 s budget"


def test_row_stochasticity_on_randomized_corpora(randomized_builds):
    with criterion("row-stochasticity: rows sum to 1 +/- 1e-9, entries in [0, 1]"):
        results, _ = randomized_builds
        for _, _, per_scheme in results:
            for scheme in SCHEMES:
                lex, _ = per_scheme[scheme]
                sums = lex.scores.sum(axis=1)
                assert np.max(np.abs(sums - 1.0)) <= 1e-9
                assert np.all(lex.scores >= 0.0)
                assert np.all(lex.scores <= 1.0)


def test_column_scale_invariance(emotions):
    with criterion(
        "column-scale invariance: scaling one raw column by c in {0.1, 3, 100} "
        "changes the lexicon by < 1e-12"
    ):
        rng = np.random.default_rng(4242)
        triples, words = make_random_corpus(rng, max_docs=15, max_words=30)
        vocab = VocabularyFilter(words)
        kept = to_records(
            (doc_id, filtered, votes)
            for doc_id, tokens, votes in triples
            if (filtered := [t for t in tokens if t in vocab])
        )
        words, raw_we, _, _ = emotion_mass(kept, vocab, "normalized")
        labels = emotions.labels
        base_words, base_rows, _ = row_scale(column_normalize(raw_we, labels), words)
        for c in (0.1, 3.0, 100.0):
            for e in range(len(labels)):
                scaled = raw_we.copy()
                scaled[:, e] = scaled[:, e] * c
                got_words, got_rows, _ = row_scale(column_normalize(scaled, labels), words)
                assert got_words == base_words
                assert np.max(np.abs(got_rows - base_rows)) < 1e-12


def test_planted_signal_soundness(emotions):
    with criterion(
        "planted-signal soundness: word seen only in one-hot-AFRAID documents "
        "is one-hot AFRAID under all three schemes"
    ):
        afraid = {"AFRAID": 1.0}
        spread = {
            "AMUSED": 0.2,
            "ANGRY": 0.2,
            "ANNOYED": 0.2,
            "DONT_CARE": 0.2,
            "HAPPY": 0.2,
        }
        rest = {"INSPIRED": 0.4, "SAD": 0.4, "HAPPY": 0.2}
        rows = [
            ("d0", ["planted#n", "filler#v"], afraid),
            ("d1", ["planted#n", "planted#n", "other#n"], afraid),
            ("d2", ["filler#v", "other#n"], spread),
            ("d3", ["other#n", "third#a"], rest),
            ("d4", ["third#a", "filler#v"], {"SAD": 0.5, "AFRAID": 0.5}),
        ]
        records = corpus_of(rows, emotions)
        vocab = VocabularyFilter(["planted#n", "filler#v", "other#n", "third#a"])
        afraid_idx = emotions.index("AFRAID")
        for scheme in SCHEMES:
            lex = build_lexicon(records, vocab, scheme)
            row = lex.row("planted#n")
            assert abs(row[afraid_idx] - 1.0) <= 1e-9, scheme
            assert np.all(np.delete(row, afraid_idx) <= 1e-9), scheme


def test_metric_correctness():
    with criterion(
        "metric correctness: pearson vs exact oracle (1000 pairs, 1e-12), "
        "confusion fixture P/R/F1, no-positive case"
    ):
        rng = np.random.default_rng(515151)
        for _ in range(1000):
            n = int(rng.integers(2, 60))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert abs(pearson(x, y) - exact_pearson(x, y)) < 1e-12

        m = precision_recall_f1(3, 1, 2)
        assert abs(m.precision - 0.75) <= 1e-12
        assert abs(m.recall - 0.6) <= 1e-12
        assert abs(m.f1 - 2.0 / 3.0) <= 1e-12

        # No positive predictions for an emotion with gold positives: the
        # mapped column is constant zero, so nothing clears the threshold.
        emotions = ("AFRAID", "ANGRY")
        lex = EmotionLexicon(
            emotions, [f"w{i}#n" for i in range(4)], [np.array([1.0, 0.0])] * 4
        )
        from moodlex import GoldSet, score_ids

        lengths = np.ones(4, dtype=np.int64)
        scores, covered = score_ids(np.arange(4, dtype=np.int32), lengths, lex.words, lex)
        gold = GoldSet(
            emotions=("ANGER",),
            ids=tuple(f"h{i}" for i in range(4)),
            gold=np.full((4, 1), 0.5),
            labels=np.array([[True], [True], [False], [False]]),
            sources=lex.emotions,
            scores=scores,
            covered=covered,
            lengths=lengths,
        )
        mapping = EmotionMapping(pairs={"ANGER": "ANGRY"})
        result = evaluate_classification(gold, mapping)
        assert result["ANGER"].f1 == 0.0
        assert result["ANGER"].precision == 0.0
        assert result["ANGER"].recall == 0.0


@pytest.fixture(scope="module")
def cli_workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    corpus = [
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
    (root / "corpus.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in corpus), encoding="utf-8"
    )
    (root / "vocab.txt").write_text(
        "awe#n\nkill#v\nwar#n\ngame#n\nsad#a\nhappy#a\n", encoding="utf-8"
    )
    (root / "gold.tsv").write_text(
        "id\ttext\tFEAR\tJOY\n"
        "h1\tWar kill awe\t0.9\t0.1\n"
        "h2\tHappy game\t0.1\t0.8\n"
        "h3\tSad awe\t0.4\t0.2\n"
        "h4\tAwe war\t0.6\t0.3\n",
        encoding="utf-8",
    )
    (root / "labels.tsv").write_text("h1\tFEAR\nh2\tJOY\n", encoding="utf-8")
    (root / "mapping.tsv").write_text("FEAR\tAFRAID\nJOY\tHAPPY\n", encoding="utf-8")
    return root


def test_determinism(cli_workdir, emotions):
    with criterion(
        "determinism: byte-identical lexicon/report across reruns and worker "
        "counts {1, 4}; permutation shifts scores < 1e-12"
    ):
        def build(output, workers):
            args = [
                "build",
                "--corpus", str(cli_workdir / "corpus.jsonl"),
                "--vocab", str(cli_workdir / "vocab.txt"),
                "--output", str(cli_workdir / output),
                "--weighting", "nf",
                "--workers", str(workers),
            ]
            assert main(args) == 0
            return (cli_workdir / output).read_bytes()

        first = build("lex.tsv", 1)
        again = build("lex.tsv", 1)
        assert first == again
        four = build("lex4.tsv", 4)
        assert four.replace(b"lex4.tsv", b"lex.tsv") == first

        def run_eval(output):
            args = [
                "eval",
                "--lexicon", str(cli_workdir / "lex.tsv"),
                "--gold", str(cli_workdir / "gold.tsv"),
                "--labels", str(cli_workdir / "labels.tsv"),
                "--mapping", str(cli_workdir / "mapping.tsv"),
                "--output", str(cli_workdir / output),
            ]
            assert main(args) == 0
            return (cli_workdir / output).read_bytes()

        assert run_eval("report.tsv") == run_eval("report.tsv")
        report4 = run_eval("report4.tsv")
        args = [
            "eval",
            "--lexicon", str(cli_workdir / "lex.tsv"),
            "--gold", str(cli_workdir / "gold.tsv"),
            "--labels", str(cli_workdir / "labels.tsv"),
            "--mapping", str(cli_workdir / "mapping.tsv"),
            "--output", str(cli_workdir / "report4.tsv"),
            "--workers", "4",
        ]
        assert main(args) == 0
        assert (cli_workdir / "report4.tsv").read_bytes() == report4

        # Document-order permutation: no score moves by more than 1e-12.
        rng = np.random.default_rng(99)
        triples, words = make_random_corpus(rng, max_docs=18, max_words=40)
        records = to_records(triples)
        vocab = VocabularyFilter(words)
        base = build_lexicon(records, vocab, "normalized")
        order = rng.permutation(len(records))
        permuted = to_records([triples[i] for i in order])
        shuffled = build_lexicon(permuted, vocab, "normalized")
        assert base.words == shuffled.words
        assert np.max(np.abs(base.scores - shuffled.scores)) <= 1e-12


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    with criterion(
        "determinism: build (raw text, lemma table, tf-idf, matrix dump), score "
        "and eval write the same bytes under PYTHONHASHSEED 0 and 1"
    ):
        gen = bench_gen()
        inputs = tmp_path / "inputs"
        (inputs / "build").mkdir(parents=True)
        (inputs / "headlines").mkdir()
        gen.generate_build(str(inputs / "build"), 31, docs=300, text=True, min_df=2, tfidf=True)
        gen.generate_headlines(str(inputs / "headlines"), 31, headlines=300)
        commands = [
            ("build", [
                "build", "--corpus", "corpus.jsonl", "--vocab", "vocab.txt",
                "--lemma-table", "lemmas.tsv", "--weighting", "tfidf", "--min-df", "2",
                "--dump-matrix", "dump.tsv", "--output", "lex.tsv",
            ]),
            ("headlines", [
                "score", "--lexicon", "lexicon.tsv", "--input", "score.tsv",
                "--lemma-table", "lemmas.tsv", "--output", "scores.tsv",
            ]),
            ("headlines", [
                "eval", "--lexicon", "lexicon.tsv", "--gold", "gold.tsv", "--labels",
                "labels.tsv", "--mapping", "mapping.tsv", "--lemma-table", "lemmas.tsv",
                "--output", "report.tsv",
            ]),
        ]
        outputs = []
        for seed in ("0", "1"):
            # The same relative paths in each copy, so the metadata lines match.
            workdir = shutil.copytree(inputs, tmp_path / f"seed{seed}")
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=seed)
            for where, argv in commands:
                proc = subprocess.run(
                    [sys.executable, "-m", "moodlex.cli", *argv], cwd=workdir / where,
                    env=env, capture_output=True, text=True, timeout=300,
                )
                assert proc.returncode == 0, proc.stderr
            outputs.append({
                path.relative_to(workdir): path.read_bytes()
                for name in ("lex.tsv", "dump.tsv", "scores.tsv", "report.tsv")
                for path in workdir.glob(f"*/{name}")
            })
        assert len(outputs[0]) == 4
        assert outputs[0] == outputs[1]


def test_serialization_roundtrip_and_golden_file(tmp_path, emotions):
    with criterion(
        "serialization: 1000 random rows round-trip within 1e-9; golden excerpt "
        "re-serializes byte-identically"
    ):
        rng = np.random.default_rng(727272)
        rows = {
            f"w{i:04d}#{'nvar'[i % 4]}": rng.dirichlet(np.ones(8)) for i in range(1000)
        }
        lex = EmotionLexicon(emotions.labels, list(rows), list(rows.values()))
        path = tmp_path / "big.tsv"
        write_lexicon(lex, path)
        again = read_lexicon(path)
        assert again.words == lex.words
        assert np.max(np.abs(again.scores - lex.scores)) <= 1e-9

        with open(GOLDEN, "rb") as fh:
            original = fh.read()
        golden = read_lexicon(GOLDEN)
        out = tmp_path / "golden_again.tsv"
        write_lexicon(golden, out)
        assert out.read_bytes() == original
        np.testing.assert_array_equal(
            golden.row("awe#n"), [0.08, 0.12, 0.04, 0.11, 0.07, 0.15, 0.38, 0.05]
        )
        np.testing.assert_array_equal(
            golden.row("comical#a"), [0.02, 0.51, 0.04, 0.05, 0.12, 0.17, 0.03, 0.06]
        )
        np.testing.assert_array_equal(
            golden.row("kill#v"), [0.23, 0.06, 0.21, 0.07, 0.05, 0.06, 0.05, 0.27]
        )


@pytest.fixture(scope="session")
def scale_corpus(tmp_path_factory, emotions):
    """The scale target's input, written once per session: 25,000 documents of
    500 tokens drawn uniformly from 8,000 keys by ``default_rng(1337)``, each
    vote row divided by its sum before rounding to 6 decimals (167 MB; the
    corpus is removed at the end of the session)."""
    root = tmp_path_factory.mktemp("scale")
    rng = np.random.default_rng(1337)
    keys = [f"w{i:05d}a#v" for i in range(SCALE_KEYS)]
    (root / "vocab.txt").write_text("".join(k + "\n" for k in keys), encoding="utf-8")
    quoted = [f'"{k}"' for k in keys]
    labels = [f'"{label}": ' for label in emotions.labels]
    block = 1_000
    with open(root / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for start in range(0, SCALE_DOCS, block):
            ids = rng.integers(0, SCALE_KEYS, size=(block, SCALE_LENGTH)).tolist()
            votes = rng.random((block, len(labels))) + 0.01
            votes = np.round(votes / votes.sum(axis=1, keepdims=True), 6).tolist()
            for j, (row, vote) in enumerate(zip(ids, votes)):
                tokens = ", ".join(itemgetter(*row)(quoted))
                scores = ", ".join(map("".join, zip(labels, map(repr, vote))))
                fh.write(f'{{"id": "d{start + j:05d}", "tokens": [{tokens}], "votes": {{{scores}}}}}\n')
    yield root
    (root / "corpus.jsonl").unlink()  # pytest keeps the last three sessions' files


@pytest.fixture(scope="session")
def text_corpus(tmp_path_factory):
    """``bench/gen.py``'s raw-text corpus of 2,000 documents (seed 7), its
    vocabulary and lemma table, and the lexicon words it implies under
    tf-idf with min-df 2."""
    root = tmp_path_factory.mktemp("text")
    answers = bench_gen().generate_build(str(root), 7, docs=2_000, text=True, min_df=2, tfidf=True)
    return root, answers["words"]


def run_cli(argv, cwd):
    """Run ``python -m moodlex.cli argv`` in ``cwd`` through the launcher; its
    report, once it has exited 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc, report = measure([sys.executable, "-m", "moodlex.cli", *argv], cwd=cwd, env=env)
    assert report["status"] == 0, proc.stderr
    print(f"\n  {argv[0]}: {report['wall_s']:.1f} s, peak {report['peak_mib']:.1f} MiB")
    return report


def test_launcher_reports_the_command_not_pytest():
    with criterion("launcher: a `python -c pass` child reports under half of pytest's peak"):
        _, report = measure([sys.executable, "-c", "pass"])
        own_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        assert report["status"] == 0
        assert report["peak_mib"] < own_mib / 2, (report, own_mib)


def test_scale_gate_token_build(scale_corpus):
    with criterion(
        "scale gate: `build --weighting nf --dump-matrix` on 25,000 docs x 500 "
        "tokens, through the CLI, in < 60 s and < 420 MiB peak"
    ):
        report = run_cli(
            [
                "build", "--corpus", "corpus.jsonl", "--vocab", "vocab.txt",
                "--weighting", "nf", "--dump-matrix", os.devnull, "--output", "lex.tsv",
            ],
            scale_corpus,
        )
        assert report["wall_s"] < 60.0
        assert report["peak_mib"] < 420.0
        lex = read_lexicon(scale_corpus / "lex.tsv")
        assert len(lex) == SCALE_KEYS
        # Eight scores below 1, each written to 9 significant digits.
        assert np.max(np.abs(lex.scores.sum(axis=1) - 1.0)) <= 8 * 0.5e-9


def test_scale_gate_text_build(text_corpus):
    # The peak is 54.0 MiB (CPython 3.11, numpy 2.4); the bound is that plus
    # 6 MiB. A lemmatizer that numbers every surface form of the corpus in
    # one map reads 65.4 MiB and fails.
    with criterion(
        "scale gate: raw-text `build --weighting tfidf --min-df 2` on 2,000 "
        "generated docs, through the CLI, in < 60 MiB peak"
    ):
        root, words = text_corpus
        report = run_cli(
            [
                "build", "--corpus", "corpus.jsonl", "--vocab", "vocab.txt",
                "--lemma-table", "lemmas.tsv", "--weighting", "tfidf", "--min-df", "2",
                "--output", "lex.tsv",
            ],
            root,
        )
        assert report["peak_mib"] < 60.0
        assert read_lexicon(root / "lex.tsv").words == tuple(words)


EXTERNAL_LEXICON = os.environ.get("MOODLEX_EVAL_LEXICON")
EXTERNAL_GOLD = os.environ.get("MOODLEX_EVAL_GOLD")


@pytest.mark.skipif(
    not (EXTERNAL_LEXICON and EXTERNAL_GOLD),
    reason="external reference data not supplied; set MOODLEX_EVAL_LEXICON and "
    "MOODLEX_EVAL_GOLD (optionally MOODLEX_EVAL_MAPPING) to run",
)
def test_conditional_published_lexicon_regression():
    with criterion(
        "conditional: published lexicon + gold headlines reproduce the "
        "reference regression figures within +/- 0.03"
    ):
        lex = read_lexicon(EXTERNAL_LEXICON)
        gold = load_gold(EXTERNAL_GOLD, lex)
        mapping_path = os.environ.get("MOODLEX_EVAL_MAPPING")
        if mapping_path:
            mapping = EmotionMapping.from_file(mapping_path)
        else:
            mapping = EmotionMapping(
                pairs={
                    "FEAR": "AFRAID",
                    "ANGER": "ANGRY",
                    "JOY": "HAPPY",
                    "SADNESS": "SAD",
                    "SURPRISE": "INSPIRED",
                },
            )
        result = evaluate_regression(gold, mapping)
        expected = {
            "FEAR": 0.54,
            "ANGER": 0.38,
            "SURPRISE": 0.21,
            "JOY": 0.40,
            "SADNESS": 0.47,
        }
        for target, value in expected.items():
            assert result[target] == pytest.approx(value, abs=0.03), target
