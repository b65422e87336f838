"""Byte contract: every output of ``build``, ``score``, ``eval`` and
``stats``, over a matrix of options on inputs that ``bench/gen.py``
generates, hashes to the digests in ``tests/data/output_digests.tsv``.

Every line is hashed except ``# command:``, which names temporary paths, and
``# tool-version:``. The rest of the metadata is pinned with the data: input
hashes, lexicon provenance such as ``# entries`` and ``# dropped-empty-docs``,
and the dump header. Every value of every option is used at least once, and
each weighting scheme runs with and without the matrix dump.
Change the table only together with a note of which outputs change and why;
to regenerate it::

    PYTHONPATH=src python tests/test_output_digests.py > tests/data/output_digests.tsv
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path

import pytest

from moodlex.cli import main

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "data" / "output_digests.tsv"
SEEDS = (1, 2)
DOCS = 60
HEADLINES = 300

#: Metadata lines left out of the digest.
UNPINNED = (b"# command: ", b"# tool-version: ")

#: The eight default emotions in reverse order and lower case.
REVERSED = "sad,inspired,happy,dont_care,annoyed,angry,amused,afraid"

#: Per corpus kind: each scheme without, then with, the dump, the other build
#: options spread over the six runs.
BUILDS = (
    ("f", ()),
    ("f", ("--col-norm", "max", "--min-df", "2")),
    ("nf", ("--nf-length", "raw", "--ambiguity", "first")),
    ("nf", ("--min-votes-sum", "1", "--emotions", REVERSED)),
    ("tfidf", ("--col-norm", "max", "--ambiguity", "first", "--min-df", "2")),
    ("tfidf", ("--nf-length", "raw", "--emotions", REVERSED)),
)

SCORES = (
    ("--lemma-table", "{h}/lemmas.tsv"),
    ("--ambiguity", "first"),
)

EVALS = (
    ("--lemma-table", "{h}/lemmas.tsv"),
    ("--labels", "{h}/labels.tsv", "--lemma-table", "{h}/lemmas.tsv", "--uncovered", "skip",
     "--minmax", "joint", "--ambiguity", "first", "--threshold", "0.3"),
    ("--labels", "{h}/labels.tsv", "--lemma-table", "{h}/lemmas.tsv"),
    ("--labels", "{h}/labels.tsv", "--minmax", "joint", "--threshold", "0.3"),
)

STATS = (
    ("--corpus", "{tokens}/corpus.jsonl"),
    ("--corpus", "{text}/corpus.jsonl", "--emotions", REVERSED, "--min-votes-sum", "1"),
)


def _cases():
    """``(name, argv, outputs)``: argv has ``{dir}`` placeholders for the input
    and output directories, and each output is an ``--option`` naming a file."""
    for seed in SEEDS:
        for kind in ("tokens", "text"):
            table = ("--lemma-table", f"{{{kind}}}/lemmas.tsv") if kind == "text" else ()
            for i, (scheme, extra) in enumerate(BUILDS):
                argv = ["build", "--corpus", f"{{{kind}}}/corpus.jsonl",
                        "--vocab", f"{{{kind}}}/vocab.txt", *table,
                        "--weighting", scheme, *extra, "--output", "{out}/lexicon.tsv"]
                outputs = ["output"]
                if i % 2:
                    argv += ["--dump-matrix", "{out}/dump.tsv"]
                    outputs.append("dump-matrix")
                yield f"s{seed}-build-{kind}-{i}", seed, argv, outputs
        for i, extra in enumerate(SCORES):
            argv = ["score", "--lexicon", "{h}/lexicon.tsv", "--input", "{h}/score.tsv",
                    *extra, "--output", "{out}/scores.tsv"]
            yield f"s{seed}-score-{i}", seed, argv, ["output"]
        for i, extra in enumerate(EVALS):
            argv = ["eval", "--lexicon", "{h}/lexicon.tsv", "--gold", "{h}/gold.tsv",
                    "--mapping", "{h}/mapping.tsv", *extra, "--output", "{out}/report.tsv"]
            yield f"s{seed}-eval-{i}", seed, argv, ["output"]
        for i, extra in enumerate(STATS):
            yield f"s{seed}-stats-{i}", seed, ["stats", *extra, "--output", "{out}/stats.tsv"], ["output"]


CASES = list(_cases())


def _generate(root: Path, seed: int) -> dict[str, str]:
    """Write one seed's inputs under ``root``; the placeholder -> directory map."""
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    dirs = {name: root / f"s{seed}-{name}" for name in ("tokens", "text", "h")}
    for path in dirs.values():
        path.mkdir()
    gen.generate_build(str(dirs["tokens"]), seed, docs=DOCS, text=False, min_df=1, tfidf=False)
    gen.generate_build(str(dirs["text"]), seed, docs=DOCS, text=True, min_df=1, tfidf=False)
    gen.generate_headlines(str(dirs["h"]), seed, headlines=HEADLINES)
    return {name: str(path) for name, path in dirs.items()}


def _digests(argv: list[str], outputs: list[str], dirs: dict[str, str], out: Path) -> list[str]:
    """Run one case in process; the sha256 of each output's pinned lines."""
    argv = [a.format(out=out, **dirs) for a in argv]
    assert main(argv) == 0, argv
    digests = []
    for option in outputs:
        data = Path(argv[argv.index(f"--{option}") + 1]).read_bytes().splitlines(keepends=True)
        digests.append(hashlib.sha256(b"".join(l for l in data if not l.startswith(UNPINNED))).hexdigest())
    return digests


def _table() -> dict[tuple[str, str], str]:
    rows = (l.split("\t") for l in TABLE.read_text(encoding="utf-8").splitlines() if l)
    return {(case, output): digest for case, output, digest in rows}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("digest-inputs")
    return {seed: _generate(root, seed) for seed in SEEDS}


def test_table_lists_every_case_once():
    expected = [(name, option) for name, _, _, outputs in CASES for option in outputs]
    assert list(_table()) == expected


@pytest.mark.parametrize("name, seed, argv, outputs", CASES, ids=[c[0] for c in CASES])
def test_output_data_lines_match_table(inputs, tmp_path, name, seed, argv, outputs):
    table = _table()
    expected = [table[name, option] for option in outputs]
    assert _digests(argv, outputs, inputs[seed], tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        dirs = {seed: _generate(root, seed) for seed in SEEDS}
        for name, seed, argv, outputs in CASES:
            out = root / name
            out.mkdir()
            for option, digest in zip(outputs, _digests(argv, outputs, dirs[seed], out)):
                sys.stdout.write(f"{name}\t{option}\t{digest}\n")
