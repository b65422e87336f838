#!/usr/bin/env python3
"""moodlex benchmark: seeded inputs, real CLI runs, checked outputs, metrics.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
       python3 bench/run.py --write-spec      (rewrites BENCHMARK.json)

NAME is one of the workloads below, or ``all`` to rotate through every
workload round-robin. Run from anywhere; the program under test is the
``src/moodlex`` next to this directory, run as ``python -m moodlex.cli`` with
``PYTHONPATH`` pointing at that ``src``.

Each run generates its inputs from ``--seed`` (see gen.py), reads them once
so the page cache is warm, and runs one untimed warm-up of each command set,
whose outputs are checked in full against the generator's answers. A
self-check then corrupts a copy of each output and requires the same checks
to count it as failed. For ``--seconds`` seconds it then runs the workload
closed-loop, one command at a time: full-size command sets, and every fourth
one a set-up run on the smallest input the commands accept. Every later
output must be byte-identical (sha256) to the checked one; a non-zero exit
or a differing output counts the run as failed.

Times are reported in reference seconds: each run's measured time is scaled
by how fast the host ran a fixed calibration child just before and after it
(see HostClock). The measured medians are printed next to them.

With ``--trace 1`` the loop alternates untraced full runs with traced runs
of trace_run.py, which calls the modules' public functions in the CLI's
order and records a span around each. Those give the per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, BENCH)

import check  # noqa: E402
import gen  # noqa: E402

#: Full-size runs per set-up run in the measured loop.
FULL_PER_SETUP = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: dict
    generate: Callable[[str, int], dict]
    #: (CLI arguments, [(output file, kind)]) per command; ``tiny`` selects
    #: the smallest accepted input. Every flag the CLI echoes into output
    #: metadata is passed explicitly, in echo order.
    commands: Callable[[bool], list[tuple[list[str], list[tuple[str, str]]]]]


def _build_tokens(tiny: bool):
    s = "_tiny" if tiny else ""
    return [([
        "build", "--corpus", f"corpus{s}.jsonl", "--vocab", "vocab.txt", "--output", f"lexicon{s}.tsv",
        "--weighting", "nf", "--col-norm", "sum", "--min-df", "1", "--nf-length", "filtered",
        "--ambiguity", "all", "--dump-matrix", f"matrix{s}.tsv", "--workers", "2",
    ], [(f"lexicon{s}.tsv", "lexicon"), (f"matrix{s}.tsv", "dump")])]


def _build_text(tiny: bool):
    s = "_tiny" if tiny else ""
    return [([
        "build", "--corpus", f"corpus{s}.jsonl", "--vocab", "vocab.txt", "--lemma-table", "lemmas.tsv",
        "--output", f"lexicon{s}.tsv", "--weighting", "tfidf", "--col-norm", "sum", "--min-df", "2",
        "--nf-length", "filtered", "--ambiguity", "all",
    ], [(f"lexicon{s}.tsv", "lexicon")])]


def _headlines(tiny: bool):
    s = "_tiny" if tiny else ""
    return [
        ([
            "score", "--lexicon", "lexicon.tsv", "--input", f"score{s}.tsv", "--lemma-table", "lemmas.tsv",
            "--ambiguity", "all", "--output", f"scores{s}.tsv",
        ], [(f"scores{s}.tsv", "scores")]),
        ([
            "eval", "--lexicon", "lexicon.tsv", "--gold", f"gold{s}.tsv", "--labels", f"labels{s}.tsv",
            "--mapping", "mapping.tsv", "--lemma-table", "lemmas.tsv", "--ambiguity", "all",
            "--uncovered", "zero", "--minmax", "per-emotion", "--threshold", "0.5", "--output", f"report{s}.tsv",
        ], [(f"report{s}.tsv", "report")]),
    ]


BUILD_DOCS = 400
TEXT_DOCS = 300
HEADLINES = 6000

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "build-tokens",
            "pre-tokenized corpus with nf and the matrix dump: parsing, counting and the dump writer dominate; no lemmatizer",
            {"docs": BUILD_DOCS, "tokens_per_doc": gen.DOC_TOKENS, "vocab": gen.VOCAB_SIZE},
            lambda d, seed: gen.generate_build(d, seed, docs=BUILD_DOCS, text=False, min_df=1, tfidf=False),
            _build_tokens,
        ),
        Workload(
            "build-text",
            "raw-text corpus with a lemma table, tf-idf and min-df 2: tokenize/lemmatize dominate, JSON parsing is cheap",
            {"docs": TEXT_DOCS, "tokens_per_doc": gen.DOC_TOKENS, "vocab": gen.VOCAB_SIZE},
            lambda d, seed: gen.generate_build(d, seed, docs=TEXT_DOCS, text=True, min_df=2, tfidf=True),
            _build_text,
        ),
        Workload(
            "headlines",
            "score then eval on one headline set against a generated lexicon: lexicon reads and evaluate only",
            {"headlines": HEADLINES, "tokens_per_headline": gen.HEADLINE_TOKENS, "lexicon": gen.VOCAB_SIZE},
            lambda d, seed: gen.generate_headlines(d, seed, headlines=HEADLINES),
            _headlines,
        ),
    )
}

#: (name, unit, better, bound): what a user of the CLI sees per workload.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("tokens_per_s", "1/s", "higher", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
)

#: (name, unit, better) from the traced run. ``.s`` is span self-time,
#: ``.rss_mib`` the peak RSS right after the span. A layer that does not
#: run in a workload reads 0 there.
PER_LAYER = (
    ("corpus.load_corpus.s", "s", "lower"),
    ("corpus.load_corpus.rss_mib", "MiB", "lower"),
    ("corpus.vote_matrix.s", "s", "lower"),
    ("corpus.docs", "count", "higher"),
    ("corpus.tokens", "count", "higher"),
    ("corpus.bytes", "bytes", "lower"),
    ("textpipe.vocab_load.s", "s", "lower"),
    ("textpipe.lemma_table_load.s", "s", "lower"),
    ("textpipe.tokenize.s", "s", "lower"),
    ("textpipe.lemmatize.s", "s", "lower"),
    ("textpipe.filter_vocabulary.s", "s", "lower"),
    ("textpipe.surface_tokens", "count", "higher"),
    ("textpipe.distinct_surface_share", "ratio", "lower"),
    ("textpipe.candidates_per_surface", "ratio", "lower"),
    ("textpipe.oov_rate", "ratio", "lower"),
    ("matrix.count_terms.s", "s", "lower"),
    ("matrix.count_terms.rss_mib", "MiB", "lower"),
    ("matrix.filter_min_df.s", "s", "lower"),
    ("matrix.apply_weighting.s", "s", "lower"),
    ("matrix.write_matrix_dump.s", "s", "lower"),
    ("matrix.nnz", "count", "lower"),
    ("matrix.terms", "count", "higher"),
    ("matrix.min_df_dropped", "count", "lower"),
    ("matrix.tfidf_dropped", "count", "lower"),
    ("matrix.dump_bytes", "bytes", "lower"),
    ("lexicon.build_lexicon.s", "s", "lower"),
    ("lexicon.emotion_product.s", "s", "lower"),
    ("lexicon.column_normalize.s", "s", "lower"),
    ("lexicon.row_scale.s", "s", "lower"),
    ("lexicon.write_lexicon.s", "s", "lower"),
    ("lexicon.read_lexicon.s", "s", "lower"),
    ("lexicon.entries", "count", "higher"),
    ("lexicon.zero_rows_dropped", "count", "lower"),
    ("evaluate.load_gold.s", "s", "lower"),
    ("evaluate.load_labels.s", "s", "lower"),
    ("evaluate.evaluate_regression.s", "s", "lower"),
    ("evaluate.evaluate_classification.s", "s", "lower"),
    ("evaluate.coverage_stats.s", "s", "lower"),
    ("evaluate.batch_score.s", "s", "lower"),
    ("evaluate.headlines", "count", "higher"),
    ("evaluate.uncovered_headlines", "count", "lower"),
    ("cli.unattributed.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.stale", "count", "lower"),
)

RUN_SECONDS = 30


class BenchError(Exception):
    """The benchmark itself cannot run: missing program, broken self-check."""


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mib: float
    exit_code: int


def run_child(argv: list[str], cwd: str, log_path: str) -> Child:
    """Run one process to exit; its CPU time and peak RSS come from
    ``os.wait4`` on its own pid, never from the cumulative RUSAGE_CHILDREN."""
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class Sample:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mib: float = 0.0
    ok: bool = True
    scale: float = 1.0  # host-speed scales of wall and CPU time, see HostClock
    cpu_scale: float = 1.0


#: A fixed child process with the CLI's cost structure: interpreter start,
#: numpy/scipy imports, JSON parsing, a small frozen dataclass per token,
#: dict counting over an 8k-word vocabulary, float formatting and a sparse
#: product.
_CALIBRATION = """
import json, numpy, scipy.sparse
from dataclasses import dataclass
@dataclass(frozen=True)
class P:
    lemma: str
    pos: str
lines = [json.dumps({"id": f"d{i}", "tokens": [f"w{(i * 7919 + j * 31) % 8000}#n" for j in range(300)]}) for i in range(150)]
counts = {}
for line in lines:
    for tok in json.loads(line)["tokens"]:
        lemma, _, pos = tok.rpartition("#")
        P(lemma, pos)
        counts[tok] = counts.get(tok, 0) + 1
out = "".join(f"{k}\\t{v:.9g}\\n" for k, v in sorted(counts.items()))
m = scipy.sparse.random(1000, 1000, density=0.01, random_state=0, format="csr")
float((m @ m.T).sum())
"""

#: Calibration time that defines the reported second: a wall (CPU) time is
#: reported as measured seconds x CALIBRATION_REF_S / (calibration wall (CPU)
#: time around it). It is about what the calibration takes on a quiet 2-core
#: x86_64 VM.
CALIBRATION_REF_S = 0.5


class HostClock:
    """Tracks the shared host's current speed with the calibration child.

    Single runs of the CLI on a shared VM swing by +-20% with the host's
    load, for stretches longer than a run, and CPU time swings with them
    (at times above wall time for single-threaded work). The calibration
    child slows down with the CLI, so each sample is scaled by the mean of
    the calibrations just before and just after it: wall time by their wall
    time, CPU time by their CPU time.
    """

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.last = self.measure()

    def measure(self) -> tuple[float, float]:
        child = run_child([sys.executable, "-c", _CALIBRATION], self.workdir,
                          os.path.join(self.workdir, "calibration.log"))
        if child.exit_code != 0:
            raise BenchError("the calibration child failed")
        self.last = (child.wall, child.cpu)
        return self.last

    def around(self) -> Callable[[], tuple[float, float]]:
        """Start a sample; the returned call ends it and gives its (wall,
        CPU) scales."""
        before = self.last

        def end() -> tuple[float, float]:
            after = self.measure()
            return (2 * CALIBRATION_REF_S / (before[0] + after[0]),
                    2 * CALIBRATION_REF_S / (before[1] + after[1]))

        return end


@dataclass
class Runner:
    """One workload's inputs, runs and tallies within a benchmark run."""

    workload: Workload
    seed: int
    trace: bool
    clock: HostClock
    workdir: str = ""
    answers: dict = field(default_factory=dict)
    full: list = field(default_factory=list)
    setup: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    reference: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    self_checked: int = 0

    def prepare(self) -> None:
        self.workdir = os.path.join(WORK, f"{self.workload.name}-seed{self.seed}")
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.answers = self.workload.generate(self.workdir, self.seed)
        for name in sorted(os.listdir(self.workdir)):  # warm the page cache
            with open(os.path.join(self.workdir, name), "rb") as fh:
                while fh.read(1 << 20):
                    pass
        self.run_set(tiny=False)
        self.run_set(tiny=True)
        if False in self.reference:  # the full-size outputs passed the checks
            self.self_check()

    def _expected(self, tiny: bool) -> dict:
        return self.answers["tiny"] if tiny else self.answers

    def verify(self, tiny: bool, outputs: list[tuple[str, str]]) -> bool:
        """Full checks on the first output of a set, byte identity after."""
        paths = [os.path.join(self.workdir, name) for name, _ in outputs]
        if any(not os.path.isfile(p) for p in paths):
            self.problems.append(f"missing output among {[n for n, _ in outputs]}")
            return False
        digest = tuple(_sha256(p) for p in paths)
        if tiny in self.reference:
            if digest == self.reference[tiny]:
                return True
            self.problems.append(f"output differs from the first run of the set: {[n for n, _ in outputs]}")
            return False
        problems = [
            problem
            for (_, kind), path in zip(outputs, paths)
            for problem in check.check_output(kind, path, self._expected(tiny), tiny=tiny)
        ]
        if problems:
            self.problems.extend(problems[:5])
            return False
        self.reference[tiny] = digest
        return True

    def run_set(self, *, tiny: bool) -> Sample:
        """Run the workload's commands once, in order; check their outputs."""
        sample = Sample()
        end = self.clock.around()
        outputs = []
        for argv, outs in self.workload.commands(tiny):
            for name, _ in outs:
                path = os.path.join(self.workdir, name)
                if os.path.exists(path):
                    os.remove(path)
            child = run_child([sys.executable, "-m", "moodlex.cli", *argv], self.workdir,
                              os.path.join(self.workdir, "stderr.log"))
            sample.wall += child.wall
            sample.cpu += child.cpu
            sample.rss_mib = max(sample.rss_mib, child.rss_mib)
            if child.exit_code != 0:
                sample.ok = False
                with open(os.path.join(self.workdir, "stderr.log"), encoding="utf-8", errors="replace") as fh:
                    self.problems.append(f"{argv[0]} exited {child.exit_code}: {fh.read()[-300:]}")
                break
            outputs.extend(outs)
        sample.scale, sample.cpu_scale = end()
        if sample.ok:
            sample.ok = self.verify(tiny, outputs)
        self.attempted += 1
        self.failed += not sample.ok
        return sample

    def self_check(self) -> None:
        """Corrupt a copy of each checked full-size output; the checks must
        count every copy as failed."""
        for _, outs in self.workload.commands(False):
            for name, kind in outs:
                with open(os.path.join(self.workdir, name), encoding="utf-8") as fh:
                    lines = fh.read().split("\n")
                corrupt = os.path.join(self.workdir, "corrupt_" + name)
                with open(corrupt, "w", encoding="utf-8") as fh:
                    fh.write("\n".join(_corrupt(kind, lines, self.answers)))
                if not check.check_output(kind, corrupt, self.answers, tiny=False):
                    raise BenchError(f"self-check: corrupted {name} ({kind}) passed the checks")
                os.remove(corrupt)
                self.self_checked += 1

    def step(self) -> None:
        if self.trace:
            if len(self.traced) < len(self.full):
                self.traced_set()
            else:
                self._timed(self.full, tiny=False)
        elif len(self.setup) * FULL_PER_SETUP <= len(self.full):
            self._timed(self.setup, tiny=True)
        else:
            self._timed(self.full, tiny=False)

    def complete(self) -> bool:
        """Whether every reported metric has at least one sample."""
        return bool(self.full and (self.traced if self.trace else self.setup))

    def _timed(self, bucket: list, *, tiny: bool) -> None:
        sample = self.run_set(tiny=tiny)
        if sample.ok:
            bucket.append(sample)

    def traced_set(self) -> None:
        """One traced run of each command; build outputs must match the
        CLI's byte for byte, score/eval counts must match the answers."""
        record = {"wall": 0.0, "spans": [], "counts": {}, "stale": None}
        end = self.clock.around()
        for i, (argv, outs) in enumerate(self.workload.commands(False)):
            spans_path = os.path.join(self.workdir, f"spans{i}.json")
            if os.path.exists(spans_path):
                os.remove(spans_path)
            child = run_child([sys.executable, os.path.join(BENCH, "trace_run.py"), spans_path, "traced_", "--", *argv],
                              self.workdir, os.path.join(self.workdir, "trace.log"))
            record["wall"] += child.wall
            if child.exit_code != 0 or not os.path.isfile(spans_path):
                record["stale"] = f"trace_run.py exited {child.exit_code}"
                continue
            with open(spans_path, encoding="utf-8") as fh:
                got = json.load(fh)
            record["spans"].append(got["spans"])
            record["counts"].update(got["counts"])
            record["stale"] = record["stale"] or got["stale"]
            if argv[0] == "build" and not got["stale"]:
                for name, _ in outs:
                    traced = os.path.join(self.workdir, "traced_" + name)
                    if not os.path.isfile(traced) or _sha256(traced) != _sha256(os.path.join(self.workdir, name)):
                        record["stale"] = f"traced {name} differs from the CLI's"
        record["scale"] = end()[0]
        counts = record["counts"]
        if "score.covered_total" in counts and counts["score.covered_total"] != self.answers["covered_total"]:
            record["stale"] = record["stale"] or "traced covered/total differ from the answers"
        if "evaluate.uncovered_headlines" in counts and counts["evaluate.uncovered_headlines"] != self.answers["uncovered"]:
            record["stale"] = record["stale"] or "traced uncovered count differs from the answers"
        self.traced.append(record)

    def end_to_end(self) -> dict:
        if not self.complete():
            return {}
        wall = statistics.median(s.wall * s.scale for s in self.full)
        setup = statistics.median(s.wall * s.scale for s in self.setup)
        return {
            "wall_s": wall,
            "setup_s": setup,
            "tokens_per_s": self.answers["input_tokens"] / wall,
            "cpu_s": statistics.median(s.cpu * s.cpu_scale for s in self.full),
            "peak_rss_mib": statistics.median(s.rss_mib for s in self.full),
        }

    def unscaled(self) -> str:
        """Measured medians before host-speed scaling, for the log."""
        wall = statistics.median(s.wall * s.scale for s in self.full)
        setup = statistics.median(s.wall * s.scale for s in self.setup)
        return (f"marginal {self.answers['input_tokens'] / (wall - setup):.4g} tokens/s; "
                f"measured medians: wall {statistics.median(s.wall for s in self.full):.4g} s, "
                f"set-up {statistics.median(s.wall for s in self.setup):.4g} s, "
                f"cpu {statistics.median(s.cpu for s in self.full):.4g} s; "
                f"median scale {statistics.median(s.scale for s in self.full + self.setup):.4g}")

    def tail(self) -> tuple[float, float, int] | None:
        """The highest percentile with at least ten samples above it, when
        that percentile is not below the median."""
        walls = sorted(s.wall * s.scale for s in self.full)
        n = len(walls)
        if n < 20:
            return None
        return walls[n - 11], 100.0 * (n - 10) / n, n

    def per_layer(self) -> dict:
        if not self.complete():
            return {}
        span_sums = [
            {name: t * r["scale"] for name, t in _self_times(_merged(r["spans"])).items()} for r in self.traced
        ]
        out = {}
        for name, _, _ in PER_LAYER:
            if name.endswith(".s"):
                out[name] = statistics.median(s.get(name[:-2], 0.0) for s in span_sums)
            elif name.endswith(".rss_mib"):
                out[name] = statistics.median(r["counts"].get(name, 0.0) for r in self.traced)
            else:  # counts repeat exactly from run to run
                out[name] = self.traced[-1]["counts"].get(name, 0)
        untraced = statistics.median(s.wall * s.scale for s in self.full)
        top = statistics.median(s.get("", 0.0) for s in span_sums)
        out["cli.unattributed.s"] = untraced - top
        out["trace.overhead_s"] = statistics.median(r["wall"] * r["scale"] for r in self.traced) - untraced
        out["trace.stale"] = sum(1 for r in self.traced if r["stale"])
        return out

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _merged(span_lists: list[list]) -> list:
    """Spans of several processes as one list, parents re-indexed."""
    merged = []
    for spans in span_lists:
        base = len(merged)
        merged.extend([name, start, end, parent + base if parent >= 0 else -1]
                      for name, start, end, parent in spans)
    return merged


def _self_times(spans: list) -> dict[str, float]:
    """Self time per span name; key "" holds the total of top-level spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {"": 0.0}
    for i, (name, start, end, parent) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
        if parent < 0:
            out[""] += end - start
    return out


def _corrupt(kind: str, lines: list[str], answers: dict) -> list[str]:
    """A plausible single defect per output kind."""
    lines = list(lines)
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    if kind == "lexicon":
        # Swap a planted word's top score into another column: rows still
        # sum to 1 and the word set is unchanged.
        header = lines[data[0]].split("\t")
        for i in data[1:]:
            fields = lines[i].split("\t")
            if fields[0] in answers["planted"]:
                j = header.index(answers["planted"][fields[0]])
                k = 1 if j != 1 else 2
                fields[j], fields[k] = fields[k], fields[j]
                lines[i] = "\t".join(fields)
                return lines
    if kind == "dump":
        del lines[data[-1]]
        return lines
    if kind == "scores":
        fields = lines[data[1]].split("\t")
        fields[-2] = str(int(fields[-2]) + 1)
        lines[data[1]] = "\t".join(fields)
        return lines
    for i in data:
        if "\tuncovered_headlines\t" in lines[i]:
            fields = lines[i].split("\t")
            fields[-1] = str(int(fields[-1]) + 1)
            lines[i] = "\t".join(fields)
    return lines


def _probe() -> dict:
    """Interpreter and library versions, and proof that moodlex imports
    from this checkout's src."""
    code = ("import json, sys, numpy, scipy, moodlex; print(json.dumps({'python': sys.version.split()[0], "
            "'numpy': numpy.__version__, 'scipy': scipy.__version__, 'moodlex': moodlex.__file__}))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise BenchError(f"cannot import moodlex from {SRC}: {proc.stderr.strip()[-300:]}")
    info = json.loads(proc.stdout)
    if not os.path.abspath(info.pop("moodlex")).startswith(SRC + os.sep):
        raise BenchError(f"moodlex does not import from {SRC}")
    return info


def _commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unknown"


def metadata(seed: int, names: list[str]) -> dict:
    pkg = os.path.join(SRC, "moodlex")
    sources = sorted(f for f in os.listdir(pkg) if f.endswith(".py"))
    digest = hashlib.sha256()
    lines = 0
    for name in sources:
        with open(os.path.join(pkg, name), "rb") as fh:
            body = fh.read()
        digest.update(name.encode() + b"\0" + body)
        lines += body.count(b"\n")
    return {
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "src_moodlex_lines": lines,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        **_probe(),
        "seed": seed,
        "sizes": {n: WORKLOADS[n].sizes for n in names},
        "why": {n: WORKLOADS[n].why for n in names},
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(runner: Runner, trace: bool) -> dict:
    name = runner.workload.name
    units = {n: u for n, u, *_ in END_TO_END + PER_LAYER}
    if trace:
        values = runner.per_layer()
        stale = [r["stale"] for r in runner.traced if r["stale"]]
        if stale:
            print(f"{name}: per-layer numbers are stale: {stale[0]}")
    else:
        values = runner.end_to_end()
        tail = runner.tail()
        if tail:
            print(f"{name:13s} wall_s tail      {tail[0]:.6g} s  (p{tail[1]:.0f}, 10 of {tail[2]} samples above)")
        else:
            print(f"{name:13s} wall_s tail      none: under 20 samples, no percentile above the median has 10 beyond it")
        print(f"{name:13s} samples         {len(runner.full)} full, {len(runner.setup)} set-up")
        if values:
            print(f"{name:13s} {runner.unscaled()}")
    for metric, value in values.items():
        print(f"{name:13s} {metric:34s} {_fmt(value)} {units[metric]}")
    print(f"{name:13s} self-check      {runner.self_checked} corrupted output(s), each counted as failed")
    rate = runner.failed / runner.attempted if runner.attempted else 0.0
    print(f"{name:13s} error_rate      {rate:.6g} ({runner.failed} of {runner.attempted} runs failed)")
    for problem in list(dict.fromkeys(runner.problems))[:10]:
        print(f"{name}: FAILED CHECK: {problem}")
    return {metric: {"value": value, "unit": units[metric]} for metric, value in values.items()}


def write_spec() -> None:
    spec = {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=2)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        write_spec()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "moodlex", "cli.py")):
        print(f"bench: no moodlex sources at {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    runners = []
    try:
        meta = metadata(args.seed, names)
        os.makedirs(WORK, exist_ok=True)
        clock = HostClock(WORK)
        runners = [Runner(WORKLOADS[n], args.seed, trace, clock) for n in names]
        print("# meta " + json.dumps(meta, sort_keys=True))
        for runner in runners:
            runner.prepare()
        # Round-robin across workloads so slow stretches of a shared host
        # fall on all of them. Past the deadline, keep going (for at most
        # as long again) only until every metric has a sample.
        span = args.seconds * len(runners)
        deadline = time.perf_counter() + span
        while time.perf_counter() < deadline or (
            not all(r.complete() for r in runners) and time.perf_counter() < deadline + span
        ):
            for runner in runners:
                runner.step()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        for runner in runners:
            runner.cleanup()

    metrics = {}
    for runner in runners:
        values = report(runner, trace)
        prefix = "" if len(runners) == 1 else runner.workload.name + "/"
        metrics.update({prefix + k: v for k, v in values.items()})
    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    complete = all(r.complete() for r in runners)
    result = {"correct": failed == 0 and complete, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    samples = {r.workload.name: {"full": [vars(x) for x in r.full], "setup": [vars(x) for x in r.setup]}
               for r in runners}
    with open(os.path.join(WORK, "results", stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result, "samples": samples}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
