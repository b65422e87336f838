"""Command-line entry point wiring the modules into batch workflows.

Subcommands: ``build``, ``eval``, ``score``, ``stats``. Logs go to standard
error; data goes to files or standard output. Every output file starts with
metadata lines sufficient to re-run the exact command (a config echo plus
input content hashes). Nothing here samples randomness, so identical inputs
always produce byte-identical outputs. Each subcommand imports only its own modules.
"""

from __future__ import annotations

import argparse
import logging
import os
import shlex
import sys
from contextlib import contextmanager, nullcontext
from typing import NoReturn

# numpy's OpenBLAS starts one busy-waiting thread per extra core, and its
# threaded kernels make a float sum depend on the thread count. No step here
# needs a threaded BLAS kernel, so the command line pins one thread before
# numpy is first imported; a value the user set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__, sink
from .errors import MoodlexError
from .sink import (
    first_misfit,
    format_float,
    format_rows,
    open_sink,
    read_rows,
    replaced_file,
    row_format,
    split_cells,
)

logger = logging.getLogger(__name__)

PROG = "moodlex"

#: CLI weighting flags to internal scheme names.
WEIGHTINGS = {"f": "raw", "nf": "normalized", "tfidf": "tfidf"}

#: Options that name an input file; the metadata hashes each one given.
INPUT_FILES = frozenset(
    ("corpus", "vocab", "lemma_table", "lexicon", "gold", "labels", "mapping", "input")
)


class _StageError(Exception):
    """An error already attributed to a pipeline stage."""


@contextmanager
def _in_stage(name: str):
    try:
        yield
    except (MoodlexError, OSError, UnicodeError) as exc:
        raise _StageError(f"{name}: {exc}") from exc


def _stage(name: str, fn, *args, **kwargs):
    with _in_stage(name):
        return fn(*args, **kwargs)


def _flag(attr: str) -> str:
    return "--" + attr.replace("_", "-")


def _config_echo(subcommand: str, args: argparse.Namespace) -> str:
    parts = [PROG, subcommand]
    for attr in args.echo:
        value = getattr(args, attr)
        if value is None:
            continue
        if isinstance(value, float):
            # The short form only where it reads back as the same value.
            short = format(value, "g")
            value = short if float(short) == value else repr(value)
        # Quoted so that a shell splits the line back into the same values.
        parts.extend([_flag(attr), shlex.quote(str(value))])
    return " ".join(parts)


def _metadata(subcommand: str, args: argparse.Namespace):
    """The command echo, the sha256 of every input file given (in echo order),
    taken as its reader read it, then the tool version: every output's
    metadata lines."""
    lines = [("command", _config_echo(subcommand, args))]
    for attr in args.echo:
        path = getattr(args, attr)
        if attr in INPUT_FILES and path:
            lines.append((f"input-{attr.replace('_', '-')}-sha256", sink.input_digests[path]))
    return lines + [("tool-version", f"{PROG} {__version__}")]


def _check_args(args: argparse.Namespace) -> None:
    """Refuse an option value that the ``# command:`` line cannot hold (one
    holding a line break, or one that cannot be written as UTF-8), and an
    output that replaces an input file or the other output. An output written
    in place is not checked."""
    for attr in args.echo:
        value = getattr(args, attr)
        if not isinstance(value, str):
            continue
        if "\n" in value or "\r" in value:
            raise MoodlexError(f"{_flag(attr)} {value!r} holds a line break")
        try:
            value.encode()
        except UnicodeEncodeError:
            raise MoodlexError(f"{_flag(attr)} {value!r} cannot be written as UTF-8") from None
    taken = {
        os.path.realpath(path): _flag(attr)
        for attr in args.echo
        if attr in INPUT_FILES and (path := getattr(args, attr))
    }
    for attr in ("output", "dump_matrix"):
        path = getattr(args, attr, None)
        if not path or (real := replaced_file(path)) is None:
            continue
        if real in taken:
            raise MoodlexError(f"{_flag(attr)} {path} is the same file as {taken[real]}")
        taken[real] = _flag(attr)


def _lemma_table(path):
    from .textpipe import LemmaTable
    return _stage("load-lemma-table", LemmaTable.from_file, path) if path else None


def _emotion_set(labels_csv: str | None):
    from .corpus import EmotionSet
    if labels_csv is None:
        return EmotionSet.default()
    return EmotionSet(labels_csv.split(","))


def cmd_build(args: argparse.Namespace) -> int:
    from .corpus import check_min_votes_sum, load_corpus
    from .lexicon import build_lexicon, write_lexicon
    from .matrix import check_min_df
    from .textpipe import VocabularyFilter
    with _in_stage("configure"):
        emotions = _emotion_set(args.emotions)
        check_min_df(args.min_df)
        check_min_votes_sum(args.min_votes_sum)
    corpus = _stage(
        "load-corpus", load_corpus, args.corpus, emotions, min_votes_sum=args.min_votes_sum
    )
    vocab = _stage("load-vocabulary", VocabularyFilter.from_file, args.vocab)
    table = _lemma_table(args.lemma_table)
    metadata = _metadata("build", args)

    # The dump is committed only after the lexicon is: a failed build leaves
    # neither file behind.
    dump = open_sink(args.dump_matrix, metadata) if args.dump_matrix else nullcontext()
    with _in_stage("dump-matrix"), dump as dump_fh:
        lex = _stage(
            "build-lexicon",
            build_lexicon,
            corpus,
            vocab,
            WEIGHTINGS[args.weighting],
            lemma_table=table,
            ambiguity=args.ambiguity,
            col_norm=args.col_norm,
            nf_length=args.nf_length,
            min_df=args.min_df,
            matrix_dump_sink=dump_fh,
        )
        # The build's own provenance goes before the closing tool version.
        lex.provenance = metadata[:-1] + lex.provenance + metadata[-1:]
        _stage("write-lexicon", write_lexicon, lex, args.output)
    by_key = dict(lex.provenance)
    logger.info(
        "wrote %s: %s entries, scheme %s, %s zero row(s) dropped",
        args.output,
        by_key.get("entries"),
        by_key.get("scheme"),
        by_key.get("dropped-zero-rows"),
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from .evaluate import EmotionMapping, check_threshold, evaluate_all, load_gold, load_labels
    from .lexicon import read_lexicon
    _stage("configure", check_threshold, args.threshold)
    lex = _stage("read-lexicon", read_lexicon, args.lexicon)
    table = _lemma_table(args.lemma_table)
    gold = _stage(
        "load-gold", load_gold, args.gold, lex, lemma_table=table, ambiguity=args.ambiguity
    )
    if args.labels:
        gold = _stage("load-labels", load_labels, args.labels, gold)
    if args.mapping:
        mapping = _stage("load-mapping", EmotionMapping.from_file, args.mapping)
    else:
        mapping = EmotionMapping.identity(gold.emotions)
    report = _stage(
        "evaluate",
        evaluate_all,
        gold,
        mapping,
        threshold=args.threshold,
        uncovered=args.uncovered,
        minmax=args.minmax,
        with_classification=bool(args.labels),
    )
    metadata = _metadata("eval", args)

    rows = [("regression", t, "pearson_r", format_float(r)) for t, r in report.regression.items()]
    for target, m in (report.classification or {}).items():
        rows += [
            ("classification", target, metric, format_float(getattr(m, metric)))
            for metric in ("precision", "recall", "f1")
        ]
    cov = report.coverage
    rows += [
        ("coverage", "ALL", "mean_headline_coverage", format_float(cov.mean_coverage)),
        ("coverage", "ALL", "uncovered_headlines", str(cov.uncovered_headlines)),
        ("coverage", "ALL", "skipped_empty_headlines", str(cov.skipped_empty_headlines)),
    ]
    rows += [("discarded", t, "discarded_target", "no mapping") for t in report.discarded_targets]
    with _in_stage("write-report"), open_sink(args.output, metadata) as fh:
        fh.write("section\temotion\tmetric\tvalue\n")
        fh.write(format_rows("%s\t%s\t%s\t%s\n", list(zip(*rows))))
    for row in rows:
        logger.info("%s %s: %s %s", *row)
    return 0


def _read_score_input(path) -> tuple[list[str], list[str]]:
    """The ids and the texts of the ``id<TAB>text`` rows of the file at ``path``."""
    rows, linenos, _ = read_rows(path)
    at, fault = first_misfit(rows, 2)
    if fault is not None:
        raise MoodlexError(f"{path}:{linenos[at]}: {fault}")
    cells = split_cells(rows)
    return cells[0::2], cells[1::2]


def cmd_score(args: argparse.Namespace) -> int:
    from .lexicon import read_lexicon, score_texts
    lex = _stage("read-lexicon", read_lexicon, args.lexicon)
    table = _lemma_table(args.lemma_table)
    ids, texts = _stage("read-input", _read_score_input, args.input)
    scores, covered, lengths = score_texts(texts, lex, table, args.ambiguity)

    metadata = _metadata("score", args)
    line = f"%s\t{row_format(len(lex.emotions))}\t%d\t%d\n"
    columns = [ids, *scores.T.tolist(), covered.tolist(), lengths.tolist()]
    with _in_stage("write-scores"), open_sink(args.output, metadata) as fh:
        fh.write("id\t" + "\t".join(lex.emotions) + "\tcovered\ttotal\n")
        fh.write(format_rows(line, columns))
    logger.info("scored %d line(s)", len(ids))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from .corpus import check_min_votes_sum, corpus_stats, load_corpus
    with _in_stage("configure"):
        emotions = _emotion_set(args.emotions)
        check_min_votes_sum(args.min_votes_sum)
    corpus = _stage(
        "load-corpus", load_corpus, args.corpus, emotions, min_votes_sum=args.min_votes_sum
    )
    stats = _stage("corpus-stats", corpus_stats, corpus)
    metadata = _metadata("stats", args)
    names = ["doc_count", "token_count", "mean_doc_length", "emotion", *corpus.emotions]
    values = [stats.doc_count, stats.token_count, format_float(stats.mean_doc_length), "mean_votes"]
    values += map(format_float, stats.mean_votes.tolist())
    with _in_stage("write-stats"), open_sink(args.output, metadata) as fh:
        fh.write(format_rows("%s\t%s\n", [names, values]))
    logger.info(
        "%d document(s), %d token(s), mean length %.1f",
        stats.doc_count,
        stats.token_count,
        stats.mean_doc_length,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Build word-by-emotion lexicons from vote-annotated corpora "
        "and evaluate them on headline emotion recognition.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def finish(p: argparse.ArgumentParser, func) -> None:
        # Kept so existing command lines still parse; the pipeline is serial.
        p.add_argument(
            "--workers", type=int, default=1, help="accepted for compatibility; has no effect"
        )
        # The command echo names every option in add_argument order, less
        # --workers: it has no effect, and outputs must not depend on it.
        echo = tuple(a.dest for a in p._actions if a.dest not in ("help", "workers"))
        p.set_defaults(func=func, echo=echo)

    build = sub.add_parser("build", help="build an emotion lexicon from a corpus")
    build.add_argument("--corpus", required=True, help="corpus file, one JSON record per line")
    build.add_argument("--vocab", required=True, help="vocabulary file, one lemma#pos per line")
    build.add_argument("--lemma-table", help="lemma table file (surface/pos/lemma + [rules])")
    build.add_argument("--output", required=True, help="lexicon output path")
    build.add_argument("--weighting", choices=sorted(WEIGHTINGS), default="nf")
    build.add_argument("--emotions", help="comma-separated emotion labels (default: the 8 builtin)")
    build.add_argument("--col-norm", choices=("sum", "max"), default="sum")
    build.add_argument("--min-df", type=int, default=1)
    build.add_argument("--min-votes-sum", type=float, default=None)
    build.add_argument("--nf-length", choices=("filtered", "raw"), default="filtered")
    build.add_argument("--ambiguity", choices=("all", "first"), default="all")
    build.add_argument("--dump-matrix", help="also dump the weighted term-document matrix")
    finish(build, cmd_build)

    evalp = sub.add_parser("eval", help="evaluate a lexicon on gold headlines")
    evalp.add_argument("--lexicon", required=True)
    evalp.add_argument("--gold", required=True, help="gold file: id<TAB>text<TAB>emotions...")
    evalp.add_argument("--labels", help="optional gold label file: id<TAB>LABEL[,LABEL...]")
    evalp.add_argument("--mapping", help="target<TAB>source emotion mapping file")
    evalp.add_argument("--lemma-table")
    evalp.add_argument("--ambiguity", choices=("all", "first"), default="all")
    evalp.add_argument("--uncovered", choices=("zero", "skip"), default="zero")
    evalp.add_argument("--minmax", choices=("per-emotion", "joint"), default="per-emotion")
    evalp.add_argument("--threshold", type=float, default=0.5)
    evalp.add_argument("--output", help="report output path (default: stdout)")
    finish(evalp, cmd_eval)

    score = sub.add_parser("score", help="score headlines with a lexicon")
    score.add_argument("--lexicon", required=True)
    score.add_argument("--input", required=True, help="input file: id<TAB>text per line")
    score.add_argument("--lemma-table")
    score.add_argument("--ambiguity", choices=("all", "first"), default="all")
    score.add_argument("--output", help="output path (default: stdout)")
    finish(score, cmd_score)

    stats = sub.add_parser("stats", help="summarize a corpus")
    stats.add_argument("--corpus", required=True)
    stats.add_argument("--emotions")
    stats.add_argument("--min-votes-sum", type=float, default=None)
    stats.add_argument("--output", help="output path (default: stdout)")
    finish(stats, cmd_stats)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    sink.input_digests = {}  # this run's inputs, hashed as they are read
    try:
        _stage("configure", _check_args, args)
        return args.func(args)
    except _StageError as exc:
        logger.error("%s", exc)
        return 1
    finally:
        sink.input_digests = None


def entry() -> NoReturn:
    """The ``moodlex`` command: :func:`main`, then ``os._exit`` to skip teardown
    and ``atexit``; ``open_sink`` has committed every output by then."""
    code = main()
    logging.shutdown()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:  # the stage that failed to write has reported it
        code = 1
    os._exit(code)


if __name__ == "__main__":
    entry()
