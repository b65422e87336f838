"""Traced in-process run of one moodlex CLI command.

usage: python trace_run.py SPANS_JSON OUT_PREFIX -- <moodlex CLI arguments>

The command is decomposed into the public module functions the CLI calls,
called in the CLI's order, with a span (name, start, end, parent) around
each call. ``build`` writes its lexicon and matrix dump under OUT_PREFIX plus
the CLI's file names, so the caller can check them byte for byte against the
CLI's own output; ``score`` and ``eval`` record the counts the caller checks
against known answers. Spans and counts stay in memory and are written to
SPANS_JSON once at exit. When a public function the decomposition calls is
gone or fails, SPANS_JSON records the reason under ``stale``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from contextlib import contextmanager


class Trace:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.counts: dict[str, float] = {}
        self.stale: str | None = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def peak_rss(self, name: str) -> None:
        """Peak RSS of this process so far, in MiB (Linux reports KiB)."""
        self.counts[name] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "stale": self.stale}, fh)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _metadata(cli_argv: list[str], inputs: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """The CLI's metadata lines. The caller passes every echoed flag
    explicitly and in echo order, so the echo is the argument list without
    ``--workers``."""
    echo = []
    skip = False
    for arg in cli_argv:
        if skip:
            skip = False
        elif arg == "--workers":
            skip = True
        else:
            echo.append(arg)
    lines = [("command", "moodlex " + " ".join(echo))]
    lines.extend((f"input-{name}-sha256", _sha256(path)) for name, path in inputs)
    return lines


def _text_counts(trace: Trace, surface: int, distinct: set, candidates: int, kept: int) -> None:
    trace.counts["textpipe.surface_tokens"] = surface
    trace.counts["textpipe.distinct_surface_share"] = len(distinct) / surface if surface else 0.0
    trace.counts["textpipe.candidates_per_surface"] = candidates / surface if surface else 0.0
    trace.counts["textpipe.oov_rate"] = 1.0 - kept / candidates if candidates else 0.0


def run_build(args, cli_argv: list[str], prefix: str, trace: Trace) -> None:
    import moodlex
    from moodlex import cli, corpus, lexicon, matrix, textpipe

    emotions = corpus.EmotionSet.default() if args.emotions is None else corpus.EmotionSet(
        label for label in args.emotions.split(",") if label.strip()
    )
    with trace.span("corpus.load_corpus"):
        records = corpus.load_corpus(args.corpus, emotions, min_votes_sum=args.min_votes_sum)
    trace.peak_rss("corpus.load_corpus.rss_mib")
    with trace.span("textpipe.vocab_load"):
        vocab = textpipe.VocabularyFilter.from_file(args.vocab)
    table = None
    if args.lemma_table:
        with trace.span("textpipe.lemma_table_load"):
            table = textpipe.LemmaTable.from_file(args.lemma_table)
    inputs = [("corpus", args.corpus), ("vocab", args.vocab)]
    if args.lemma_table:
        inputs.append(("lemma-table", args.lemma_table))
    metadata = _metadata(cli_argv, inputs)
    tool_version = ("tool-version", f"moodlex {moodlex.__version__}")

    dump_fh = None
    if args.dump_matrix:
        dump_fh = open(prefix + args.dump_matrix, "w", encoding="utf-8", newline="\n")
        for key, value in metadata + [tool_version]:
            dump_fh.write(f"# {key}: {value}\n")
    surface = candidates_total = kept_total = 0
    distinct: set[str] = set()
    try:
        # The steps of lexicon.build_lexicon, through public functions.
        with trace.span("lexicon.build_lexicon"):
            scheme = cli.WEIGHTINGS[args.weighting]
            table = table if table is not None else textpipe.LemmaTable()
            tagger = textpipe.CandidateTagger(vocab=vocab, policy=args.ambiguity)
            prepared = []
            raw_lengths = {}
            for record in records:
                if record.tokens is not None:
                    candidates = record.tokens
                else:
                    with trace.span("textpipe.tokenize"):
                        words = textpipe.tokenize(record.text or "")
                    with trace.span("textpipe.lemmatize"):
                        candidates = textpipe.lemmatize(words, table, tagger)
                    surface += len(words)
                    distinct.update(words)
                raw_lengths[record.doc_id] = len(candidates)
                with trace.span("textpipe.filter_vocabulary"):
                    filtered = textpipe.filter_vocabulary(candidates, vocab)
                candidates_total += len(candidates)
                kept_total += len(filtered)
                prepared.append(
                    corpus.DocumentRecord(doc_id=record.doc_id, votes=record.votes, tokens=tuple(filtered))
                )
            kept = [record for record in prepared if record.tokens]
            with trace.span("matrix.count_terms"):
                counted = matrix.count_terms(kept, raw_lengths=raw_lengths, workers=args.workers)
            trace.peak_rss("matrix.count_terms.rss_mib")
            with trace.span("matrix.filter_min_df"):
                pruned = matrix.filter_min_df(counted, args.min_df)
            with trace.span("matrix.apply_weighting"):
                weighted = matrix.apply_weighting(pruned, scheme, nf_length=args.nf_length)
            if dump_fh is not None:
                with trace.span("matrix.write_matrix_dump"):
                    matrix.write_matrix_dump(weighted, dump_fh)
            with trace.span("corpus.vote_matrix"):
                votes = corpus.vote_matrix(kept, emotions)
            with trace.span("lexicon.emotion_product"):
                raw_we = lexicon.emotion_product(weighted, votes)
            with trace.span("lexicon.column_normalize"):
                normalized = lexicon.column_normalize(raw_we, emotions.labels, mode=args.col_norm)
            with trace.span("lexicon.row_scale"):
                words, scaled, dropped_rows = lexicon.row_scale(normalized, weighted.words)
            provenance = [
                ("scheme", scheme),
                ("col-norm", args.col_norm),
                ("nf-length", args.nf_length),
                ("min-df", str(args.min_df)),
                ("ambiguity", args.ambiguity),
                ("entries", str(len(words))),
                ("dropped-zero-rows", str(dropped_rows)),
                ("dropped-empty-docs", str(len(prepared) - len(kept))),
            ]
            lex = lexicon.EmotionLexicon(emotions.labels, zip(words, scaled), provenance=provenance)
    finally:
        if dump_fh is not None:
            dump_fh.close()
    lex.provenance = metadata + lex.provenance + [tool_version]
    with trace.span("lexicon.write_lexicon"):
        lexicon.write_lexicon(lex, prefix + args.output)

    trace.counts["corpus.docs"] = len(records)
    trace.counts["corpus.tokens"] = surface if surface else candidates_total
    trace.counts["corpus.bytes"] = os.path.getsize(args.corpus)
    _text_counts(trace, surface, distinct, candidates_total, kept_total)
    trace.counts["matrix.nnz"] = weighted.matrix.nnz
    trace.counts["matrix.terms"] = len(weighted.words)
    trace.counts["matrix.min_df_dropped"] = len(counted.words) - len(pruned.words)
    trace.counts["matrix.tfidf_dropped"] = len(pruned.words) - len(weighted.words)
    trace.counts["matrix.dump_bytes"] = os.path.getsize(prefix + args.dump_matrix) if args.dump_matrix else 0
    trace.counts["lexicon.entries"] = len(words)
    trace.counts["lexicon.zero_rows_dropped"] = dropped_rows


def _lemma_table(args, trace: Trace):
    from moodlex import textpipe

    if not args.lemma_table:
        return textpipe.LemmaTable()
    with trace.span("textpipe.lemma_table_load"):
        return textpipe.LemmaTable.from_file(args.lemma_table)


def run_score(args, cli_argv: list[str], prefix: str, trace: Trace) -> None:
    from moodlex import evaluate, lexicon, textpipe

    with trace.span("lexicon.read_lexicon"):
        lex = lexicon.read_lexicon(args.lexicon)
    table = _lemma_table(args, trace)
    with open(args.input, encoding="utf-8") as fh:
        entries = [
            line.rstrip("\r\n").split("\t")
            for line in fh
            if line.strip() and not line.startswith("#")
        ]
    with trace.span("textpipe.vocab_load"):
        vocab = textpipe.VocabularyFilter(lex.words)
    tagger = textpipe.CandidateTagger(vocab=vocab, policy=args.ambiguity)
    streams = []
    surface = 0
    distinct: set[str] = set()
    for _, text in entries:
        with trace.span("textpipe.tokenize"):
            words = textpipe.tokenize(text)
        with trace.span("textpipe.lemmatize"):
            streams.append(textpipe.lemmatize(words, table, tagger))
        surface += len(words)
        distinct.update(words)
    with trace.span("evaluate.batch_score"):
        scored = evaluate.batch_score(streams, lex, args.workers)
    candidates = sum(len(s) for s in streams)
    covered = sum(c for _, c in scored)
    _text_counts(trace, surface, distinct, candidates, covered)
    trace.counts["lexicon.entries"] = len(lex)
    trace.counts["score.covered_total"] = {
        hid: [c, len(tokens)] for (hid, _), tokens, (_, c) in zip(entries, streams, scored)
    }


def run_eval(args, cli_argv: list[str], prefix: str, trace: Trace) -> None:
    from moodlex import evaluate, lexicon

    with trace.span("lexicon.read_lexicon"):
        lex = lexicon.read_lexicon(args.lexicon)
    table = _lemma_table(args, trace)
    with trace.span("evaluate.load_gold"):
        gold = evaluate.load_gold(args.gold, lex, lemma_table=table, ambiguity=args.ambiguity)
    if args.labels:
        with trace.span("evaluate.load_labels"):
            gold = evaluate.load_labels(args.labels, gold)
    if args.mapping:
        mapping = evaluate.EmotionMapping.from_file(args.mapping)
    else:
        mapping = evaluate.EmotionMapping.identity(gold.emotions)
    # The steps of evaluate.evaluate_all, through public functions.
    with trace.span("evaluate.evaluate_regression"):
        evaluate.evaluate_regression(gold, lex, mapping, uncovered=args.uncovered, workers=args.workers)
    if args.labels:
        with trace.span("evaluate.evaluate_classification"):
            evaluate.evaluate_classification(
                gold, lex, mapping, threshold=args.threshold, uncovered=args.uncovered,
                minmax=args.minmax, workers=args.workers,
            )
    with trace.span("evaluate.coverage_stats"):
        coverage = evaluate.coverage_stats(gold.headlines, lex)
    trace.counts["evaluate.headlines"] = len(gold.headlines)
    trace.counts["evaluate.uncovered_headlines"] = coverage.uncovered_headlines


RUNNERS = {"build": run_build, "score": run_score, "eval": run_eval}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, prefix, cli_argv = argv[0], argv[1], argv[3:]
    trace = Trace()
    from moodlex import cli

    args = cli.build_parser().parse_args(cli_argv)
    try:
        RUNNERS[args.subcommand](args, cli_argv, prefix, trace)
    except Exception as exc:  # a changed or missing public function: report, don't crash
        trace.stale = f"{type(exc).__name__}: {exc}"
    trace.dump(spans_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
