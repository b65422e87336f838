"""Headline evaluation: lexicon scoring, regression and classification
metrics, label mapping, and coverage statistics.

A gold set is columnar, its headlines sorted by id, and all of them are
scored once, by one ``lexicon.score_texts`` call when the set is loaded, so
metrics aggregate in headline-id order and reports are deterministic. Gold
scores arriving on a 0-100 scale are auto-detected (any value above 1) and
divided by 100.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from itertools import compress, count, repeat
from operator import is_, is_not, itemgetter, methodcaller, not_
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import textpipe
from .errors import EvaluationError
from .lexicon import EmotionLexicon, score_texts
from .sink import (
    emotion_fault, first_misfit, first_repeat, first_true, parse_scores, read_rows, split_cells,
)

logger = logging.getLogger(__name__)

UNCOVERED_POLICIES = ("zero", "skip")
MINMAX_SCOPES = ("per-emotion", "joint")


@dataclass(frozen=True, eq=False)
class GoldSet:
    """Evaluation headlines scored by one lexicon, one array or tuple per
    field, sorted by id.

    Headline ``i`` has the id ``ids[i]``, per-emotion gold scores in [0, 1]
    in row ``gold[i]`` and classification gold labels in row ``labels[i]``,
    one column per entry of ``emotions`` (the gold file's order). Its
    predicted scores are row ``scores[i]``, one column per entry of
    ``sources`` (the lexicon's emotions, stripped and upper-cased): the mean
    lexicon row of the ``covered[i]`` of its ``lengths[i]`` lemma#pos tokens
    that the lexicon holds.
    """

    emotions: tuple[str, ...]
    ids: tuple[str, ...]
    gold: np.ndarray
    labels: np.ndarray
    sources: tuple[str, ...]
    scores: np.ndarray
    covered: np.ndarray
    lengths: np.ndarray


@dataclass(frozen=True)
class EmotionMapping:
    """Injective alignment from target (gold) emotions to source (lexicon)
    emotions; targets without a mapping are excluded from evaluation and
    reported as discarded."""

    pairs: Mapping[str, str]

    def __post_init__(self) -> None:
        sources = list(self.pairs.values())
        if len(set(sources)) != len(sources):
            raise EvaluationError("emotion mapping is not injective")

    @classmethod
    def identity(cls, targets: Iterable[str]) -> "EmotionMapping":
        return cls(pairs={t: t for t in targets})

    @classmethod
    def from_file(cls, path) -> "EmotionMapping":
        """Load ``TARGET<TAB>SOURCE`` rows, each name stripped and upper-cased;
        ``TARGET<TAB>-`` discards a target."""
        rows, linenos, _ = read_rows(path)
        # Checked as in load_gold: the last fault found is the first bad line's.
        end, fault = first_misfit(rows, 2)
        names = [name.strip().upper() for name in split_cells(rows[:end])]
        targets, sources = names[0::2], names[1::2]
        at = first_true(map(not_, names), 2 * end) // 2
        if at < end:
            end, fault = at, "empty emotion name"
        at = first_repeat(targets, end)
        if at < end:
            end, fault = at, f"duplicate target {targets[at]!r}"
        # A discard, "-", is numbered by its row so that it repeats nothing.
        at = first_repeat([n if s == "-" else s for n, s in enumerate(sources)], end)
        if at < end:
            end, fault = at, f"duplicate source {sources[at]!r}: mapping is not injective"
        if fault is not None:
            raise EvaluationError(f"{path}:{linenos[end]}: {fault}")
        return cls(pairs={t: s for t, s in zip(targets, sources) if s != "-"})


@dataclass(frozen=True)
class ClassificationMetrics:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class CoverageStats:
    """Mean covered-token fraction over non-empty headlines, plus counts of
    fully uncovered and zero-token headlines."""

    mean_coverage: float
    uncovered_headlines: int
    skipped_empty_headlines: int


@dataclass(frozen=True)
class EvalReport:
    regression: dict[str, float]
    classification: dict[str, ClassificationMetrics] | None
    coverage: CoverageStats
    discarded_targets: tuple[str, ...]


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson product-moment correlation.

    The two means and the three sums of products are ``math.fsum`` sums,
    correctly rounded, so r depends on no BLAS kernel and no summation order.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise EvaluationError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise EvaluationError("need at least 2 observations")
    dx = x - math.fsum(x.tolist()) / x.size
    dy = y - math.fsum(y.tolist()) / y.size
    sx = math.fsum((dx * dx).tolist())
    sy = math.fsum((dy * dy).tolist())
    # A rounded mean leaves a constant sequence a tiny sx or sy, and their
    # product can underflow: either way r would be noise or divide by zero.
    if x.min() == x.max() or y.min() == y.max() or sx * sy == 0.0:
        raise EvaluationError("undefined correlation for a constant sequence")
    r = math.fsum((dx * dy).tolist()) / math.sqrt(sx * sy)
    return min(1.0, max(-1.0, r))


def min_max_normalize(scores: Sequence[float]) -> np.ndarray:
    """Rescale linearly so the minimum maps to 0 and the maximum to 1.

    A constant sequence normalizes to all zeros (with a warning) so batch
    evaluation stays total.
    """
    arr = np.asarray(scores, dtype=np.float64)
    if arr.size == 0:
        raise EvaluationError("cannot min-max normalize an empty sequence")
    lo = float(arr.min())
    hi = float(arr.max())
    if hi == lo:
        logger.warning("constant score sequence min-max normalized to all zeros")
        return np.zeros_like(arr)
    return (arr - lo) / (hi - lo)


def _check_mapping(mapping: EmotionMapping, gold: GoldSet) -> list[str]:
    """Targets to evaluate, in gold-file order; validates mapped sources."""
    targets = [t for t in gold.emotions if t in mapping.pairs]
    missing = [mapping.pairs[t] for t in targets if mapping.pairs[t] not in gold.sources]
    if missing:
        raise EvaluationError(
            f"mapped source emotion(s) not in lexicon: {sorted(set(missing))}"
        )
    return targets


def _kept(covered: np.ndarray, uncovered: str) -> np.ndarray:
    """Which headlines the metrics read: all, or only the covered ones."""
    if uncovered not in UNCOVERED_POLICIES:
        raise EvaluationError(f"unknown uncovered policy {uncovered!r}")
    keep = (covered > 0) | (uncovered == "zero")
    if not keep.any():
        raise EvaluationError("no headlines left to evaluate")
    return keep


def evaluate_regression(
    gold: GoldSet, mapping: EmotionMapping, *, uncovered: str = "zero"
) -> dict[str, float]:
    """Per mapped target emotion, the Pearson correlation between predicted
    headline scores (the mapped lexicon column) and gold scores."""
    targets = _check_mapping(mapping, gold)
    keep = _kept(gold.covered, uncovered)
    return {
        target: pearson(
            gold.scores[keep, gold.sources.index(mapping.pairs[target])],
            gold.gold[keep, gold.emotions.index(target)],
        )
        for target in targets
    }


def precision_recall_f1(tp: int, fp: int, fn: int) -> ClassificationMetrics:
    """Precision, recall and F1 from confusion counts; all duck to 0 instead
    of dividing by zero (an emotion with no positive predictions scores 0)."""
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return ClassificationMetrics(precision=precision, recall=recall, f1=f1)


def check_threshold(threshold: float) -> None:
    """Raise :class:`EvaluationError` unless ``threshold`` is finite."""
    if not math.isfinite(threshold):
        raise EvaluationError(f"threshold must be finite, got {threshold}")


def evaluate_classification(
    gold: GoldSet,
    mapping: EmotionMapping,
    *,
    threshold: float = 0.5,
    uncovered: str = "zero",
    minmax: str = "per-emotion",
) -> dict[str, ClassificationMetrics]:
    """Binary decisions per emotion after min-max normalizing predicted scores
    over all test headlines: positive iff the normalized score exceeds the
    threshold (strictly). An emotion with no positive predictions scores 0
    precision/recall/F1, never an error."""
    if minmax not in MINMAX_SCOPES:
        raise EvaluationError(f"unknown minmax scope {minmax!r}")
    check_threshold(threshold)
    targets = _check_mapping(mapping, gold)
    if not targets:  # every target discarded or unmapped, as in evaluate_regression
        return {}
    keep = _kept(gold.covered, uncovered)
    raw = gold.scores[keep][:, [gold.sources.index(mapping.pairs[t]) for t in targets]]
    if minmax == "per-emotion":
        normalized = np.stack([min_max_normalize(raw[:, j]) for j in range(raw.shape[1])], axis=1)
    else:
        normalized = min_max_normalize(raw.ravel()).reshape(raw.shape)
    predictions = normalized > threshold
    actuals = gold.labels[keep][:, [gold.emotions.index(t) for t in targets]]
    results: dict[str, ClassificationMetrics] = {}
    for predicted, actual, target in zip(predictions.T, actuals.T, targets):
        tp = int(np.sum(predicted & actual))
        fp = int(np.sum(predicted & ~actual))
        fn = int(np.sum(~predicted & actual))
        results[target] = precision_recall_f1(tp, fp, fn)
    return results


def coverage_stats(gold: GoldSet) -> CoverageStats:
    """Mean per-headline covered-token fraction; zero-token headlines are
    skipped and counted."""
    lengths, covered = gold.lengths, gold.covered
    nonempty = lengths > 0
    if not nonempty.any():
        raise EvaluationError("need at least one headline with at least one token")
    return CoverageStats(
        mean_coverage=float(np.mean(covered[nonempty] / lengths[nonempty])),
        uncovered_headlines=int(np.sum(nonempty & (covered == 0))),
        skipped_empty_headlines=int(np.sum(~nonempty)),
    )


def evaluate_all(
    gold: GoldSet,
    mapping: EmotionMapping,
    *,
    threshold: float = 0.5,
    uncovered: str = "zero",
    minmax: str = "per-emotion",
    with_classification: bool = True,
) -> EvalReport:
    """Full report: regression, optional classification, coverage, and the
    list of discarded target emotions."""
    regression = evaluate_regression(gold, mapping, uncovered=uncovered)
    classification = None
    if with_classification:
        classification = evaluate_classification(
            gold, mapping, threshold=threshold, uncovered=uncovered, minmax=minmax
        )
    return EvalReport(
        regression=regression,
        classification=classification,
        coverage=coverage_stats(gold),
        discarded_targets=tuple(t for t in gold.emotions if t not in mapping.pairs),
    )


def load_gold(
    path,
    lex: EmotionLexicon,
    *,
    lemma_table: textpipe.LemmaTable | None = None,
    ambiguity: str = "all",
) -> GoldSet:
    """Load ``id<TAB>text<TAB>e1...`` gold headlines with an emotion-name
    header, lemmatizing the text with candidates licensed by the lexicon,
    and score every headline with that lexicon.

    Scores must all lie in [0, 1], or all in [0, 100] (detected by any value
    exceeding 1 and divided by 100); negative values or values above 100 are
    rejected. The headlines come out sorted by id, whatever the line order.
    """
    rows, linenos, _ = read_rows(path)
    if not rows:
        raise EvaluationError(f"{path}: missing gold header")
    fields = rows[0].split("\t")
    if len(fields) < 3 or fields[0] != "id" or fields[1] != "text":
        raise EvaluationError(
            f"{path}:{linenos[0]}: expected header 'id<TAB>text<TAB>EMOTION...'"
        )
    if fault := emotion_fault(fields[2:]):
        raise EvaluationError(f"{path}:{linenos[0]}: {fault}")
    emotions = tuple(f.strip().upper() for f in fields[2:])
    del rows[0], linenos[0]
    # Each check reads the rows before the first bad one found so far, in the
    # order a line's faults are reported: the last fault found is the first
    # bad line's first fault.
    width = len(emotions)
    gold, end, fault = parse_scores(rows, 2, width)
    heads = list(map(methodcaller("split", "\t", 2), rows[:end]))
    del rows
    ids, texts = list(map(itemgetter(0), heads)), list(map(itemgetter(1), heads))
    del heads  # freed before the texts are lemmatized
    at = first_repeat(ids, end)
    if at < end:
        end, fault = at, f"duplicate headline id {ids[at]!r}"
    if len(gold) < end:
        end, fault = len(gold), "non-numeric gold score"
    gold = gold[:end]
    with np.errstate(invalid="ignore"):
        at = first_true((~((gold >= 0) & (gold <= 100)).all(axis=1)).tolist(), end)
    if at < end:
        end, fault = at, "gold scores must lie in [0, 1] or [0, 100]"
    if fault is not None:
        raise EvaluationError(f"{path}:{linenos[end]}: {fault}")
    if not ids:
        raise EvaluationError(f"{path}: no gold headlines")
    order = sorted(range(len(ids)), key=ids.__getitem__)
    ids = tuple(map(ids.__getitem__, order))
    gold = gold[order]
    if (gold > 1.0).any():
        logger.info("gold scores detected on a 0-100 scale; dividing by 100")
        gold /= 100.0
    scores, covered, lengths = score_texts(
        list(map(texts.__getitem__, order)), lex, lemma_table, ambiguity
    )
    labels = np.zeros(gold.shape, dtype=bool)
    sources = tuple(e.strip().upper() for e in lex.emotions)  # as every emotion name is read
    return GoldSet(emotions, ids, gold, labels, sources, scores, covered, lengths)


def load_labels(path, gold: GoldSet) -> GoldSet:
    """Attach classification gold labels from ``id<TAB>LABEL[,LABEL...]``
    lines; headlines absent from the file keep an empty label set. A label
    field must name at least one emotion."""
    rows, linenos, _ = read_rows(path)
    # Checked as in load_gold: the last fault found is the first bad line's.
    end, fault = first_misfit(rows, 2)
    cells = split_cells(rows[:end])
    ids, fields = cells[0::2], cells[1::2]
    heads = list(map(dict(zip(gold.ids, count())).get, ids))
    at = first_true(map(is_, heads, repeat(None)), end)
    if at < end:
        end, fault = at, f"unknown headline id {ids[at]!r}"
    at = first_repeat(heads, end)
    if at < end:
        end, fault = at, f"duplicate labels for {ids[at]!r}"
    # A field that is exactly one emotion name is its column; any other is
    # split at commas, its names stripped and upper-cased.
    column_of = dict(zip(gold.emotions, count()))
    plain = {e: j for e, j in column_of.items() if "," not in e and e.strip().upper() == e}
    columns = list(map(plain.get, fields[:end]))
    is_plain = list(map(is_not, columns, repeat(None)))
    label_rows, label_columns = list(compress(heads, is_plain)), list(compress(columns, is_plain))
    for at in compress(count(), map(not_, is_plain)):
        names = {l.strip().upper() for l in fields[at].split(",") if l.strip()}
        if not names:
            end, fault = at, f"label field names no emotion: {fields[at]!r}"
            break
        unknown = names - column_of.keys()
        if unknown:
            end, fault = at, f"label(s) outside the gold emotion set: {sorted(unknown)}"
            break
        label_rows += [heads[at]] * len(names)
        label_columns += map(column_of.__getitem__, names)
    if fault is not None:
        raise EvaluationError(f"{path}:{linenos[end]}: {fault}")
    labels = np.zeros(gold.gold.shape, dtype=bool)
    labels[label_rows, label_columns] = True
    return replace(gold, labels=labels)
