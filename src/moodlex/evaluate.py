"""Headline evaluation: lexicon scoring, regression and classification
metrics, label mapping, and coverage statistics.

All headlines of a set are scored together by one ``lexicon.score_all``
call; metric aggregation always runs in headline-id order, so reports are
deterministic. Gold scores arriving on a 0-100 scale are auto-detected (any
value above 1) and divided by 100.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import textpipe
from .errors import EvaluationError
from .lexicon import EmotionLexicon, score_all
from .sink import open_source

logger = logging.getLogger(__name__)

UNCOVERED_POLICIES = ("zero", "skip")
MINMAX_SCOPES = ("per-emotion", "joint")


@dataclass(frozen=True, eq=False)
class GoldHeadline:
    """One evaluation headline: lemma#pos tokens, per-emotion gold scores in
    [0, 1], and optional classification gold labels."""

    headline_id: str
    tokens: tuple[str, ...]
    gold: Mapping[str, float]
    gold_labels: frozenset[str] = frozenset()


@dataclass(frozen=True)
class GoldSet:
    """Evaluation headlines plus the target emotion order from the gold file."""

    emotions: tuple[str, ...]
    headlines: tuple[GoldHeadline, ...]


@dataclass(frozen=True)
class EmotionMapping:
    """Injective alignment from target (gold) emotions to source (lexicon)
    emotions; targets without a mapping are excluded from evaluation and
    reported as discarded."""

    pairs: Mapping[str, str]
    discarded: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        sources = list(self.pairs.values())
        if len(set(sources)) != len(sources):
            raise EvaluationError("emotion mapping is not injective")
        overlap = set(self.pairs) & set(self.discarded)
        if overlap:
            raise EvaluationError(
                f"targets both mapped and discarded: {sorted(overlap)}"
            )

    @classmethod
    def identity(cls, targets: Iterable[str]) -> "EmotionMapping":
        return cls(pairs={t: t for t in targets})

    @classmethod
    def from_file(cls, path) -> "EmotionMapping":
        """Load ``TARGET<TAB>SOURCE`` lines; ``TARGET<TAB>-`` discards a target."""
        pairs: dict[str, str] = {}
        discarded: list[str] = []
        with open_source(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                fields = line.split("\t")
                if len(fields) != 2:
                    raise EvaluationError(
                        f"{path}:{lineno}: expected 'TARGET<TAB>SOURCE', got {line!r}"
                    )
                target, source = fields[0].strip().upper(), fields[1].strip().upper()
                if target in pairs or target in discarded:
                    raise EvaluationError(f"{path}:{lineno}: duplicate target {target!r}")
                if source == "-":
                    discarded.append(target)
                else:
                    pairs[target] = source
        return cls(pairs=pairs, discarded=tuple(discarded))


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
    """Sample Pearson product-moment correlation."""
    x = np.asarray(list(xs), dtype=np.float64)
    y = np.asarray(list(ys), dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise EvaluationError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise EvaluationError("need at least 2 observations")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.dot(dx, dx))
    sy = float(np.dot(dy, dy))
    if sx == 0.0 or sy == 0.0:
        raise EvaluationError("undefined correlation for a constant sequence")
    r = float(np.dot(dx, dy)) / np.sqrt(sx * sy)
    return float(min(1.0, max(-1.0, r)))


def min_max_normalize(scores: Sequence[float]) -> np.ndarray:
    """Rescale linearly so the minimum maps to 0 and the maximum to 1.

    A constant sequence normalizes to all zeros (with a warning) so batch
    evaluation stays total.
    """
    arr = np.asarray(list(scores), dtype=np.float64)
    if arr.size == 0:
        raise EvaluationError("cannot min-max normalize an empty sequence")
    lo = float(arr.min())
    hi = float(arr.max())
    if hi == lo:
        logger.warning("constant score sequence min-max normalized to all zeros")
        return np.zeros_like(arr)
    return (arr - lo) / (hi - lo)


def _check_mapping(
    mapping: EmotionMapping, gold_emotions: Sequence[str], lex: EmotionLexicon
) -> list[str]:
    """Targets to evaluate, in gold-file order; validates mapped sources."""
    targets = [t for t in gold_emotions if t in mapping.pairs]
    missing = [
        mapping.pairs[t] for t in targets if mapping.pairs[t] not in lex.emotions
    ]
    if missing:
        raise EvaluationError(
            f"mapped source emotion(s) not in lexicon: {sorted(set(missing))}"
        )
    return targets


#: Headlines in id order, their score rows and their covered-token counts.
_Scored = tuple[list[GoldHeadline], np.ndarray, np.ndarray]


def _scored_headlines(headlines: Sequence[GoldHeadline], lex: EmotionLexicon) -> _Scored:
    """Every headline scored once, by one :func:`score_all` call.

    Aggregation runs in headline-id order regardless of input order.
    """
    ordered = sorted(headlines, key=lambda h: h.headline_id)
    return (ordered, *score_all([h.tokens for h in ordered], lex))


def _kept_scores(scored: _Scored, uncovered: str) -> tuple[list[GoldHeadline], np.ndarray]:
    if uncovered not in UNCOVERED_POLICIES:
        raise EvaluationError(f"unknown uncovered policy {uncovered!r}")
    ordered, scores, covered = scored
    keep = (covered > 0) | (uncovered == "zero")
    if not keep.any():
        raise EvaluationError("no headlines left to evaluate")
    return [h for h, k in zip(ordered, keep) if k], scores[keep]


def _regression(
    gold: GoldSet, lex: EmotionLexicon, mapping: EmotionMapping, scored: _Scored, uncovered: str
) -> dict[str, float]:
    targets = _check_mapping(mapping, gold.emotions, lex)
    kept, scores = _kept_scores(scored, uncovered)
    results: dict[str, float] = {}
    for target in targets:
        source_col = lex.emotions.index(mapping.pairs[target])
        predicted = scores[:, source_col]
        actual = [h.gold[target] for h in kept]
        results[target] = pearson(predicted, actual)
    return results


def evaluate_regression(
    gold: GoldSet,
    lex: EmotionLexicon,
    mapping: EmotionMapping,
    *,
    uncovered: str = "zero",
) -> dict[str, float]:
    """Per mapped target emotion, the Pearson correlation between predicted
    headline scores (the mapped lexicon column) and gold scores."""
    return _regression(gold, lex, mapping, _scored_headlines(gold.headlines, lex), uncovered)


def precision_recall_f1(tp: int, fp: int, fn: int) -> ClassificationMetrics:
    """Precision, recall and F1 from confusion counts; all duck to 0 instead
    of dividing by zero (an emotion with no positive predictions scores 0)."""
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return ClassificationMetrics(precision=precision, recall=recall, f1=f1)


def _classification(
    gold: GoldSet,
    lex: EmotionLexicon,
    mapping: EmotionMapping,
    scored: _Scored,
    threshold: float,
    uncovered: str,
    minmax: str,
) -> dict[str, ClassificationMetrics]:
    if minmax not in MINMAX_SCOPES:
        raise EvaluationError(f"unknown minmax scope {minmax!r}")
    targets = _check_mapping(mapping, gold.emotions, lex)
    if not targets:  # every target discarded or unmapped, as in _regression
        return {}
    kept, scores = _kept_scores(scored, uncovered)
    raw = np.stack(
        [scores[:, lex.emotions.index(mapping.pairs[t])] for t in targets], axis=1
    )
    if minmax == "per-emotion":
        normalized = np.stack([min_max_normalize(raw[:, j]) for j in range(raw.shape[1])], axis=1)
    else:
        flat = min_max_normalize(raw.ravel())
        normalized = flat.reshape(raw.shape)
    predictions = normalized > threshold
    results: dict[str, ClassificationMetrics] = {}
    for j, target in enumerate(targets):
        actual = np.asarray([target in h.gold_labels for h in kept], dtype=bool)
        predicted = predictions[:, j]
        tp = int(np.sum(predicted & actual))
        fp = int(np.sum(predicted & ~actual))
        fn = int(np.sum(~predicted & actual))
        results[target] = precision_recall_f1(tp, fp, fn)
    return results


def evaluate_classification(
    gold: GoldSet,
    lex: EmotionLexicon,
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
    scored = _scored_headlines(gold.headlines, lex)
    return _classification(gold, lex, mapping, scored, threshold, uncovered, minmax)


def _coverage(scored: _Scored) -> CoverageStats:
    ordered, _, covered = scored
    total = np.fromiter((len(h.tokens) for h in ordered), dtype=np.int64, count=len(ordered))
    nonempty = total > 0
    if not nonempty.any():
        raise EvaluationError("need at least one headline with at least one token")
    return CoverageStats(
        mean_coverage=float(np.mean(covered[nonempty] / total[nonempty])),
        uncovered_headlines=int(np.sum(nonempty & (covered == 0))),
        skipped_empty_headlines=int(np.sum(~nonempty)),
    )


def coverage_stats(
    headlines: Sequence[GoldHeadline], lex: EmotionLexicon
) -> CoverageStats:
    """Mean per-headline covered-token fraction; zero-token headlines are
    skipped and counted."""
    return _coverage(_scored_headlines(headlines, lex))


def evaluate_all(
    gold: GoldSet,
    lex: EmotionLexicon,
    mapping: EmotionMapping,
    *,
    threshold: float = 0.5,
    uncovered: str = "zero",
    minmax: str = "per-emotion",
    with_classification: bool = True,
) -> EvalReport:
    """Full report: regression, optional classification, coverage, and the
    list of discarded target emotions. Every headline is scored once."""
    scored = _scored_headlines(gold.headlines, lex)
    regression = _regression(gold, lex, mapping, scored, uncovered)
    classification = None
    if with_classification:
        classification = _classification(
            gold, lex, mapping, scored, threshold, uncovered, minmax
        )
    coverage = _coverage(scored)
    discarded = tuple(
        t for t in gold.emotions if t not in mapping.pairs
    )
    return EvalReport(
        regression=regression,
        classification=classification,
        coverage=coverage,
        discarded_targets=discarded,
    )


def load_gold(
    path,
    lex: EmotionLexicon,
    *,
    lemma_table: textpipe.LemmaTable | None = None,
    ambiguity: str = "all",
) -> GoldSet:
    """Load ``id<TAB>text<TAB>e1...`` gold headlines with an emotion-name
    header, lemmatizing the text with candidates licensed by the lexicon.

    Scores must all lie in [0, 1], or all in [0, 100] (detected by any value
    exceeding 1 and divided by 100); negative values or values above 100 are
    rejected.
    """
    table = lemma_table if lemma_table is not None else textpipe.LemmaTable()
    emotions: tuple[str, ...] | None = None
    parsed: list[tuple[str, str, list[float]]] = []
    with open_source(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if emotions is None:
                if len(fields) < 3 or fields[0] != "id" or fields[1] != "text":
                    raise EvaluationError(
                        f"{path}:{lineno}: expected header 'id<TAB>text<TAB>EMOTION...'"
                    )
                emotions = tuple(f.strip().upper() for f in fields[2:])
                if len(set(emotions)) != len(emotions):
                    raise EvaluationError(f"{path}:{lineno}: duplicate emotion columns")
                continue
            if len(fields) != 2 + len(emotions):
                raise EvaluationError(
                    f"{path}:{lineno}: expected {2 + len(emotions)} columns, got {len(fields)}"
                )
            headline_id, text = fields[0], fields[1]
            try:
                values = [float(v) for v in fields[2:]]
            except ValueError:
                raise EvaluationError(f"{path}:{lineno}: non-numeric gold score") from None
            if not all(math.isfinite(v) and 0 <= v <= 100 for v in values):
                raise EvaluationError(
                    f"{path}:{lineno}: gold scores must lie in [0, 1] or [0, 100]"
                )
            parsed.append((headline_id, text, values))
    if emotions is None:
        raise EvaluationError(f"{path}: missing gold header")
    if not parsed:
        raise EvaluationError(f"{path}: no gold headlines")
    ids = [p[0] for p in parsed]
    if len(set(ids)) != len(ids):
        raise EvaluationError(f"{path}: duplicate headline ids")
    scale = 100.0 if any(v > 1.0 for _, _, values in parsed for v in values) else 1.0
    if scale != 1.0:
        logger.info("gold scores detected on a 0-100 scale; dividing by 100")
    streams = textpipe.lemmatize_all(
        (textpipe.tokenize(text) for _, text, _ in parsed),
        table,
        vocab=lex,
        policy=ambiguity,
    )
    headlines = [
        GoldHeadline(
            headline_id=headline_id,
            tokens=tuple(tokens),
            gold={e: v / scale for e, v in zip(emotions, values)},
        )
        for (headline_id, _, values), tokens in zip(parsed, streams)
    ]
    return GoldSet(emotions=emotions, headlines=tuple(headlines))


def load_labels(path, gold: GoldSet) -> GoldSet:
    """Attach classification gold labels from ``id<TAB>LABEL[,LABEL...]``
    lines; headlines absent from the file keep an empty label set."""
    by_id: dict[str, frozenset[str]] = {}
    known_ids = {h.headline_id for h in gold.headlines}
    with open_source(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise EvaluationError(
                    f"{path}:{lineno}: expected 'id<TAB>LABEL[,LABEL...]'"
                )
            headline_id, label_field = fields
            if headline_id not in known_ids:
                raise EvaluationError(
                    f"{path}:{lineno}: unknown headline id {headline_id!r}"
                )
            if headline_id in by_id:
                raise EvaluationError(f"{path}:{lineno}: duplicate labels for {headline_id!r}")
            labels = frozenset(
                l.strip().upper() for l in label_field.split(",") if l.strip()
            )
            unknown = labels - set(gold.emotions)
            if unknown:
                raise EvaluationError(
                    f"{path}:{lineno}: label(s) outside the gold emotion set: {sorted(unknown)}"
                )
            by_id[headline_id] = labels
    headlines = tuple(
        GoldHeadline(
            headline_id=h.headline_id,
            tokens=h.tokens,
            gold=h.gold,
            gold_labels=by_id.get(h.headline_id, frozenset()),
        )
        for h in gold.headlines
    )
    return GoldSet(emotions=gold.emotions, headlines=headlines)
