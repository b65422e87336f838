"""Vote-annotated corpus ingestion and the document-by-emotion matrix.

A corpus file carries one JSON object per line with fields ``id``, exactly
one of ``tokens`` (array of lemma#pos strings) or ``text`` (raw string), and
``votes`` (map from emotion label to a non-negative number). Parsing is
single-pass and order-preserving; the loaded corpus is immutable and safe to
share read-only across concurrent consumers.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import textpipe
from .errors import CorpusError, TextPipeError, VoteError
from .sink import open_source

logger = logging.getLogger(__name__)

DEFAULT_EMOTIONS = (
    "AFRAID",
    "AMUSED",
    "ANGRY",
    "ANNOYED",
    "DONT_CARE",
    "HAPPY",
    "INSPIRED",
    "SAD",
)

#: Accepted deviation of a raw vote sum from 1 (display-rounded exports carry
#: noise of this order); anything further off is treated as corruption.
VOTE_SUM_TOLERANCE = 1e-2

_MAX_REPORTED_LINES = 20


class EmotionSet:
    """Ordered, case-normalized emotion labels, fixed for a whole run.

    Every vote vector and matrix built in the same run shares this order.
    """

    def __init__(self, labels: Iterable[str]):
        normalized = tuple(str(label).strip().upper() for label in labels)
        if not normalized:
            raise CorpusError("emotion set must not be empty")
        if any(not label for label in normalized):
            raise CorpusError("emotion labels must be non-empty")
        if len(set(normalized)) != len(normalized):
            raise CorpusError(f"duplicate emotion labels in {normalized}")
        self._labels = normalized
        self._index = {label: i for i, label in enumerate(normalized)}

    @classmethod
    def default(cls) -> "EmotionSet":
        return cls(DEFAULT_EMOTIONS)

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise CorpusError(f"unknown emotion label {label!r}") from None

    def __contains__(self, label: object) -> bool:
        return label in self._index

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self._labels)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EmotionSet) and other._labels == self._labels

    def __hash__(self) -> int:
        return hash(self._labels)

    def __repr__(self) -> str:
        return f"EmotionSet({list(self._labels)!r})"


@dataclass(frozen=True, eq=False)
class DocumentRecord:
    """One document: id, validated vote distribution, and its token stream.

    ``tokens`` holds lemma#pos strings when the corpus is pre-annotated;
    otherwise ``text`` holds the raw document and the text pipeline produces
    the tokens later. Empty token streams are legal (the document is dropped
    from matrix construction with a warning, never an abort).
    """

    doc_id: str
    votes: np.ndarray
    tokens: tuple[str, ...] | None = None
    text: str | None = None

    def token_count(self) -> int:
        if self.tokens is not None:
            return len(self.tokens)
        return len(textpipe.tokenize(self.text or ""))


@dataclass(frozen=True, eq=False)
class CorpusStats:
    """Corpus-level summary: sizes plus the per-emotion mean vote fractions."""

    doc_count: int
    token_count: int
    mean_votes: np.ndarray
    mean_doc_length: float


@dataclass(frozen=True, eq=False)
class DocEmotionMatrix:
    """Dense documents-by-emotions matrix of validated vote fractions."""

    doc_ids: tuple[str, ...]
    emotions: EmotionSet
    values: np.ndarray


def validate_votes(
    raw: Mapping[str, float] | Sequence[float], emotions: EmotionSet
) -> np.ndarray:
    """Validate a raw vote distribution and rescale it to an exact unit sum.

    ``raw`` is either a mapping from emotion label to value (absent labels
    count as zero, which is distinct from a missing votes field) or a
    sequence aligned with ``emotions``. A sum within VOTE_SUM_TOLERANCE of 1
    is divided out proportionally; negative entries, all-zero votes, and
    sums further from 1 are rejected rather than silently fixed.
    """
    values = np.zeros(len(emotions), dtype=np.float64)
    if isinstance(raw, Mapping):
        for key, value in raw.items():
            label = str(key).strip().upper()
            try:
                numeric = float(value)
            except (TypeError, ValueError, OverflowError):
                raise VoteError(f"non-numeric vote for {label}: {value!r}") from None
            # EmotionSet.index raises CorpusError for unknown labels: that is
            # a hard error, not a per-record validation failure.
            values[emotions.index(label)] = numeric
    else:
        try:
            seq = np.asarray(list(raw), dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            raise VoteError("non-numeric vote value") from None
        if seq.shape != (len(emotions),):
            raise VoteError(
                f"expected {len(emotions)} vote values, got {seq.shape[0] if seq.ndim == 1 else seq.shape}"
            )
        values = seq
    if not np.all(np.isfinite(values)):
        raise VoteError("votes must be finite (NaN or infinity found)")
    negative = np.flatnonzero(values < 0)
    if negative.size:
        label = emotions.labels[int(negative[0])]
        raise VoteError(f"negative vote for {label}")
    total = float(values.sum())
    if total <= 0.0:
        raise VoteError("document with no votes")
    # The 1e-9 slack keeps sums at the exact tolerance boundary (e.g. two
    # decimal entries adding up to a displayed 0.99) from being rejected over
    # binary representation noise.
    if abs(total - 1.0) > VOTE_SUM_TOLERANCE + 1e-9:
        raise VoteError(
            f"vote sum {total:.6g} outside 1 +/- {VOTE_SUM_TOLERANCE:g}; record looks corrupt"
        )
    return values / total


class _MalformedRecord(Exception):
    """Collectible per-line failure; reported in bulk with line numbers."""


def _record_fields(obj: object) -> tuple[str, list | None, str | None, Mapping]:
    if not isinstance(obj, dict):
        raise _MalformedRecord("record is not an object")
    if "id" not in obj:
        raise _MalformedRecord("missing 'id' field")
    doc_id = obj["id"]
    if not isinstance(doc_id, str) or not doc_id:
        raise _MalformedRecord("'id' must be a non-empty string")
    # Ids become fields of tab-separated, line-oriented UTF-8 outputs.
    if any(c in doc_id for c in "\t\r\n"):
        raise _MalformedRecord("'id' must not contain a tab, CR or LF")
    try:
        doc_id.encode("utf-8")
    except UnicodeEncodeError:
        raise _MalformedRecord("'id' must be encodable as UTF-8 (no lone surrogates)") from None
    has_tokens = "tokens" in obj
    has_text = "text" in obj
    if has_tokens == has_text:
        raise _MalformedRecord("record must have exactly one of 'tokens' or 'text'")
    tokens = obj.get("tokens")
    text = obj.get("text")
    if has_tokens and not isinstance(tokens, list):
        raise _MalformedRecord("'tokens' must be an array of lemma#pos strings")
    if has_text and not isinstance(text, str):
        raise _MalformedRecord("'text' must be a string")
    if "votes" not in obj:
        raise _MalformedRecord("missing 'votes' field")
    votes = obj["votes"]
    if not isinstance(votes, dict):
        raise _MalformedRecord("'votes' must be a map from emotion label to number")
    return doc_id, tokens, text, votes


def _canonical_tokens(tokens: list, valid: dict[str, str]) -> tuple[str, ...]:
    """Check every token of one record.

    ``valid`` maps each string that already passed in this parse to its first
    instance, so each distinct string is checked once and held once.
    """
    out = []
    for tok in tokens:
        if not isinstance(tok, str):
            raise _MalformedRecord(f"token {tok!r} is not a string")
        canonical = valid.get(tok)
        if canonical is None:
            try:
                textpipe.check_lemma_pos(tok)
            except TextPipeError as exc:
                raise _MalformedRecord(f"bad token {tok!r}: {exc}") from None
            canonical = valid[tok] = tok
        out.append(canonical)
    return tuple(out)


def parse_corpus(
    stream: Iterable[str],
    emotions: EmotionSet | None = None,
    *,
    min_votes_sum: float | None = None,
    source: str = "<stream>",
) -> list[DocumentRecord]:
    """Parse line-delimited corpus records in file order.

    Malformed lines are collected and reported together (line numbers plus a
    total count). Duplicate document ids and unknown emotion labels abort
    immediately. Documents whose raw vote sum is below ``min_votes_sum`` are
    dropped before validation.
    """
    emotions = emotions if emotions is not None else EmotionSet.default()
    records: list[DocumentRecord] = []
    seen: dict[str, int] = {}
    valid_tokens: dict[str, str] = {}
    failures: list[tuple[int, str]] = []
    dropped_low_votes = 0
    for lineno, line in enumerate(stream, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            try:
                obj = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise _MalformedRecord(f"invalid JSON ({exc.msg})") from None
            except RecursionError:
                raise _MalformedRecord("invalid JSON (nesting too deep)") from None
            doc_id, tokens, text, votes_raw = _record_fields(obj)
            if doc_id in seen:
                raise CorpusError(
                    f"{source}: duplicate doc id {doc_id!r} on lines {seen[doc_id]} and {lineno}"
                )
            seen[doc_id] = lineno
            if min_votes_sum is not None:
                try:
                    raw_sum = sum(float(v) for v in votes_raw.values())
                except (TypeError, ValueError, OverflowError):
                    raise _MalformedRecord("non-numeric vote value") from None
                if raw_sum < min_votes_sum:
                    dropped_low_votes += 1
                    continue
            try:
                votes = validate_votes(votes_raw, emotions)
            except VoteError as exc:
                raise _MalformedRecord(str(exc)) from None
            record_tokens = (
                _canonical_tokens(tokens, valid_tokens) if tokens is not None else None
            )
            records.append(
                DocumentRecord(doc_id=doc_id, votes=votes, tokens=record_tokens, text=text)
            )
        except _MalformedRecord as exc:
            failures.append((lineno, str(exc)))
    if dropped_low_votes:
        logger.info(
            "%s: dropped %d document(s) below min vote sum %g",
            source,
            dropped_low_votes,
            min_votes_sum,
        )
    if failures:
        shown = "; ".join(f"line {n}: {msg}" for n, msg in failures[:_MAX_REPORTED_LINES])
        suffix = "" if len(failures) <= _MAX_REPORTED_LINES else "; ..."
        raise CorpusError(
            f"{source}: {len(failures)} malformed line(s): {shown}{suffix}"
        )
    return records


def load_corpus(
    path,
    emotions: EmotionSet | None = None,
    *,
    min_votes_sum: float | None = None,
) -> list[DocumentRecord]:
    """Parse a corpus file from disk; see :func:`parse_corpus`."""
    with open_source(path) as fh:
        return parse_corpus(
            fh, emotions, min_votes_sum=min_votes_sum, source=str(path)
        )


def corpus_stats(corpus: Sequence[DocumentRecord]) -> CorpusStats:
    """Mean vote fractions and document-length statistics over ``corpus``."""
    if not corpus:
        raise CorpusError("cannot compute statistics for an empty corpus")
    votes = np.stack([record.votes for record in corpus])
    token_count = sum(record.token_count() for record in corpus)
    return CorpusStats(
        doc_count=len(corpus),
        token_count=token_count,
        mean_votes=votes.mean(axis=0),
        mean_doc_length=token_count / len(corpus),
    )


def vote_matrix(
    corpus: Sequence[DocumentRecord], emotions: EmotionSet
) -> DocEmotionMatrix:
    """Stack the corpus vote vectors into a documents-by-emotions matrix,
    preserving corpus order."""
    if not corpus:
        raise CorpusError("cannot build a vote matrix from an empty corpus")
    return DocEmotionMatrix(
        doc_ids=tuple(record.doc_id for record in corpus),
        emotions=emotions,
        values=np.stack([record.votes for record in corpus]),
    )
