"""Vote-annotated corpus ingestion.

A corpus file carries one JSON object per line with fields ``id``, exactly
one of ``tokens`` (array of lemma#pos strings) or ``text`` (raw string), and
``votes`` (map from emotion label to a non-negative number). Parsing is
single-pass and order-preserving. It yields one columnar :class:`Corpus`:
each distinct token string is numbered as it is first read, and the
documents' tokens are one ``int32`` array of those numbers. The votes and
the distinct strings are validated in bulk once every line is read.
"""

from __future__ import annotations

import json
import logging
import math
from array import array
from collections import defaultdict
from dataclasses import dataclass, field, replace
from itertools import count, islice
from typing import Iterable, Mapping

import numpy as np

from . import textpipe
from .errors import CorpusError, TextPipeError, VoteError
from .sink import emotion_fault, open_source

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
        labels = tuple(map(str, labels))
        if not labels:
            raise CorpusError("emotion set must not be empty")
        if fault := emotion_fault(labels):
            raise CorpusError(fault)
        self._labels = tuple(label.strip().upper() for label in labels)
        self._index = {label: i for i, label in enumerate(self._labels)}

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

    def __len__(self) -> int:
        return len(self._labels)


@dataclass(frozen=True, eq=False)
class Corpus:
    """A parsed corpus, one array or tuple per field, documents in file order.

    Document ``i`` has the id ``doc_ids[i]``, the vote fractions ``votes[i]``
    (column ``k`` for the emotion ``emotions[k]``) and ``lengths[i]`` tokens,
    the next ``lengths[i]`` entries of ``token_ids``. A token id indexes
    ``strings``, the distinct token strings in order of first occurrence. A
    raw-text document has no tokens until :meth:`lemmatized`; ``texts`` maps
    its index to its text. Documents with no tokens are legal (they are
    dropped from matrix construction with a warning, never an abort).
    """

    doc_ids: tuple[str, ...]
    votes: np.ndarray
    emotions: tuple[str, ...]
    token_ids: np.ndarray
    lengths: np.ndarray
    strings: tuple[str, ...]
    texts: Mapping[int, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.doc_ids)

    def lemmatized(
        self, table: textpipe.LemmaTable | None, vocab: Iterable[str], policy: str
    ) -> "Corpus":
        """This corpus with each raw-text document's lemma#pos candidates
        (:func:`textpipe.lemmatize_ids`) as its tokens.

        Candidates are numbered like tokens, after the token strings, but
        not checked: they are only kept where a checked vocabulary holds them.
        """
        if not self.texts:
            return self
        docs = list(self.texts)
        token_ids, text_lengths, strings = textpipe.lemmatize_ids(
            textpipe.tokenize_all(self.texts.values()), table, vocab=vocab, policy=policy,
            strings=self.strings,
        )
        lengths = self.lengths.copy()
        lengths[docs] = text_lengths
        if self.token_ids.size:
            # In document order, text documents take the candidates, the others their old ids.
            in_text = np.repeat(np.isin(np.arange(len(self)), docs), lengths)
            text_ids, token_ids = token_ids, np.empty(in_text.size, dtype=np.int32)
            token_ids[in_text] = text_ids
            token_ids[~in_text] = self.token_ids
        return replace(
            self, token_ids=token_ids, lengths=lengths, strings=strings, texts={}
        )


@dataclass(frozen=True, eq=False)
class CorpusStats:
    """Corpus-level summary: sizes plus the per-emotion mean vote fractions."""

    doc_count: int
    token_count: int
    mean_votes: np.ndarray
    mean_doc_length: float


def validate_votes(raw: Mapping[str, float], emotions: EmotionSet) -> np.ndarray:
    """Validate a raw vote distribution and rescale it to an exact unit sum.

    ``raw`` maps emotion labels to values; absent labels count as zero, which
    is distinct from a missing votes field, and two labels that normalize
    alike are an error. A sum within VOTE_SUM_TOLERANCE of 1 is divided out
    proportionally; negative entries, all-zero votes, and sums further from
    1 are rejected rather than silently fixed.
    """
    scaled, errors = _unit_rows(np.array([_vote_row(raw, emotions)]), emotions.labels)
    if errors:
        raise VoteError(errors[0])
    return scaled[0]


def _vote_row(raw: Mapping[str, object], emotions: EmotionSet) -> list[float]:
    """The values of ``raw`` in ``emotions`` order, zero where a label is absent."""
    row = [0.0] * len(emotions)
    key_of: dict[str, object] = {}
    for key, value in raw.items():
        label = str(key).strip().upper()
        if label in key_of:
            raise VoteError(f"votes name {label} twice: {key_of[label]!r} and {key!r}")
        key_of[label] = key
        # EmotionSet.index raises CorpusError for unknown labels: that is a
        # hard error, not a per-record validation failure.
        row[emotions.index(label)] = _vote_value(label, value)
    return row


def _vote_value(label: str, value: object) -> float:
    # float() would read a JSON true or false as 1.0 or 0.0.
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise VoteError(f"non-numeric vote for {label}: {value!r}")


def _unit_rows(votes: np.ndarray, labels: tuple[str, ...]) -> tuple[np.ndarray, dict[int, str]]:
    """Each row of the (documents x emotions) ``votes`` divided by its sum,
    and the error of each row that is not a vote distribution, by row.

    A row must be finite, non-negative and not all zero, and its sum (numpy's
    pairwise sum, row by row) within VOTE_SUM_TOLERANCE of 1.
    """
    with np.errstate(all="ignore"):  # the bad rows are reported, not warned about
        finite = np.isfinite(votes).all(axis=1)
        negative = (votes < 0).any(axis=1)
        totals = votes.sum(axis=1)
        # The 1e-9 slack keeps sums at the exact tolerance boundary (e.g. two
        # decimal entries adding up to a displayed 0.99) from being rejected
        # over binary representation noise.
        off = np.abs(totals - 1.0) > VOTE_SUM_TOLERANCE + 1e-9
        scaled = votes / totals[:, None]
    errors = {}
    for row in np.flatnonzero(~finite | negative | (totals <= 0.0) | off).tolist():
        total = float(totals[row])
        if not finite[row]:
            errors[row] = "votes must be finite (NaN or infinity found)"
        elif negative[row]:
            errors[row] = f"negative vote for {labels[int(np.argmax(votes[row] < 0))]}"
        elif total <= 0.0:
            errors[row] = "document with no votes"
        else:
            errors[row] = (
                f"vote sum {total:.6g} outside 1 +/- {VOTE_SUM_TOLERANCE:g}; record looks corrupt"
            )
    return scaled, errors


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


def _token_error(token: object) -> str | None:
    """Why ``token`` cannot be a corpus token, or None if it can."""
    if not isinstance(token, str):
        return f"token {token!r} is not a string"
    try:
        textpipe.check_lemma_pos(token)
    except TextPipeError as exc:
        return f"bad token {token!r}: {exc}"
    return None


def _number_tokens(tokens: list, id_of: defaultdict) -> list[int]:
    """The ids of a record's tokens; ``id_of`` numbers each new one on.

    A token that is not a string raises TypeError, and ``id_of`` forgets the
    tokens it numbered for this record, so no later record's token that
    equals one of them (a 1 after a true) is taken for it.
    """
    known = len(id_of)
    try:
        ids = [*map(id_of.__getitem__, tokens)]  # an unhashable token fails here
        # Joining the new keys fails on a hashable one that is not a string.
        "".join(islice(reversed(id_of), len(id_of) - known))
    except TypeError:
        for token in [*islice(reversed(id_of), len(id_of) - known)]:
            del id_of[token]
        id_of.default_factory = count(known).__next__
        raise
    return ids


def _token_errors(
    token_ids: np.ndarray, lengths: np.ndarray, strings: tuple[str, ...]
) -> dict[int, str]:
    """By document, the error naming its first token that is not lemma#pos.

    The distinct ``strings`` are checked once, by :func:`textpipe.key_faults`,
    and the documents holding a bad one are then found from the ids.
    """
    faults = textpipe.key_faults(strings)
    if not faults:
        return {}
    is_bad = np.zeros(len(strings), dtype=bool)
    is_bad[list(faults)] = True
    at = np.flatnonzero(is_bad[token_ids])  # ascending, so each document's first comes first
    doc = np.searchsorted(np.cumsum(lengths), at, side="right")
    first = np.diff(doc, prepend=-1) != 0
    bad = token_ids[at[first]].tolist()
    return {
        d: f"bad token {strings[t]!r}: {faults[t]}" for d, t in zip(doc[first].tolist(), bad)
    }


def check_min_votes_sum(min_votes_sum: float | None) -> None:
    """Raise :class:`CorpusError` if ``min_votes_sum`` is NaN."""
    if min_votes_sum is not None and math.isnan(min_votes_sum):
        raise CorpusError("min vote sum must be a number, got nan")


def parse_corpus(
    stream: Iterable[str],
    emotions: EmotionSet | None = None,
    *,
    min_votes_sum: float | None = None,
    source: str = "<stream>",
) -> Corpus:
    """Parse line-delimited corpus records in file order.

    Malformed lines are collected and reported together (line numbers plus a
    total count). Duplicate document ids and unknown emotion labels abort
    immediately, naming their lines. Documents whose raw vote sum is below
    ``min_votes_sum`` are dropped before validation.

    Each record's votes become one row and its tokens ids, as it is read;
    once every line is read, the vote rows are validated as one array and
    the distinct token strings checked all at once. A line with bad votes
    reports them, not its tokens, and a line with bad tokens names the first.
    """
    emotions = emotions if emotions is not None else EmotionSet.default()
    check_min_votes_sum(min_votes_sum)
    doc_ids: list[str] = []
    votes = array("d")
    lengths = array("q")
    token_ids = array("i")
    texts: dict[int, str] = {}
    # Token string -> id, numbered 0, 1, 2, ... in order of first occurrence.
    id_of: defaultdict[str, int] = defaultdict(count().__next__)
    seen: dict[str, int] = {}
    failures: dict[int, str] = {}
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
            try:
                if min_votes_sum is not None:
                    raw_sum = sum(
                        _vote_value(str(k).strip().upper(), v) for k, v in votes_raw.items()
                    )
                    if raw_sum < min_votes_sum:
                        dropped_low_votes += 1
                        continue
                row = _vote_row(votes_raw, emotions)
            except VoteError as exc:
                raise _MalformedRecord(str(exc)) from None
            except CorpusError as exc:  # an unknown emotion label
                raise CorpusError(f"{source}: {exc} on line {lineno}") from None
            if tokens is None:
                texts[len(doc_ids)] = text
                lengths.append(0)
            else:
                try:
                    ids = _number_tokens(tokens, id_of)
                except TypeError:
                    vote_errors = _unit_rows(np.array([row]), emotions.labels)[1]
                    message = vote_errors.get(0) or next(filter(None, map(_token_error, tokens)))
                    raise _MalformedRecord(message) from None
                token_ids.fromlist(ids)
                lengths.append(len(tokens))
            doc_ids.append(doc_id)
            votes.fromlist(row)
        except _MalformedRecord as exc:
            failures[lineno] = str(exc)
    if dropped_low_votes:
        logger.info(
            "%s: dropped %d document(s) below min vote sum %g",
            source,
            dropped_low_votes,
            min_votes_sum,
        )
    doc_votes, vote_errors = _unit_rows(
        np.frombuffer(votes).reshape(len(doc_ids), len(emotions)), emotions.labels
    )
    token_ids = np.frombuffer(token_ids, dtype=np.int32)
    lengths = np.frombuffer(lengths, dtype=np.int64)
    strings = tuple(id_of)
    # A line's vote error wins over its token error.
    for doc, message in {**_token_errors(token_ids, lengths, strings), **vote_errors}.items():
        failures[seen[doc_ids[doc]]] = message
    if failures:
        ordered = sorted(failures.items())
        shown = "; ".join(f"line {n}: {msg}" for n, msg in ordered[:_MAX_REPORTED_LINES])
        suffix = "" if len(ordered) <= _MAX_REPORTED_LINES else "; ..."
        raise CorpusError(
            f"{source}: {len(ordered)} malformed line(s): {shown}{suffix}"
        )
    return Corpus(
        doc_ids=tuple(doc_ids),
        votes=doc_votes,
        emotions=emotions.labels,
        token_ids=token_ids,
        lengths=lengths,
        strings=strings,
        texts=texts,
    )


def load_corpus(
    path,
    emotions: EmotionSet | None = None,
    *,
    min_votes_sum: float | None = None,
) -> Corpus:
    """Parse a corpus file from disk; see :func:`parse_corpus`."""
    with open_source(path) as fh:
        return parse_corpus(
            fh, emotions, min_votes_sum=min_votes_sum, source=str(path)
        )


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Mean vote fractions and document-length statistics over ``corpus``.

    A raw-text document counts the tokens :func:`textpipe.tokenize` finds."""
    if not len(corpus):
        raise CorpusError("cannot compute statistics for an empty corpus")
    token_count = int(corpus.lengths.sum()) + sum(
        len(textpipe.tokenize(text)) for text in corpus.texts.values()
    )
    return CorpusStats(
        doc_count=len(corpus),
        token_count=token_count,
        mean_votes=corpus.votes.mean(axis=0),
        mean_doc_length=token_count / len(corpus),
    )
