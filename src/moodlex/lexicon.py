"""Word-by-emotion lexicon: two-stage normalization, serialization, scoring.

The lexicon is the words-by-documents matrix multiplied into the
documents-by-emotions vote matrix, normalized column-wise (each emotion
column divided by its own sum, so a globally over-voted emotion's advantage
divides out) and then scaled row-wise to unit sums. The built lexicon is
immutable. A token stream scores the mean of its covered tokens' rows.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter, lt
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from . import textpipe
from .errors import LexiconError, TextPipeError
from .sink import (
    first_misfit,
    first_repeat,
    first_true,
    format_rows,
    open_sink,
    parse_columns,
    parse_floats,
    read_rows,
    row_format,
    split_cells,
)

if TYPE_CHECKING:  # annotations only: reading and scoring never import these
    from .corpus import Corpus

HEADER_KEY = "Lemma#PoS"
COL_NORM_MODES = ("sum", "max")

#: Row-sum tolerance accepted when reading files back (looser than the
#: build-time 1e-9 because rows are rounded to the serialized precision).
READ_ROW_SUM_TOLERANCE = 1e-6


class EmotionLexicon:
    """Words-by-emotions score matrix with non-negative, row-stochastic rows.

    ``scores`` is a ``(len(words), len(emotions))`` array-like whose row ``i``
    belongs to ``words[i]``. The lexicon keeps its own copy, with the rows
    sorted by word.

    ``provenance`` is an ordered list of (key, value) string pairs written as
    ``#``-prefixed metadata lines in the serialized form and preserved
    verbatim by a read/write round trip.
    """

    def __init__(
        self,
        emotions: Sequence[str],
        words: Sequence[str],
        scores: np.ndarray,
        provenance: Sequence[tuple[str, str]] = (),
    ):
        emotions = tuple(emotions)
        if not emotions:
            raise LexiconError("lexicon needs at least one emotion")
        if not len(words):
            raise LexiconError("empty lexicon")
        try:
            values = np.asarray(scores, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise LexiconError(f"lexicon scores are not an array of numbers: {exc}") from None
        expected = (len(words), len(emotions))
        if values.shape != expected:
            raise LexiconError(f"scores have shape {values.shape}, expected {expected}")
        # Sorted words come in as build_lexicon and a written file give them,
        # and timsort takes one pass over them; sorted, they are unique when
        # each is less than the next.
        order = sorted(range(len(words)), key=words.__getitem__)
        words = tuple(map(words.__getitem__, order))
        if not all(map(lt, words, words[1:])):
            raise LexiconError("duplicate words in lexicon rows")
        values = values[order]  # fancy indexing copies
        if not np.isfinite(values).all() or (values < 0).any():
            raise LexiconError("lexicon scores must be finite and non-negative")
        self._keep(emotions, words, values, provenance)

    def _keep(self, emotions, words, scores, provenance) -> EmotionLexicon:
        # The one place that sets the attributes: for the constructor, and
        # for read_lexicon's sorted, checked rows, kept with no sort or copy.
        self.emotions, self._words, self._scores = tuple(emotions), tuple(words), scores
        self._row_of = dict(zip(self._words, range(len(self._words))))
        self.provenance = [(str(k), str(v)) for k, v in provenance]
        return self

    @property
    def words(self) -> tuple[str, ...]:
        return self._words

    @property
    def scores(self) -> np.ndarray:
        return self._scores

    def __contains__(self, word: object) -> bool:
        return word in self._row_of

    def __iter__(self) -> Iterator[str]:
        return iter(self._words)

    def __len__(self) -> int:
        return len(self._words)

    def row(self, word: str) -> np.ndarray:
        try:
            return self._scores[self._row_of[word]]
        except KeyError:
            raise LexiconError(f"word {word!r} not in lexicon") from None


def _row_sums(owner: np.ndarray, columns: Iterable[np.ndarray], n: int, start=None) -> np.ndarray:
    """The ``(n, len(columns))`` sums by owner: row ``i`` of column ``k`` adds
    the entries of ``columns[k]`` whose ``owner`` is ``i``, in index order,
    from 0.0, or onto ``start[i, k]``. The word-by-emotion mass and the
    headline scores add up here."""
    if start is not None:
        owner = np.concatenate((np.arange(n), owner))
        columns = map(np.concatenate, zip(start.T, columns))
    sums = np.column_stack([np.bincount(owner, weights=c, minlength=n) for c in columns])
    return sums.astype(np.float64, copy=False)  # an empty owner gives int64 zeros


def score_ids(
    token_ids: np.ndarray, lengths: Sequence[int], strings: Sequence[str], lex: EmotionLexicon
) -> tuple[np.ndarray, np.ndarray]:
    """Score every token stream: the arithmetic mean of the lexicon rows of
    its covered tokens, plus its covered-token count.

    Stream ``i`` is the next ``lengths[i]`` tokens of ``token_ids``, which
    index ``strings``; each string is looked up in the lexicon once.
    Tokens absent from the lexicon are skipped; a stream with zero covered
    tokens scores an all-zero vector with covered count 0, never an error.
    Each stream's rows are added in token order, as ``np.mean`` adds a stack
    of rows with two or more columns, so the scores match it bit for bit.
    """
    rows = np.fromiter(map(lex._row_of.get, strings, repeat(-1)), np.intp, len(strings))[token_ids]
    owner = np.repeat(np.arange(len(lengths)), lengths)
    hit = rows >= 0
    owner, rows = owner[hit], rows[hit]
    covered = np.bincount(owner, minlength=len(lengths))
    # Only one column of the covered rows is gathered at once.
    sums = _row_sums(owner, (column[rows] for column in lex.scores.T), len(lengths))
    scored = covered > 0
    sums[scored] /= covered[scored, None]
    return sums, covered


def score_texts(
    texts: Sequence[str],
    lex: EmotionLexicon,
    table: textpipe.LemmaTable | None,
    policy: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`score_ids` of ``texts`` lemmatized to the candidates ``lex``
    licenses (:func:`textpipe.lemmatize_ids`), and each text's token count."""
    token_ids, lengths, strings = textpipe.lemmatize_ids(
        textpipe.tokenize_all(texts), table, vocab=lex, policy=policy
    )
    scores, covered = score_ids(token_ids, lengths, strings, lex)
    return scores, covered, lengths


def column_normalize(
    raw: np.ndarray, emotions: Sequence[str], mode: str = "sum"
) -> np.ndarray:
    """Divide each emotion column by its own sum (or maximum, mode="max").

    A zero column means an emotion no document ever received and is an
    error naming that emotion.
    """
    if mode not in COL_NORM_MODES:
        raise LexiconError(f"unknown column normalization mode {mode!r}")
    mat = np.asarray(raw, dtype=np.float64)
    denom = mat.sum(axis=0) if mode == "sum" else mat.max(axis=0, initial=0.0)
    zero = np.flatnonzero(denom <= 0)
    if zero.size:
        labels = [str(emotions[i]) for i in zero]
        raise LexiconError(f"emotion column(s) with zero mass: {', '.join(labels)}")
    return mat / denom


def row_scale(
    mat: np.ndarray, words: Sequence[str]
) -> tuple[tuple[str, ...], np.ndarray, int]:
    """Scale each row to a unit sum; rows with zero sum are dropped and counted."""
    values = np.asarray(mat, dtype=np.float64)
    sums = values.sum(axis=1)
    keep = np.flatnonzero(sums > 0)
    dropped = len(words) - keep.size
    scaled = values[keep] / sums[keep, None]
    return tuple(words[i] for i in keep), scaled, dropped


def build_lexicon(
    corpus: Corpus,
    vocab: textpipe.VocabularyFilter,
    scheme: str,
    *,
    lemma_table: textpipe.LemmaTable | None = None,
    ambiguity: str = "all",
    col_norm: str = "sum",
    nf_length: str = "filtered",
    min_df: int = 1,
    matrix_dump_sink=None,
) -> EmotionLexicon:
    """Run the full pipeline from a validated corpus to an emotion lexicon
    over ``corpus.emotions``.

    Raw-text documents go through tokenize/lemmatize with candidates licensed
    by ``vocab``; pre-annotated token streams are used as-is. Both are then
    vocabulary-filtered, counted, weighted under ``scheme`` and multiplied
    into the votes (:func:`matrix.emotion_mass`), then column-normalized and
    row-scaled. Filtering and counting work on token ids, never on the token
    strings.
    """
    from .matrix import emotion_mass, write_matrix_dump
    # Checked up front: token-only corpora never reach lemmatize.
    if ambiguity not in textpipe.AMBIGUITY_POLICIES:
        raise TextPipeError(
            f"unknown ambiguity policy {ambiguity!r}: "
            f"expected one of {textpipe.AMBIGUITY_POLICIES}"
        )
    words, mass, n_docs, tdm = emotion_mass(
        corpus.lemmatized(lemma_table, vocab, ambiguity),
        vocab,
        scheme,
        nf_length=nf_length,
        min_df=min_df,
        keep_matrix=matrix_dump_sink is not None,
    )
    normalized = column_normalize(mass, corpus.emotions, mode=col_norm)
    words, scaled, dropped_rows = row_scale(normalized, words)
    provenance = [
        ("scheme", scheme),
        ("col-norm", col_norm),
        ("nf-length", nf_length),
        ("min-df", str(min_df)),
        ("ambiguity", ambiguity),
        ("entries", str(len(words))),
        ("dropped-zero-rows", str(dropped_rows)),
        ("dropped-empty-docs", str(len(corpus) - n_docs)),
    ]
    lex = EmotionLexicon(corpus.emotions, words, scaled, provenance=provenance)
    if tdm is not None:
        write_matrix_dump(tdm, matrix_dump_sink)
    return lex


def write_lexicon(lex: EmotionLexicon, sink) -> None:
    """Serialize a lexicon: ``#`` metadata lines, a header naming the
    emotions, then one tab-separated row per word in lexicographic order with
    scores at 9 significant digits. ``sink`` is a text stream or a path; a
    path is written atomically."""

    with open_sink(sink, lex.provenance) as fh:
        fh.write(HEADER_KEY + "\t" + "\t".join(lex.emotions) + "\n")
        line = f"%s\t{row_format(len(lex.emotions))}\n"
        fh.write(format_rows(line, [lex.words, *lex.scores.T.tolist()]))


def read_lexicon(source) -> EmotionLexicon:
    """Parse a serialized lexicon from a path or a text stream, validating
    scores and per-row sums.

    Sorted rows that pass the one-pass checks are kept as read; any other
    file is checked a column at a time, to name its first bad line.

    The comment lines above the header are kept in ``provenance``, so that
    reading and re-writing a well-formed file reproduces it byte for byte.
    """
    try:
        rows, linenos, comments = read_rows(source)
    except OSError as exc:
        raise LexiconError(f"cannot read lexicon: {exc}") from None
    source = "<stream>" if hasattr(source, "read") else str(source)
    if not rows:
        raise LexiconError(f"{source}: missing lexicon header")
    fields = rows[0].split("\t")
    if fields[0] != HEADER_KEY or len(fields) < 2:
        raise LexiconError(
            f"{source}:{linenos[0]}: expected header '{HEADER_KEY}<TAB>EMOTION...'"
        )
    emotions = tuple(fields[1:])
    if not all(emotions):
        raise LexiconError(f"{source}:{linenos[0]}: empty emotion name")
    if len(set(emotions)) != len(emotions):
        raise LexiconError(f"{source}:{linenos[0]}: duplicate emotion columns")
    provenance = []
    for line in comments:
        body = line[1:].lstrip()
        key, sep, value = body.partition(": ")
        provenance.append((key, value) if sep else (body, ""))
    del rows[0], linenos[0]
    if not rows:
        raise LexiconError(f"{source}: lexicon has no rows")
    width = len(emotions)
    scores = parse_columns(rows, 1, width)
    if scores is not None:
        words = list(map(itemgetter(0), map(str.partition, rows, repeat("\t"))))
        with np.errstate(invalid="ignore", over="ignore"):
            if (  # NaN fails the sign check, and infinity the row sum
                all(map(lt, words, words[1:]))
                and (scores >= 0).all()
                and (np.abs(scores.sum(axis=1) - 1.0) <= READ_ROW_SUM_TOLERANCE).all()
                and not textpipe.key_faults(words)
            ):
                return EmotionLexicon.__new__(EmotionLexicon)._keep(
                    emotions, words, scores, provenance
                )
    # Else the rows are checked a column at a time. Each check reads the rows
    # before the first bad one found so far, in the order a line's faults are
    # reported, so the last fault found is the first bad line's first fault.
    end, fault = first_misfit(rows, width + 1)
    # The keys are split off first, so that they do not lie strewn among the
    # score cells in memory, which are freed once parsed.
    words = list(map(itemgetter(0), map(str.partition, rows[:end], repeat("\t"))))
    cells = split_cells(rows[:end])
    del rows, cells[0 :: width + 1]
    at = first_repeat(words, end)
    if at < end:
        end, fault = at, f"duplicate row for {words[at]!r}"
    faults = textpipe.key_faults(words)
    at = min(faults, default=end)
    if at < end:
        end, fault = at, f"bad word key: {faults[at]}"
    values, parsed = parse_floats(cells[: end * width])
    if parsed < end * width:
        end, fault = parsed // width, "non-numeric score"
    scores = values[: end * width].reshape(end, width)
    with np.errstate(invalid="ignore", over="ignore"):
        bad_value = ~np.isfinite(scores).all(axis=1) | (scores < 0).any(axis=1)
        sums = scores.sum(axis=1)
        bad = bad_value | (np.abs(sums - 1.0) > READ_ROW_SUM_TOLERANCE)
    at = first_true(bad.tolist(), end)
    if at < end:
        end, fault = at, (
            "scores must be finite and >= 0"
            if bad_value[at]
            else f"row sum {sums[at]:.9g} outside 1 +/- {READ_ROW_SUM_TOLERANCE:g}"
        )
    if fault is not None:
        raise LexiconError(f"{source}:{linenos[end]}: {fault}")
    return EmotionLexicon(emotions, words, scores, provenance=provenance)
