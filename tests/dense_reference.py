"""Independently coded dense reference implementations used as test oracles.

Everything here is deliberately written with explicit loops over dense
structures (and exact rational arithmetic for the correlation oracle) so it
shares no code path with the sparse implementations it checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from moodlex import (
    CorpusError,
    EvaluationError,
    LexiconError,
    MatrixError,
    MoodlexError,
    TextPipeError,
    VoteError,
)
from moodlex.corpus import VOTE_SUM_TOLERANCE, Corpus
from moodlex.evaluate import GoldSet
from moodlex.lexicon import HEADER_KEY, READ_ROW_SUM_TOLERANCE, EmotionLexicon, score_ids
from moodlex.matrix import TFIDF_VARIANT
from moodlex.textpipe import UNLICENSED, LemmaTable, lemmatize_ids, tokenize

_POS_TAGS = ("v", "n", "a", "r")


@dataclass(frozen=True)
class _LemmaPos:
    """A lemma#pos key, checked as it is built (the library's rules, restated)."""

    lemma: str
    pos: str

    def __post_init__(self) -> None:
        if self.pos not in _POS_TAGS:
            raise TextPipeError(
                f"invalid pos tag {self.pos!r}: expected one of {', '.join(_POS_TAGS)}"
            )
        if not self.lemma:
            raise TextPipeError("lemma must be non-empty")
        if self.lemma != self.lemma.lower() or any(c.isspace() for c in self.lemma):
            raise TextPipeError(
                f"lemma must be lower-case with no whitespace: {self.lemma!r}"
            )

    @classmethod
    def parse(cls, token: str) -> "_LemmaPos":
        lemma, sep, pos = token.rpartition("#")
        if not sep:
            raise TextPipeError(f"not a lemma#pos token: {token!r}")
        return cls(lemma, pos)


def lemma_pos_reference(token: str) -> None:
    """Raise the TextPipeError the key check gives for ``token``, if any."""
    _LemmaPos.parse(token)


def votes_reference(raw, emotions) -> np.ndarray:
    """One record's votes, checked and divided by their sum on their own."""
    values = np.zeros(len(emotions), dtype=np.float64)
    key_of = {}
    for key, value in raw.items():
        label = str(key).strip().upper()
        if label in key_of:
            raise VoteError(f"votes name {label} twice: {key_of[label]!r} and {key!r}")
        key_of[label] = key
        values[emotions.index(label)] = _vote_value_reference(label, value)
    if not np.all(np.isfinite(values)):
        raise VoteError("votes must be finite (NaN or infinity found)")
    for label, value in zip(emotions.labels, values.tolist()):
        if value < 0:
            raise VoteError(f"negative vote for {label}")
    total = float(values.sum())
    if total <= 0.0:
        raise VoteError("document with no votes")
    if abs(total - 1.0) > VOTE_SUM_TOLERANCE + 1e-9:
        raise VoteError(
            f"vote sum {total:.6g} outside 1 +/- {VOTE_SUM_TOLERANCE:g}; record looks corrupt"
        )
    return values / total


def _vote_value_reference(label, value) -> float:
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise VoteError(f"non-numeric vote for {label}: {value!r}")


def _record_reference(obj):
    """A record's id, tokens, text and votes, or the message of its first fault."""
    if not isinstance(obj, dict):
        return "record is not an object"
    if "id" not in obj:
        return "missing 'id' field"
    doc_id = obj["id"]
    if not isinstance(doc_id, str) or not doc_id:
        return "'id' must be a non-empty string"
    if "\t" in doc_id or "\r" in doc_id or "\n" in doc_id:
        return "'id' must not contain a tab, CR or LF"
    if any(0xD800 <= ord(c) <= 0xDFFF for c in doc_id):
        return "'id' must be encodable as UTF-8 (no lone surrogates)"
    if ("tokens" in obj) == ("text" in obj):
        return "record must have exactly one of 'tokens' or 'text'"
    if "tokens" in obj and not isinstance(obj["tokens"], list):
        return "'tokens' must be an array of lemma#pos strings"
    if "text" in obj and not isinstance(obj["text"], str):
        return "'text' must be a string"
    if "votes" not in obj:
        return "missing 'votes' field"
    if not isinstance(obj["votes"], dict):
        return "'votes' must be a map from emotion label to number"
    return doc_id, obj.get("tokens"), obj.get("text"), obj["votes"]


def parse_corpus_reference(lines, emotions, *, min_votes_sum=None, source="<stream>") -> Corpus:
    """Corpus parser that takes one line at a time through every check: the
    record, the votes (dropped below ``min_votes_sum`` first), then each
    token in order, numbering each new string as it passes."""
    if min_votes_sum is not None and math.isnan(min_votes_sum):
        raise CorpusError("min vote sum must be a number, got nan")
    doc_ids, votes, lengths, token_ids, texts = [], [], [], [], {}
    id_of: dict[str, int] = {}
    seen: dict[str, int] = {}
    failures = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line.strip())
        except json.JSONDecodeError as exc:
            failures.append(f"line {lineno}: invalid JSON ({exc.msg})")
            continue
        except RecursionError:
            failures.append(f"line {lineno}: invalid JSON (nesting too deep)")
            continue
        record = _record_reference(obj)
        if isinstance(record, str):
            failures.append(f"line {lineno}: {record}")
            continue
        doc_id, tokens, text, raw_votes = record
        if doc_id in seen:
            raise CorpusError(
                f"{source}: duplicate doc id {doc_id!r} on lines {seen[doc_id]} and {lineno}"
            )
        seen[doc_id] = lineno
        try:
            if min_votes_sum is not None:
                labels = [str(k).strip().upper() for k in raw_votes]
                values = [_vote_value_reference(l, v) for l, v in zip(labels, raw_votes.values())]
                if sum(values) < min_votes_sum:
                    continue
            row = votes_reference(raw_votes, emotions)
        except VoteError as exc:
            failures.append(f"line {lineno}: {exc}")
            continue
        except CorpusError as exc:
            raise CorpusError(f"{source}: {exc} on line {lineno}") from None
        ids = []
        for token in tokens if tokens is not None else ():
            if not isinstance(token, str):
                failures.append(f"line {lineno}: token {token!r} is not a string")
                break
            try:
                lemma_pos_reference(token)
            except TextPipeError as exc:
                failures.append(f"line {lineno}: bad token {token!r}: {exc}")
                break
            ids.append(id_of.setdefault(token, len(id_of)))
        else:
            if tokens is None:
                texts[len(doc_ids)] = text
            doc_ids.append(doc_id)
            votes.append(row)
            token_ids.extend(ids)
            lengths.append(len(ids))
    if failures:
        suffix = "; ..." if len(failures) > 20 else ""
        raise CorpusError(
            f"{source}: {len(failures)} malformed line(s): {'; '.join(failures[:20])}{suffix}"
        )
    return Corpus(
        doc_ids=tuple(doc_ids),
        votes=np.array(votes, dtype=np.float64).reshape(len(doc_ids), len(emotions)),
        emotions=emotions.labels,
        token_ids=np.array(token_ids, dtype=np.int32),
        lengths=np.array(lengths, dtype=np.int64),
        strings=tuple(id_of),
        texts=texts,
    )


def candidates_reference(surface: str, table, vocab, policy: str) -> list[str]:
    """lemma#pos candidates of one surface form, walked per pos through the
    table's public ``entry`` and ``rule_rewrites`` (the README contract)."""
    licensed: list[str] = []
    for pos in _POS_TAGS:
        hit = table.entry(surface, pos)
        if hit is not None:
            licensed.append(f"{hit}#{pos}")
            continue
        identity = f"{surface}#{pos}"
        if identity in vocab:
            licensed.append(identity)
            continue
        for rewritten in table.rule_rewrites(surface, pos):
            candidate = f"{rewritten}#{pos}"
            if candidate in vocab:
                licensed.append(candidate)
                break
    if not licensed:
        return [UNLICENSED]
    if policy == "first":
        return licensed[:1]
    return licensed


def normalized_frequency(count: float, doc_len: int) -> float:
    """Occurrences divided by document length, in [0, 1]."""
    if doc_len <= 0:
        raise MatrixError("document length must be >= 1 for normalized frequency")
    if count < 0 or count > doc_len:
        raise MatrixError(f"count {count} outside [0, {doc_len}]")
    return count / doc_len


def tfidf_weight(count: float, df: int, n_docs: int) -> float:
    """Raw count times ln(n_docs / df); zero for absent terms."""
    if count == 0:
        return 0.0
    if count < 0:
        raise MatrixError(f"negative count {count}")
    if df <= 0:
        raise MatrixError("term has occurrences but document frequency 0")
    if df > n_docs:
        raise MatrixError(f"document frequency {df} exceeds corpus size {n_docs}")
    return count * np.log(n_docs / df)


def mean_scores(streams, lex):
    """Per stream, ``np.mean`` over the lexicon rows of its covered tokens
    (all zeros when none is covered), and the covered count."""
    scores = []
    covered = []
    for tokens in streams:
        rows = [lex.row(t) for t in tokens if t in lex]
        scores.append(np.mean(rows, axis=0) if rows else np.zeros(len(lex.emotions)))
        covered.append(len(rows))
    return scores, covered


def read_lexicon_lines_reference(fh, source: str) -> EmotionLexicon:
    """Lexicon reader that checks every row on its own as it is read: the
    columns, the key, duplicates, then the numbers, signs and row sum."""
    provenance: list[tuple[str, str]] = []
    emotions: tuple[str, ...] | None = None
    rows: dict[str, np.ndarray] = {}
    for lineno, raw in enumerate(fh, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        if line[:2].rstrip() == "#":
            if emotions is None:
                body = line[1:].lstrip()
                key, sep, value = body.partition(": ")
                provenance.append((key, value) if sep else (body, ""))
            continue
        fields = line.split("\t")
        if emotions is None:
            if fields[0] != HEADER_KEY or len(fields) < 2:
                raise LexiconError(
                    f"{source}:{lineno}: expected header '{HEADER_KEY}<TAB>EMOTION...'"
                )
            emotions = tuple(fields[1:])
            if not all(emotions):
                raise LexiconError(f"{source}:{lineno}: empty emotion name")
            if len(set(emotions)) != len(emotions):
                raise LexiconError(f"{source}:{lineno}: duplicate emotion columns")
            continue
        if len(fields) != 1 + len(emotions):
            raise LexiconError(
                f"{source}:{lineno}: expected {1 + len(emotions)} tab-separated fields, "
                f"got {len(fields)}"
            )
        word = fields[0]
        try:
            lemma_pos_reference(word)
        except Exception as exc:
            raise LexiconError(f"{source}:{lineno}: bad word key: {exc}") from None
        if word in rows:
            raise LexiconError(f"{source}:{lineno}: duplicate row for {word!r}")
        try:
            vec = np.asarray([float(v) for v in fields[1:]], dtype=np.float64)
        except ValueError:
            raise LexiconError(f"{source}:{lineno}: non-numeric score") from None
        if np.any(vec < 0) or not np.all(np.isfinite(vec)):
            raise LexiconError(f"{source}:{lineno}: scores must be finite and >= 0")
        with np.errstate(over="ignore"):
            total = float(vec.sum())
        if abs(total - 1.0) > READ_ROW_SUM_TOLERANCE:
            raise LexiconError(
                f"{source}:{lineno}: row sum {total:.9g} outside 1 +/- {READ_ROW_SUM_TOLERANCE:g}"
            )
        rows[word] = vec
    if emotions is None:
        raise LexiconError(f"{source}: missing lexicon header")
    if not rows:
        raise LexiconError(f"{source}: lexicon has no rows")
    return EmotionLexicon(emotions, list(rows), list(rows.values()), provenance=provenance)


def _numbered_lines(path):
    """(line number, line) of every line that is neither blank nor a
    comment (``#`` alone or followed by whitespace), one line at a time, as
    text mode splits them."""
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if line.strip() and line[:2].rstrip() != "#":
                yield lineno, line


def load_gold_reference(path, lex, *, lemma_table=None, ambiguity="all") -> GoldSet:
    """Gold loader that takes one line at a time through every check (the
    header, the field count, a repeated id, the numbers, their range), then
    tokenizes each headline on its own."""
    emotions = None
    parsed = []
    seen = set()
    for lineno, line in _numbered_lines(path):
        fields = line.split("\t")
        if emotions is None:
            if len(fields) < 3 or fields[0] != "id" or fields[1] != "text":
                raise EvaluationError(
                    f"{path}:{lineno}: expected header 'id<TAB>text<TAB>EMOTION...'"
                )
            emotions = tuple(f.strip().upper() for f in fields[2:])
            if not all(emotions):
                raise EvaluationError(f"{path}:{lineno}: empty emotion name")
            if len(set(emotions)) != len(emotions):
                raise EvaluationError(f"{path}:{lineno}: duplicate emotion columns")
            continue
        if len(fields) != 2 + len(emotions):
            raise EvaluationError(
                f"{path}:{lineno}: expected {2 + len(emotions)} tab-separated fields, "
                f"got {len(fields)}"
            )
        if fields[0] in seen:
            raise EvaluationError(f"{path}:{lineno}: duplicate headline id {fields[0]!r}")
        seen.add(fields[0])
        try:
            values = [float(v) for v in fields[2:]]
        except ValueError:
            raise EvaluationError(f"{path}:{lineno}: non-numeric gold score") from None
        if not all(math.isfinite(v) and 0 <= v <= 100 for v in values):
            raise EvaluationError(f"{path}:{lineno}: gold scores must lie in [0, 1] or [0, 100]")
        parsed.append((fields[0], fields[1], values))
    if emotions is None:
        raise EvaluationError(f"{path}: missing gold header")
    if not parsed:
        raise EvaluationError(f"{path}: no gold headlines")
    parsed.sort(key=lambda p: p[0])
    ids = tuple(p[0] for p in parsed)
    gold = np.array([p[2] for p in parsed], dtype=np.float64)
    if (gold > 1.0).any():
        gold /= 100.0
    token_ids, lengths, strings = lemmatize_ids(
        [tokenize(text) for _, text, _ in parsed],
        lemma_table if lemma_table is not None else LemmaTable(),
        vocab=lex,
        policy=ambiguity,
    )
    scores, covered = score_ids(token_ids, lengths, strings, lex)
    labels = np.zeros(gold.shape, dtype=bool)
    return GoldSet(emotions, ids, gold, labels, lex.emotions, scores, covered, lengths)


def load_labels_reference(path, gold: GoldSet) -> GoldSet:
    """Label loader that takes one line at a time through every check: the
    field count, the id, duplicates, then each comma-separated name."""
    labels = np.zeros(gold.gold.shape, dtype=bool)
    seen = set()
    for lineno, line in _numbered_lines(path):
        fields = line.split("\t")
        if len(fields) != 2:
            raise EvaluationError(
                f"{path}:{lineno}: expected 2 tab-separated fields, got {len(fields)}"
            )
        headline_id, label_field = fields
        if headline_id not in gold.ids:
            raise EvaluationError(f"{path}:{lineno}: unknown headline id {headline_id!r}")
        if headline_id in seen:
            raise EvaluationError(f"{path}:{lineno}: duplicate labels for {headline_id!r}")
        seen.add(headline_id)
        names = {l.strip().upper() for l in label_field.split(",") if l.strip()}
        if not names:
            raise EvaluationError(
                f"{path}:{lineno}: label field names no emotion: {label_field!r}"
            )
        unknown = names - set(gold.emotions)
        if unknown:
            raise EvaluationError(
                f"{path}:{lineno}: label(s) outside the gold emotion set: {sorted(unknown)}"
            )
        for name in names:
            labels[gold.ids.index(headline_id), gold.emotions.index(name)] = True
    return GoldSet(
        gold.emotions, gold.ids, gold.gold, labels, gold.sources, gold.scores, gold.covered,
        gold.lengths,
    )


def read_score_input_reference(path) -> tuple[list[str], list[str]]:
    """The ids and texts of a score input, one line at a time."""
    ids, texts = [], []
    for lineno, line in _numbered_lines(path):
        fields = line.split("\t")
        if len(fields) != 2:
            raise MoodlexError(
                f"{path}:{lineno}: expected 2 tab-separated fields, got {len(fields)}"
            )
        ids.append(fields[0])
        texts.append(fields[1])
    return ids, texts


def dense(tdm):
    """The words-by-documents array of a term-document matrix, filled one
    stored entry at a time; checks that every row's columns are strictly
    ascending and that no stored weight is zero."""
    out = np.zeros((len(tdm.words), tdm.n_docs))
    assert len(tdm.indptr) == len(tdm.words) + 1 and tdm.indptr[0] == 0
    for row in range(len(tdm.words)):
        previous = -1
        for k in range(int(tdm.indptr[row]), int(tdm.indptr[row + 1])):
            col = int(tdm.indices[k])
            assert previous < col < tdm.n_docs and tdm.data[k] != 0.0
            out[row, col] = tdm.data[k]
            previous = col
    assert tdm.indptr[-1] == len(tdm.indices) == len(tdm.data)
    return out


def write_matrix_dump_reference(tdm, fh) -> None:
    """Matrix dump writer that formats every stored weight on its own."""
    indptr = tdm.indptr.tolist()
    indices = tdm.indices.tolist()
    data = tdm.data.tolist()
    fh.write(f"# scheme={tdm.scheme}\tn_docs={tdm.n_docs}\ttfidf_variant={TFIDF_VARIANT}\n")
    for row, word in enumerate(tdm.words):
        for k in range(indptr[row], indptr[row + 1]):
            fh.write(f"{word}\t{tdm.doc_ids[indices[k]]}\t{data[k]:.9g}\n")


def dense_count(token_streams):
    """Nested-loop recount: words sorted, one column per stream, in order."""
    words = sorted({t for tokens in token_streams for t in tokens})
    counts = [[0.0] * len(token_streams) for _ in words]
    for wi, word in enumerate(words):
        for dj, tokens in enumerate(token_streams):
            n = 0
            for t in tokens:
                if t == word:
                    n += 1
            counts[wi][dj] = float(n)
    return words, counts


def dense_build(docs, vocab, scheme, *, col_norm="sum", nf_length="filtered", min_df=1):
    """Dense end-to-end pipeline: filter, count, weight, multiply, normalize.

    ``docs`` is a sequence of (doc_id, tokens, votes-array) triples and
    ``vocab`` any container supporting membership tests. Returns a dict
    mapping word to its final score row (as a list of floats).
    """
    raw_lengths = {}
    filtered = []
    for doc_id, tokens, votes in docs:
        raw_lengths[doc_id] = len(tokens)
        kept = []
        for t in tokens:
            if t in vocab:
                kept.append(t)
        if kept:
            filtered.append((doc_id, kept, votes))
    if not filtered:
        raise ValueError("no non-empty documents")

    words, counts = dense_count([tokens for _, tokens, _ in filtered])
    n_docs = len(filtered)
    df = [
        sum(1 for dj in range(n_docs) if counts[wi][dj] > 0)
        for wi in range(len(words))
    ]

    if min_df > 1:
        keep = [wi for wi in range(len(words)) if df[wi] >= min_df]
        words = [words[i] for i in keep]
        counts = [counts[i] for i in keep]
        df = [df[i] for i in keep]

    if scheme == "normalized":
        for dj, (doc_id, tokens, _) in enumerate(filtered):
            length = float(len(tokens)) if nf_length == "filtered" else float(raw_lengths[doc_id])
            for wi in range(len(words)):
                counts[wi][dj] = counts[wi][dj] / length
    elif scheme == "tfidf":
        for wi in range(len(words)):
            idf = math.log(n_docs / df[wi])
            for dj in range(n_docs):
                counts[wi][dj] = counts[wi][dj] * idf
        keep = [
            wi
            for wi in range(len(words))
            if any(counts[wi][dj] != 0.0 for dj in range(n_docs))
        ]
        words = [words[i] for i in keep]
        counts = [counts[i] for i in keep]
    elif scheme != "raw":
        raise ValueError(f"unknown scheme {scheme!r}")

    n_emotions = len(filtered[0][2])
    raw_we = [[0.0] * n_emotions for _ in words]
    for wi in range(len(words)):
        for e in range(n_emotions):
            acc = 0.0
            for dj in range(n_docs):
                acc += counts[wi][dj] * float(filtered[dj][2][e])
            raw_we[wi][e] = acc

    for e in range(n_emotions):
        if col_norm == "sum":
            denom = 0.0
            for wi in range(len(words)):
                denom += raw_we[wi][e]
        else:
            denom = max(raw_we[wi][e] for wi in range(len(words)))
        if denom <= 0:
            raise ValueError(f"zero emotion column {e}")
        for wi in range(len(words)):
            raw_we[wi][e] = raw_we[wi][e] / denom

    result = {}
    for wi, word in enumerate(words):
        total = 0.0
        for e in range(n_emotions):
            total += raw_we[wi][e]
        if total > 0:
            result[word] = [raw_we[wi][e] / total for e in range(n_emotions)]
    return result


def dense_product(weights, votes):
    """Triple-loop matrix product oracle (words x docs times docs x emotions)."""
    n_words = len(weights)
    n_docs = len(weights[0]) if n_words else 0
    n_emotions = len(votes[0]) if votes else 0
    out = [[0.0] * n_emotions for _ in range(n_words)]
    for wi in range(n_words):
        for e in range(n_emotions):
            acc = 0.0
            for dj in range(n_docs):
                acc += float(weights[wi][dj]) * float(votes[dj][e])
            out[wi][e] = acc
    return out


def exact_pearson(xs, ys):
    """Pearson correlation from exact rational sums, rounded only at the end."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need two equal-length sequences")
    n = len(xs)
    fx = [Fraction(float(x)) for x in xs]
    fy = [Fraction(float(y)) for y in ys]
    mx = sum(fx) / n
    my = sum(fy) / n
    num = sum((a - mx) * (b - my) for a, b in zip(fx, fy))
    sx = sum((a - mx) ** 2 for a in fx)
    sy = sum((b - my) ** 2 for b in fy)
    if sx == 0 or sy == 0:
        raise ValueError("constant sequence")
    return float(num) / math.sqrt(float(sx) * float(sy))


def fsum_pearson(xs, ys):
    """Pearson correlation from two ``math.fsum`` means and three ``math.fsum``
    sums of products, one Python float operation at a time."""
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    dx = [x - mx for x in xs]
    dy = [y - my for y in ys]
    sx = math.fsum(d * d for d in dx)
    sy = math.fsum(d * d for d in dy)
    r = math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(sx * sy)
    return min(1.0, max(-1.0, r))


def make_random_corpus(rng, *, max_docs=20, max_words=50, n_emotions=8):
    """Randomized corpus triples plus a vocabulary list.

    At most ``max_docs`` documents over at most ``max_words`` distinct words.
    Documents cover at most half the vocabulary each (so tf-idf never zeroes
    every row), an occasional document is empty, some tokens fall outside the
    vocabulary, and every vote fraction is strictly positive (so no emotion
    column is ever all-zero).
    """
    pos_tags = "nvar"
    n_words = int(rng.integers(10, max_words + 1))
    words = [f"w{i:03d}#{pos_tags[i % 4]}" for i in range(n_words)]
    out_of_vocab = [f"x{i}#n" for i in range(3)]
    n_docs = int(rng.integers(3, max_docs + 1))
    docs = []
    for j in range(n_docs):
        if j >= 2 and rng.random() < 0.1:
            length = 0
        else:
            length = int(rng.integers(1, max(2, n_words // 2)))
        tokens = [words[int(k)] for k in rng.integers(0, n_words, size=length)]
        if length and rng.random() < 0.3:
            tokens[int(rng.integers(0, length))] = out_of_vocab[int(rng.integers(0, 3))]
        votes = rng.random(n_emotions) + 0.05
        votes = votes / votes.sum()
        docs.append((f"doc{j:03d}", tokens, votes))
    return docs, words
