"""Text preprocessing: tokenization, table-driven lemmatization, vocabulary filtering.

Raw text is reduced to lower-cased runs of letters, every surface token is
expanded into lemma#pos candidates through an exception table plus per-pos
suffix rules, and candidate streams are filtered against a reference
vocabulary (for example, a WordNet lemma inventory). All tables are
immutable after load.
"""

from __future__ import annotations

import re
from collections import defaultdict
from itertools import chain, compress, count, repeat
from operator import ne
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import TextPipeError, VocabularyError
from .sink import first_misfit, first_true, read_rows

#: Coarse part-of-speech tags, in the order candidates are scanned per surface
#: form. Verbs come first so that e.g. "kill" yields kill#v before kill#n.
POS_TAGS = ("v", "n", "a", "r")

AMBIGUITY_POLICIES = ("all", "first")

# Maximal runs of Unicode letters; digits, underscores and punctuation are
# token boundaries, so "22" or the digit tail of "abc123" never survive.
_TOKEN_RE = re.compile(r"[^\W\d_]+")
# The same for ASCII text, as a str.translate table: letters lowered, line
# breaks kept and the rest spaces.
_ASCII_LETTERS = "".join(
    chr(c).lower() if chr(c).isalpha() or chr(c) == "\n" else " " for c in range(128)
)
# For a str pattern, \s matches exactly the characters str.isspace accepts.
_SPACE_RE = re.compile(r"\s")
# A line break not followed by a whole lemma#pos key line. The literal \n
# lets the search jump from line to line.
_NOT_A_KEY_RE = re.compile(rf"\n(?!\S+#[{''.join(POS_TAGS)}]$)", re.M)
# What lemmatize_ids puts after each stream's tokens.
_END = object()

#: The one candidate of a surface form that no tag licenses. check_lemma_pos
#: rejects it, so no vocabulary filter or lexicon holds it.
UNLICENSED = "#n"

#: Tokens a chunk's temporaries are sized by: the surface tokens whose
#: candidates lemmatize_ids gathers at once, and the tokens of a chunk of
#: whole documents in matrix.emotion_mass (a longer document is a chunk alone).
CHUNK_TOKENS = 1 << 18


def check_lemma_pos(token: str) -> None:
    """Raise :class:`TextPipeError` unless ``token`` is ``lemma#pos``.

    The pos tag follows the last ``#`` and is one of :data:`POS_TAGS`; the
    lemma before it is non-empty, lower-case and free of whitespace.
    """
    lemma, sep, pos = token.rpartition("#")
    if not sep:
        raise TextPipeError(f"not a lemma#pos token: {token!r}")
    if pos not in POS_TAGS:
        raise TextPipeError(
            f"invalid pos tag {pos!r}: expected one of {', '.join(POS_TAGS)}"
        )
    if not lemma:
        raise TextPipeError("lemma must be non-empty")
    if lemma != lemma.lower() or _SPACE_RE.search(lemma):
        raise TextPipeError(f"lemma must be lower-case with no whitespace: {lemma!r}")


def key_faults(keys: Sequence[str]) -> dict[int, str]:
    """The text of what :func:`check_lemma_pos` raises for each of ``keys``
    it rejects, by index, in ascending order.

    Up to 2**15 keys are checked at once, each after a line break in one
    string: no key may hold a line break, each line must be a lemma#pos key
    and the whole string lower-case. Only a chunk that fails that is checked
    key by key. The bound keeps the string small next to the keys. A key that
    is not a string makes the join raise ``TypeError``.
    """
    faults = {}
    step = 1 << 15
    for start in range(0, len(keys), step):
        chunk = keys[start : start + step] if len(keys) > step else keys
        text = "\n" + "\n".join(chunk)
        if text.count("\n") > len(chunk) or _NOT_A_KEY_RE.search(text) or text != text.lower():
            for at, key in enumerate(chunk, start):
                try:
                    check_lemma_pos(key)
                except TextPipeError as exc:
                    faults[at] = str(exc)
    return faults


class VocabularyFilter(frozenset):
    """Exact-membership whitelist of lemma#pos entries: a frozenset whose
    entries are checked once, when it is made.

    An empty filter is rejected at construction: it would silently drop the
    whole corpus, which is a configuration error rather than a usable mode.
    """

    def __new__(cls, entries: Iterable[str]):
        unique = list(dict.fromkeys(entries))  # distinct, in input order
        if faults := key_faults(unique):
            raise TextPipeError(faults[min(faults)])
        if not unique:
            raise VocabularyError("vocabulary filter has no entries")
        return super().__new__(cls, unique)

    @classmethod
    def from_file(cls, path) -> "VocabularyFilter":
        """Load one lemma#pos per row of the file at ``path``, read by
        :func:`sink.read_rows`, each entry stripped. A ``#``-led entry such as
        ``#tag#n`` is an entry; a comment is ``#`` alone or followed by
        whitespace. The constructor checks each distinct entry once; only if
        it fails are all the entries checked, to name the first bad line."""
        rows, linenos, _ = read_rows(path)
        at, fault = first_misfit(rows, 1)
        if fault is not None:
            raise VocabularyError(f"{path}:{linenos[at]}: {fault}")
        entries = list(map(str.strip, rows))
        if not entries:
            raise VocabularyError(f"{path}: vocabulary file contains no entries")
        try:
            return cls(entries)
        except TextPipeError as exc:
            faults = key_faults(entries)
            at = min(faults)
            raise VocabularyError(f"{path}:{linenos[at]}: {faults[at]}") from exc


class LemmaTable:
    """Exception table mapping (surface, pos) to a lemma, plus suffix rules.

    Table lookups always take priority over rules. Rules are tried in file
    order and never yield an empty lemma (a rewrite that would empty the
    surface form is skipped).
    """

    def __init__(
        self,
        entries: Iterable[tuple[str, str, str]] = (),
        rules: Iterable[tuple[str, str, str]] = (),
    ):
        self._entries: dict[str, dict[str, str]] = {p: {} for p in POS_TAGS}
        self._rules: dict[str, list[tuple[str, str]]] = {p: [] for p in POS_TAGS}
        for surface, pos, lemma in entries:
            self._add_entry(surface, pos, lemma)
        for pos, suffix, replacement in rules:
            self._add_rule(pos, suffix, replacement)

    def _add_entry(self, surface: str, pos: str, lemma: str) -> None:
        self._check_pos(pos)
        # No token is empty, and no vocabulary holds a candidate that is not
        # lemma#pos: such an entry would only hide the form's other candidates.
        if not surface:
            raise TextPipeError("lemma table entry with empty surface")
        check_lemma_pos(f"{lemma}#{pos}")
        if self._entries[pos].setdefault(surface, lemma) != lemma:
            raise TextPipeError(f"conflicting lemma table entries for {surface!r}#{pos}")

    def _add_rule(self, pos: str, suffix: str, replacement: str) -> None:
        self._check_pos(pos)
        if not suffix:
            raise TextPipeError("suffix rule with empty suffix")
        self._rules[pos].append((suffix, replacement))

    @staticmethod
    def _check_pos(pos: str) -> None:
        if pos not in POS_TAGS:
            raise TextPipeError(f"invalid pos tag {pos!r} in lemma table")

    def entry(self, surface: str, pos: str) -> str | None:
        return self._entries.get(pos, {}).get(surface)

    def rule_rewrites(self, surface: str, pos: str) -> Iterator[str]:
        """Yield rule-rewritten lemmas for ``surface`` in rule-file order."""
        for suffix, replacement in self._rules.get(pos, ()):
            if surface.endswith(suffix):
                rewritten = surface[: len(surface) - len(suffix)] + replacement
                if rewritten:
                    yield rewritten

    @classmethod
    def from_file(cls, path) -> "LemmaTable":
        """Load ``surface<TAB>pos<TAB>lemma`` rows, then an optional
        ``[rules]`` section of ``pos<TAB>suffix<TAB>replacement`` rows, from
        the file at ``path``, read by :func:`sink.read_rows`."""
        rows, linenos, _ = read_rows(path)
        kept = [n for n, row in enumerate(rows) if row != "[rules]"]
        at, fault = first_misfit([rows[n] for n in kept], 3)
        if fault is not None:
            raise TextPipeError(f"{path}:{linenos[kept[at]]}: {fault}")
        # The entries are the rows before the first [rules] line: the kept
        # rows that keep their own index.
        split = first_true(map(ne, kept, count()), len(kept))
        table = cls()
        adds = chain(repeat(table._add_entry, split), repeat(table._add_rule))
        for add, n in zip(adds, kept):
            try:
                add(*rows[n].split("\t"))
            except TextPipeError as exc:
                raise TextPipeError(f"{path}:{linenos[n]}: {exc}") from exc
        return table


def tokenize(text: str) -> list[str]:
    """Split text into lower-cased maximal runs of Unicode letters."""
    if text.isascii():  # where the letters are exactly A-Z and a-z
        return text.translate(_ASCII_LETTERS).split()
    return [t.lower() for t in _TOKEN_RE.findall(text)]


def tokenize_all(texts: Sequence[str]) -> Iterator[list[str]]:
    """``map(tokenize, texts)``: an ASCII batch free of line breaks is
    joined, one text per line, and translated and split at the line breaks
    at once; each text's tokens are only made when they are read."""
    joined = "\n".join(texts)
    if joined.isascii() and joined.count("\n") == len(texts) - 1:
        return map(str.split, joined.translate(_ASCII_LETTERS).split("\n"))
    return map(tokenize, texts)


def _tag_hits(
    row_of: dict[str, int], table: LemmaTable, vocab: Iterable[str]
) -> Iterator[dict[int, str]]:
    """For each tag of POS_TAGS in turn, the candidate string that the table
    or ``vocab`` licenses for each surface form ``row_of`` holds, by its row.

    ``vocab`` is read once, into each tag's keys by lemma: ``lemma#pos`` is a
    key exactly when ``keys[pos]`` holds ``lemma``, as no tag holds a ``#``.
    An identity or rule candidate is the vocabulary's own key; only a table
    hit is a new string.
    """
    keys = {pos: {} for pos in POS_TAGS}
    for key in vocab:
        lemma, sep, pos = key.rpartition("#")
        if sep and pos in keys:
            keys[pos][lemma] = key
    get = row_of.get
    for pos, known in keys.items():
        # Identity forms the vocabulary holds, overridden by table hits; then
        # the rules in file order, for the surface forms still without a hit.
        hits = {row_of[s]: known[s] for s in known.keys() & row_of.keys()}
        entries = table._entries[pos]
        hits.update((row_of[s], f"{entries[s]}#{pos}") for s in entries.keys() & row_of.keys())
        for suffix, replacement in table._rules[pos]:
            # Whichever are fewer, the forms or the lemmas, are rewritten and
            # looked up among the others. No form is rewritten to "".
            if len(row_of) < len(known):
                found = {i: known[r] for s, i in row_of.items() if s.endswith(suffix)
                         and (r := s[: len(s) - len(suffix)] + replacement) and r in known}
            else:
                cut = len(replacement)
                stems = [(lemma[: len(lemma) - cut], key) for lemma, key in known.items()
                         if lemma and lemma.endswith(replacement)]
                found = {i: key for stem, key in stems if (i := get(stem + suffix)) is not None}
            hits = found | hits
        yield hits


def _candidate_runs(
    row_of: dict[str, int], table: LemmaTable, vocab: Iterable[str], first: bool, id_of: dict
) -> tuple[np.ndarray, np.ndarray]:
    """The candidates of the forms ``row_of`` numbers 0, 1, ... (:func:`_tag_hits`)
    as one run per form, in POS_TAGS order: each form's number of candidates,
    as ``int32``, and the ids ``id_of`` gives the runs' candidates, in order."""
    counts = np.zeros(len(row_of), dtype=np.int32)
    runs = []
    # The key dicts are freed when _tag_hits ends.
    for hits in _tag_hits(row_of, table, vocab):
        rows, candidates = np.fromiter(hits, np.int32, len(hits)), list(hits.values())
        if first:  # a form keeps only its first tag's candidate
            new = counts[rows] == 0
            rows, candidates = rows[new], list(compress(candidates, new))
        counts[rows] += 1
        runs.append((rows, candidates))
    # A form without a candidate takes the placeholder, so its tokens still count.
    unmapped = np.flatnonzero(counts == 0)
    counts[unmapped] = 1
    runs.append((unmapped, UNLICENSED))
    # Each tag's candidates go to the next free slot of their forms' runs.
    fill = np.cumsum(counts, dtype=np.int64) - counts
    flat = np.empty(int(counts.sum()), dtype=object)
    for rows, candidates in runs:
        flat[fill[rows]] = candidates
        fill[rows] += 1
    return counts, np.fromiter(map(id_of.__getitem__, flat), np.int32, flat.size)


def lemmatize_ids(
    streams: Iterable[Iterable[str]],
    table: LemmaTable | None = None,
    *,
    vocab: Iterable[str],
    policy: str = "all",
    strings: Sequence[str] = (),
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Map streams of surface tokens to lemma#pos candidate tokens, as ids.

    Each occurrence of a surface form yields every candidate licensed by the
    exception ``table`` (``None`` for an empty one) or ``vocab`` (identity
    form first, then suffix-rule rewrites), scanned in POS_TAGS order.
    ``vocab`` is a :class:`VocabularyFilter`, a set of lemma#pos strings, or
    a lexicon: it is iterated once, into one dict of keys by lemma per pos
    tag, and each identity form or rewrite is then one dict lookup.
    Under the default ``all`` policy every licensed candidate is emitted;
    ``first`` keeps only the first. A surface form with no licensed candidate
    yields :data:`UNLICENSED`, one token that no vocabulary or lexicon holds.

    Returns all streams' candidate tokens as one ``int32`` array of ids, the
    number of them per stream as ``int64``, and the strings the ids index:
    the distinct ``strings`` given, numbered 0, 1, ..., then the other
    candidate strings in order of first occurrence. Candidates are worked
    out once per distinct surface form in the whole call.
    """
    if policy not in AMBIGUITY_POLICIES:
        raise TextPipeError(
            f"unknown ambiguity policy {policy!r}: expected one of {AMBIGUITY_POLICIES}"
        )
    # One lookup numbers every surface form 0, 1, ... by its first occurrence;
    # a marker after each stream, numbered -1, shows where the stream ends.
    row_of = defaultdict(count().__next__, {_END: -1})
    rows = np.fromiter(
        map(row_of.__getitem__, chain.from_iterable(map(chain, streams, repeat((_END,))))),
        np.int32,
    )
    del row_of[_END]
    id_of = defaultdict(count(len(strings)).__next__, zip(strings, count()))
    counts, ids = _candidate_runs(row_of, table or LemmaTable(), vocab, policy == "first", id_of)
    del row_of  # the surface forms
    # Form f's run is ids[starts[f]:starts[f] + counts[f]]; the end marker's,
    # the last, is empty. int32 holds every index below unless ids reaches 2**31.
    dtype = np.int32 if ids.size < 2**31 else np.int64
    counts = np.append(counts, np.int32(0))
    starts = np.cumsum(counts, dtype=dtype) - counts
    # The tokens are expanded CHUNK_TOKENS at a time, so no index is as long
    # as all of them. A token's candidates end at ends[t] in its chunk: one
    # index that counts up through each token's run from the run's start
    # gathers them all.
    chunks = [slice(a, a + CHUNK_TOKENS) for a in range(0, rows.size, CHUNK_TOKENS)]
    token_ids = np.empty(sum(int(counts[rows[c]].sum()) for c in chunks), np.int32)
    done, stream_ends = 0, [np.zeros(1, np.int64)]
    for chunk in map(rows.__getitem__, chunks):
        per_token = counts[chunk]
        ends = np.cumsum(per_token, dtype=dtype)
        index = np.repeat(starts[chunk] - ends + per_token, per_token)
        index += np.arange(index.size, dtype=dtype)
        np.take(ids, index, out=token_ids[done : done + index.size])
        stream_ends.append(ends[chunk < 0] + np.int64(done))
        done += index.size
    return token_ids, np.diff(np.concatenate(stream_ends)), tuple(id_of)
