"""Text preprocessing: tokenization, table-driven lemmatization, vocabulary filtering.

Raw text is reduced to lower-cased runs of letters, every surface token is
expanded into lemma#pos candidates through an exception table plus per-pos
suffix rules, and candidate streams are filtered against a reference
vocabulary (for example, a WordNet lemma inventory). All tables are
immutable after load.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Iterable, Iterator

from .errors import TextPipeError, VocabularyError
from .sink import open_source

#: Coarse part-of-speech tags, in the order candidates are scanned per surface
#: form. Verbs come first so that e.g. "kill" yields kill#v before kill#n.
POS_TAGS = ("v", "n", "a", "r")

AMBIGUITY_POLICIES = ("all", "first")

# Maximal runs of Unicode letters; digits, underscores and punctuation are
# token boundaries, so "22" or the digit tail of "abc123" never survive.
_TOKEN_RE = re.compile(r"[^\W\d_]+")
# For a str pattern, \s matches exactly the characters str.isspace accepts.
_SPACE_RE = re.compile(r"\s")


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


class VocabularyFilter:
    """Exact-membership whitelist of lemma#pos entries.

    An empty filter is rejected at construction: it would silently drop the
    whole corpus, which is a configuration error rather than a usable mode.
    """

    def __init__(self, entries: Iterable[str]):
        unique = dict.fromkeys(entries)  # distinct, in input order
        for entry in unique:
            check_lemma_pos(entry)
        if not unique:
            raise VocabularyError("vocabulary filter has no entries")
        self._entries = frozenset(unique)

    def __contains__(self, token: object) -> bool:
        return token in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    @classmethod
    def from_file(cls, path) -> "VocabularyFilter":
        """Load one lemma#pos per line; ``#`` at column 1 starts a comment."""
        first_line: dict[str, int] = {}  # distinct entry -> line it first appears on
        with open_source(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                if raw.startswith("#"):
                    continue
                line = raw.strip()
                if line:
                    first_line.setdefault(line, lineno)
        if not first_line:
            raise VocabularyError(f"{path}: vocabulary file contains no entries")
        try:
            return cls(first_line)
        except TextPipeError:
            # The constructor checks entries in file order, once each; only
            # now is the first bad line looked up, to name it.
            for entry, lineno in first_line.items():
                try:
                    check_lemma_pos(entry)
                except TextPipeError as exc:
                    raise VocabularyError(f"{path}:{lineno}: {exc}") from exc
            raise


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
        self._entries: dict[tuple[str, str], str] = {}
        for surface, pos, lemma in entries:
            self._check_pos(pos)
            key = (surface, pos)
            if key in self._entries and self._entries[key] != lemma:
                raise TextPipeError(
                    f"conflicting lemma table entries for {surface!r}#{pos}"
                )
            self._entries[key] = lemma
        self._rules: dict[str, list[tuple[str, str]]] = {p: [] for p in POS_TAGS}
        for pos, suffix, replacement in rules:
            self._check_pos(pos)
            if not suffix:
                raise TextPipeError("suffix rule with empty suffix")
            self._rules[pos].append((suffix, replacement))

    @staticmethod
    def _check_pos(pos: str) -> None:
        if pos not in POS_TAGS:
            raise TextPipeError(f"invalid pos tag {pos!r} in lemma table")

    def entry(self, surface: str, pos: str) -> str | None:
        return self._entries.get((surface, pos))

    def rule_rewrites(self, surface: str, pos: str) -> Iterator[str]:
        """Yield rule-rewritten lemmas for ``surface`` in rule-file order."""
        for suffix, replacement in self._rules.get(pos, ()):
            if surface.endswith(suffix):
                rewritten = surface[: len(surface) - len(suffix)] + replacement
                if rewritten:
                    yield rewritten

    @classmethod
    def from_file(cls, path) -> "LemmaTable":
        """Load ``surface<TAB>pos<TAB>lemma`` lines, then an optional
        ``[rules]`` section of ``pos<TAB>suffix<TAB>replacement`` lines."""
        entries: list[tuple[str, str, str]] = []
        rules: list[tuple[str, str, str]] = []
        in_rules = False
        with open_source(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.rstrip("\r\n")
                if not line.strip():
                    continue
                if line.strip() == "[rules]":
                    in_rules = True
                    continue
                fields = line.split("\t")
                if len(fields) != 3:
                    raise TextPipeError(
                        f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
                    )
                if in_rules:
                    rules.append((fields[0], fields[1], fields[2]))
                else:
                    entries.append((fields[0], fields[1], fields[2]))
        try:
            return cls(entries, rules)
        except TextPipeError as exc:
            raise TextPipeError(f"{path}: {exc}") from exc


def tokenize(text: str) -> list[str]:
    """Split text into lower-cased maximal runs of Unicode letters."""
    return [t.lower() for t in _TOKEN_RE.findall(text)]


class _Resolver(dict):
    """Candidates per surface form under the rules of :func:`lemmatize_all`.

    The table and ``vocab`` are compiled once into plain dicts and a
    frozenset; each surface form is resolved on its first lookup and kept.
    """

    def __init__(self, table: LemmaTable, vocab: Iterable[str], policy: str):
        self._members = frozenset(vocab)
        # Per pos: the table hits, the identity tail, every rule suffix for
        # one str.endswith pre-check, and the rules in file order.
        self._per_pos = [
            (
                {s: f"{lemma}#{pos}" for (s, p), lemma in table._entries.items() if p == pos},
                "#" + pos,
                tuple(suffix for suffix, _ in table._rules[pos]),
                [(suffix, f"{rep}#{pos}", bool(rep)) for suffix, rep in table._rules[pos]],
            )
            for pos in POS_TAGS
        ]
        self._keep = 1 if policy == "first" else len(POS_TAGS)

    def __missing__(self, surface: str) -> list[str]:
        members = self._members
        licensed: list[str] = []
        for pos_hits, tail, suffixes, rules in self._per_pos:
            hit = pos_hits.get(surface)
            if hit is None:
                if (identity := surface + tail) in members:
                    hit = identity
                elif surface.endswith(suffixes):
                    for suffix, rule_tail, replaces in rules:
                        if surface.endswith(suffix):
                            stem = surface[: -len(suffix)]
                            # A rewrite that would empty the surface is skipped.
                            if (stem or replaces) and (rewrite := stem + rule_tail) in members:
                                hit = rewrite
                                break
            if hit is not None:
                licensed.append(hit)
                if len(licensed) == self._keep:
                    break
        # Unmapped surface forms pass through as nouns; downstream
        # vocabulary filtering decides whether they survive.
        candidates = self[surface] = licensed or [surface + "#n"]
        return candidates


def lemmatize_all(
    streams: Iterable[Iterable[str]],
    table: LemmaTable,
    *,
    vocab: Iterable[str],
    policy: str = "all",
) -> list[list[str]]:
    """Map each stream of surface tokens to lemma#pos candidate tokens.

    Each occurrence of a surface form yields every candidate licensed by the
    exception table or ``vocab`` (identity form first, then suffix-rule
    rewrites), scanned in POS_TAGS order. ``vocab`` is a
    :class:`VocabularyFilter`, a set of lemma#pos strings, or a lexicon.
    Under the default ``all`` policy every licensed candidate is emitted;
    ``first`` keeps only the first.

    The table and ``vocab`` are compiled once per call, and candidates, which
    depend only on the surface form, are worked out once per distinct surface
    form in the whole call.
    """
    if policy not in AMBIGUITY_POLICIES:
        raise TextPipeError(
            f"unknown ambiguity policy {policy!r}: expected one of {AMBIGUITY_POLICIES}"
        )
    candidates = _Resolver(table, vocab, policy).__getitem__
    return [list(chain.from_iterable(map(candidates, tokens))) for tokens in streams]
