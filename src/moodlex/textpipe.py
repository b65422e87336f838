"""Text preprocessing: tokenization, table-driven lemmatization, vocabulary filtering.

Raw text is reduced to lower-cased runs of letters, every surface token is
expanded into lemma#pos candidates through an exception table plus per-pos
suffix rules, and candidate streams are filtered against a reference
vocabulary (for example, a WordNet lemma inventory). All tables are
immutable after load.
"""

from __future__ import annotations

import re
from array import array
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

#: The one candidate of a surface form that no tag licenses. check_lemma_pos
#: rejects it, so no vocabulary filter or lexicon holds it.
UNLICENSED = "#n"

#: Tokens a chunk's temporaries are sized by: the tokens of a chunk of whole
#: streams in lemmatize_ids and of whole documents in matrix.emotion_mass (a
#: longer stream or document is a chunk alone). A 300-document raw-text build
#: (about 150k tokens) spans five chunks.
CHUNK_TOKENS = 1 << 15


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


def tokenize_all(texts: Iterable[str]) -> Iterator[list[str]]:
    """``map(tokenize, texts)``, taken in batches of whole texts that end
    once a batch holds :data:`CHUNK_TOKENS` characters: an ASCII batch free
    of line breaks is joined, one text per line, and translated and split at
    the line breaks at once; each text's tokens are only made when they are
    read, and a batch only once the one before it is read."""
    batch, size = [], 0
    for text in texts:
        batch.append(text)
        size += len(text)
        if size >= CHUNK_TOKENS:
            yield from _tokenize_batch(batch)
            batch, size = [], 0
    yield from _tokenize_batch(batch)


def _tokenize_batch(texts: list[str]) -> Iterator[list[str]]:
    joined = "\n".join(texts)
    if joined.isascii() and joined.count("\n") == len(texts) - 1:
        return map(str.split, joined.translate(_ASCII_LETTERS).split("\n"))
    return map(tokenize, texts)


def _tag_forms(table: LemmaTable, pos: str, known: dict[str, str]) -> dict[str, str]:
    """The candidate that ``table`` or the tag's keys by lemma ``known``
    license for each surface form, by the form, for the tag ``pos``.

    A rule's forms are found from the lemma side: each lemma that ends in the
    rule's replacement, with the suffix in its place, is a form the rule
    licenses, so the cost grows with the vocabulary and the rules, never with
    the text. A table hit overrides the identity form, which overrides the
    rules, each of which overrides the ones after it in file order.
    """
    # No rule rewrites a form to "", the lemma of a key "#pos".
    lemmas = {lemma: key for lemma, key in known.items() if lemma} if "" in known else known
    licensed = {}
    for suffix, replacement in reversed(table._rules[pos]):
        cut = len(replacement)
        stems = lemmas if not cut else {
            lemma[: len(lemma) - cut]: key for lemma, key in lemmas.items()
            if lemma.endswith(replacement)
        }
        licensed.update(zip(map(str.__add__, stems, repeat(suffix)), stems.values()))
    licensed.update(known)
    licensed.update((s, f"{lemma}#{pos}") for s, lemma in table._entries[pos].items())
    return licensed


def _runs(
    table: LemmaTable, vocab: Iterable[str], first: bool
) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """Every surface form that ``table`` or ``vocab`` licenses
    (:func:`_tag_forms`), with its candidates as one run per form, in
    POS_TAGS order: each form's run, numbered from 1, each run's number of
    candidates, as ``int32``, and the runs' candidate strings, run after run.
    Run 0 holds the placeholder, for every other form.

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
    tags = [_tag_forms(table, pos, keys.pop(pos)) for pos in POS_TAGS]
    # A form is numbered once per tag that licenses it: the last number is
    # its run, and the runs of the others stay empty.
    run_of = dict(zip(chain.from_iterable(tags), count(1)))
    counts = np.zeros(sum(map(len, tags)) + 1, dtype=np.int32)
    counts[0] = 1
    runs = []  # per tag, the runs of the forms it licenses and their candidates
    for licensed in tags:
        rows = np.fromiter(map(run_of.__getitem__, licensed), np.int32, len(licensed))
        candidates = list(licensed.values())
        if first:  # a form keeps only its first tag's candidate
            new = counts[rows] == 0
            rows, candidates = rows[new], list(compress(candidates, new))
        counts[rows] += 1
        runs.append((rows, candidates))
    del tags
    # Each tag's candidates go to the next free slot of their forms' runs.
    fill = np.cumsum(counts, dtype=np.int64) - counts
    flat = np.empty(int(counts.sum()), dtype=object)
    flat[0] = UNLICENSED
    for rows, candidates in runs:
        flat[fill[rows]] = candidates
        fill[rows] += 1
    return run_of, counts, flat


def _run_chunks(
    streams: Iterable[Iterable[str]], run_of: dict[str, int]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``streams`` in chunks of whole streams that hold at most
    :data:`CHUNK_TOKENS` tokens (a longer stream is a chunk alone), each as
    its tokens' runs (``run_of``'s numbers, 0 for a form it lacks), as
    ``int32``, and each stream's number of tokens. A stream's tokens are
    dropped once they are looked up."""
    rows, sizes = array("i"), []
    for stream in streams:
        tokens = stream if isinstance(stream, list) else list(stream)
        if sizes and len(rows) + len(tokens) > CHUNK_TOKENS:
            yield np.frombuffer(rows, np.int32), np.array(sizes, np.int64)
            rows, sizes = array("i"), []
        rows.fromlist(list(map(run_of.get, tokens, repeat(0))))
        sizes.append(len(tokens))
    if sizes:
        yield np.frombuffer(rows, np.int32), np.array(sizes, np.int64)


def _spans(starts: np.ndarray, counts: np.ndarray, dtype: type) -> np.ndarray:
    """The indices of runs that start at ``starts`` and hold ``counts``
    entries each, run after run, in ``dtype`` or wider: one index that counts
    up through each run from the run's start."""
    ends = np.cumsum(counts, dtype=dtype)
    index = np.repeat(starts - ends + counts, counts)
    index += np.arange(index.size, dtype=dtype)
    return index


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
    a lexicon: it is iterated once, and every form it or the table licenses
    is given its run of candidates before any stream is read.
    Under the default ``all`` policy every licensed candidate is emitted;
    ``first`` keeps only the first. A surface form with no licensed candidate
    yields :data:`UNLICENSED`, one token that no vocabulary or lexicon holds.

    Returns all streams' candidate tokens as one ``int32`` array of ids, the
    number of them per stream as ``int64``, and the strings the ids index:
    the distinct ``strings`` given, numbered 0, 1, ..., then the other
    candidate strings in order of first occurrence. The streams are read in
    chunks of whole streams of at most :data:`CHUNK_TOKENS` tokens; nothing
    but the output grows with the text.
    """
    if policy not in AMBIGUITY_POLICIES:
        raise TextPipeError(
            f"unknown ambiguity policy {policy!r}: expected one of {AMBIGUITY_POLICIES}"
        )
    run_of, counts, candidates = _runs(table or LemmaTable(), vocab, policy == "first")
    # A run holds at most one candidate per tag, so int32 holds every index
    # unless the runs, or a chunk's candidates, reach 2**31.
    starts = (np.cumsum(counts) - counts).astype(np.int32 if candidates.size < 2**31 else np.int64)
    id_of = defaultdict(count(len(strings)).__next__, zip(strings, count()))
    # Each run's candidate ids, from the chunk that first meets the run on.
    ids, met = np.empty(candidates.size, np.int32), np.zeros(counts.size, bool)
    # The output grows in place, chunk by chunk, so it is never copied whole.
    token_ids, stream_lengths = array("i"), [np.zeros(0, np.int64)]
    for rows, sizes in _run_chunks(streams, run_of):
        dtype = np.int32 if candidates.size + len(POS_TAGS) * rows.size < 2**31 else np.int64
        # The chunk's new runs, in order of first occurrence, number their
        # candidates in that order.
        unmet = rows[~met[rows]]
        fresh, at = np.unique(unmet, return_index=True)
        fresh = fresh[np.argsort(at)]
        met[fresh] = True
        slots = _spans(starts[fresh], counts[fresh], dtype)
        ids[slots] = np.fromiter(map(id_of.__getitem__, candidates[slots]), np.int32, slots.size)
        per_token = counts[rows]
        token_ids.frombytes(ids[_spans(starts[rows], per_token, dtype)].tobytes())
        ends = np.concatenate(([0], np.cumsum(per_token)))[np.cumsum(sizes)]
        stream_lengths.append(np.diff(ends, prepend=0))
    return np.frombuffer(token_ids, np.int32), np.concatenate(stream_lengths), tuple(id_of)
