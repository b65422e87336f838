"""Seeded synthetic inputs for the moodlex benchmark, with known answers.

Everything here is drawn from one ``random.Random(seed)``, so a seed always
gives the same files. Next to the inputs the generator returns (and writes
to ``answers.json``) what it knows from its own draws: token counts, the
distinct-surface and out-of-vocabulary shares, the lexicon entries expected
after the vocabulary, min-df and tf-idf drops, the dump's nonzero count,
per-headline covered/total tokens and the planted word -> emotion pairs.

Candidate expansion of surface forms is restated here from the file-format
contract in README.md ("Lemma table"), independently of ``moodlex.textpipe``.
This module uses only the standard library; the program under test sees
only the files it writes.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter

EMOTIONS = ("AFRAID", "AMUSED", "ANGRY", "ANNOYED", "DONT_CARE", "HAPPY", "INSPIRED", "SAD")
GOLD_EMOTIONS = ("ANGER", "DISGUST", "FEAR", "JOY", "SADNESS", "SURPRISE")
#: Gold target -> lexicon emotion; DISGUST is discarded, as in SemEval-2007
#: evaluations of DepecheMood.
MAPPING = {"ANGER": "ANGRY", "DISGUST": None, "FEAR": "AFRAID", "JOY": "HAPPY",
           "SADNESS": "SAD", "SURPRISE": "INSPIRED"}
POS_TAGS = ("v", "n", "a", "r")
#: Suffix rules in lemma-table file order: (pos, suffix, replacement).
RULES = (
    ("v", "ing", ""), ("v", "ed", "e"), ("v", "ed", ""), ("v", "s", ""),
    ("n", "es", ""), ("n", "s", ""),
    ("a", "est", ""), ("a", "er", ""),
    ("r", "ly", ""),
)
INFLECTIONS = {"v": ("ing", "ed", "s"), "n": ("s",), "a": ("er", "est"), "r": ()}

VOCAB_SIZE = 8000
POS_WEIGHTS = (("n", 0.5), ("v", 0.25), ("a", 0.15), ("r", 0.10))
DUAL_POS_SHARE = 0.08       # lemmas listed under two parts of speech
TABLE_ENTRIES = 250         # irregular surface forms in the exception table
PLANTED_PER_EMOTION = 6
DOC_TOKENS = (450, 550)     # uniform document length range
OOV_SHARE = 0.08            # planted out-of-vocabulary token share
PLANTED_SHARE = 0.05        # planted emotion-word share per document
INFLECT_SHARE = 0.35        # text tokens written as an inflected form
IRREGULAR_SHARE = 0.5       # table-listed lemmas written in their irregular form
VOTE_ALPHA = 0.4            # symmetric Dirichlet concentration of document votes
HEADLINE_TOKENS = 10
UNCOVERED_HEADLINE_SHARE = 0.02
EMPTY_HEADLINE_SHARE = 0.005

_CONSONANTS = "bcdfghjklmnprstvw"
_VOWELS = "aeiou"
# Out-of-vocabulary words always contain one of these letters, which no
# vocabulary lemma, irregular form or suffix contains, so no suffix rewrite
# can turn them into a vocabulary entry.
_OOV_LETTERS = "qxz"


def _word(rng: random.Random, syllables: int) -> str:
    out = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables))
    if rng.random() < 0.5:
        out += rng.choice(_CONSONANTS)
    return out


def _oov_word(rng: random.Random) -> str:
    word = _word(rng, rng.randint(2, 3))
    cut = rng.randrange(len(word))
    return word[:cut] + rng.choice(_OOV_LETTERS) + word[cut:]


class Language:
    """Vocabulary, lemma table, planted words and a Zipf sampler over entries."""

    def __init__(self, rng: random.Random):
        lemmas: list[str] = []
        seen: set[str] = set()
        while len(lemmas) < VOCAB_SIZE:
            word = _word(rng, rng.randint(2, 3))
            if word not in seen:
                seen.add(word)
                lemmas.append(word)
        pos_labels = [p for p, _ in POS_WEIGHTS]
        pos_weights = [w for _, w in POS_WEIGHTS]
        entries: list[tuple[str, str]] = []
        for lemma in lemmas:
            pos = rng.choices(pos_labels, pos_weights)[0]
            entries.append((lemma, pos))
            if rng.random() < DUAL_POS_SHARE:
                second = rng.choice([p for p in POS_TAGS if p != pos])
                entries.append((lemma, second))
        rng.shuffle(entries)
        self.entries = entries[:VOCAB_SIZE]
        self.vocab = {f"{lemma}#{pos}" for lemma, pos in self.entries}

        self.table: dict[tuple[str, str], str] = {}
        self.irregular: dict[tuple[str, str], str] = {}
        for lemma, pos in rng.sample([e for e in self.entries if e[1] in "vn"], TABLE_ENTRIES):
            while True:
                surface = _word(rng, rng.randint(1, 3))
                if surface not in seen:
                    break
            seen.add(surface)
            self.table[(surface, pos)] = lemma
            self.irregular[(lemma, pos)] = surface
        self.rules: dict[str, list[tuple[str, str]]] = {p: [] for p in POS_TAGS}
        for pos, suffix, replacement in RULES:
            self.rules[pos].append((suffix, replacement))
        self._memo: dict[str, tuple[str, ...]] = {}

        # Planted words: single-meaning nouns and verbs whose every written
        # form expands to exactly that one entry.
        self.planted: dict[str, str] = {}
        by_emotion: dict[str, list[tuple[str, str]]] = {e: [] for e in EMOTIONS}
        pool = [e for e in self.entries if e[1] in "vn" and e not in self.irregular]
        rng.shuffle(pool)
        order = list(EMOTIONS) * PLANTED_PER_EMOTION
        for lemma, pos in pool:
            if not order:
                break
            token = f"{lemma}#{pos}"
            if all(self.candidates(s) == (token,) for s in self.surfaces(lemma, pos)):
                emotion = order.pop()
                self.planted[token] = emotion
                by_emotion[emotion].append((lemma, pos))
        if order:
            raise RuntimeError("could not plant enough unambiguous words")
        self.planted_by_emotion = by_emotion

        background = [e for e in self.entries if f"{e[0]}#{e[1]}" not in self.planted]
        self.background = background
        self.zipf_cum = []
        total = 0.0
        for rank in range(len(background)):
            total += 1.0 / (rank + 2.7)
            self.zipf_cum.append(total)

    def surfaces(self, lemma: str, pos: str) -> list[str]:
        forms = [lemma]
        for suffix in INFLECTIONS[pos]:
            if suffix == "ed" and lemma.endswith("e"):
                forms.append(lemma + "d")
            else:
                forms.append(lemma + suffix)
        if (lemma, pos) in self.irregular:
            forms.append(self.irregular[(lemma, pos)])
        return forms

    def candidates(self, surface: str) -> tuple[str, ...]:
        """lemma#pos candidates of a surface form under the README contract:
        table entries first, then the identity form, then the first licensed
        suffix rewrite, per pos in v, n, a, r order; unlicensed surfaces pass
        through as ``surface#n``."""
        hit = self._memo.get(surface)
        if hit is not None:
            return hit
        out = []
        for pos in POS_TAGS:
            lemma = self.table.get((surface, pos))
            if lemma is not None:
                out.append(f"{lemma}#{pos}")
                continue
            identity = f"{surface}#{pos}"
            if identity in self.vocab:
                out.append(identity)
                continue
            for suffix, replacement in self.rules[pos]:
                if surface.endswith(suffix):
                    base = surface[: len(surface) - len(suffix)] + replacement
                    if base and f"{base}#{pos}" in self.vocab:
                        out.append(f"{base}#{pos}")
                        break
        result = tuple(out) if out else (f"{surface}#n",)
        self._memo[surface] = result
        return result

    def background_entries(self, rng: random.Random, k: int) -> list[tuple[str, str]]:
        return rng.choices(self.background, cum_weights=self.zipf_cum, k=k)

    def written(self, rng: random.Random, lemma: str, pos: str) -> str:
        """One written surface form of an entry, inflected at INFLECT_SHARE."""
        irregular = self.irregular.get((lemma, pos))
        if irregular is not None and rng.random() < IRREGULAR_SHARE:
            return irregular
        if INFLECTIONS[pos] and rng.random() < INFLECT_SHARE:
            return rng.choice(self.surfaces(lemma, pos)[1 : 1 + len(INFLECTIONS[pos])])
        return lemma

    def write_vocab(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# synthetic lemma#pos vocabulary\n")
            for lemma, pos in self.entries:
                fh.write(f"{lemma}#{pos}\n")

    def write_lemma_table(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for (surface, pos), lemma in self.table.items():
                fh.write(f"{surface}\t{pos}\t{lemma}\n")
            fh.write("[rules]\n")
            for pos, suffix, replacement in RULES:
                fh.write(f"{pos}\t{suffix}\t{replacement}\n")


def _dirichlet(rng: random.Random, alpha: float, n: int) -> list[float]:
    draws = [rng.gammavariate(alpha, 1.0) for _ in range(n)]
    total = sum(draws)
    if total <= 0.0:
        draws, total = [1.0] * n, float(n)
    return [d / total for d in draws]


def _votes_json(votes: list[float]) -> dict[str, float]:
    return {e: round(v, 6) for e, v in zip(EMOTIONS, votes)}


def _doc_entries(lang: Language, rng: random.Random, votes: list[float]) -> list[tuple[str, str] | None]:
    """Document entries in reading order; ``None`` marks an OOV slot."""
    n = rng.randint(*DOC_TOKENS)
    out: list[tuple[str, str] | None] = list(lang.background_entries(rng, n))
    for i in range(n):
        u = rng.random()
        if u < OOV_SHARE:
            out[i] = None
        elif u < OOV_SHARE + PLANTED_SHARE:
            emotion = rng.choices(EMOTIONS, votes)[0]
            out[i] = rng.choice(lang.planted_by_emotion[emotion])
    return out


def _text(rng: random.Random, words: list[str]) -> str:
    """Join words into sentences with capitals, punctuation and numbers,
    none of which survive tokenization as letters."""
    parts = []
    start = True
    for word in words:
        parts.append(word.capitalize() if start else word)
        start = False
        u = rng.random()
        if u < 0.06:
            parts[-1] += "."
            start = True
        elif u < 0.10:
            parts[-1] += ","
        elif u < 0.12:
            parts.append(str(rng.randint(1, 2030)))
    return " ".join(parts)


def expected_build(doc_tokens: list[list[str]], vocab: set[str], *, min_df: int, tfidf: bool) -> dict:
    """Lexicon words and dump nonzeros implied by per-document candidates."""
    df: Counter = Counter()
    candidates = kept = 0
    for tokens in doc_tokens:
        candidates += len(tokens)
        in_vocab = [t for t in tokens if t in vocab]
        kept += len(in_vocab)
        df.update(set(in_vocab))
    n_docs = sum(1 for tokens in doc_tokens if any(t in vocab for t in tokens))
    words = sorted(t for t, d in df.items() if d >= min_df and not (tfidf and d == n_docs))
    return {
        "docs": n_docs,
        "words": words,
        "entries": len(words),
        "dump_nnz": sum(df[t] for t in words),
        "candidates": candidates,
        "oov_share": 1.0 - kept / candidates,
    }


def _write_corpus(path: str, docs: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc, ensure_ascii=False) + "\n")


def _tiny_corpus_entries(lang: Language) -> list[list[tuple[str, str]]]:
    """Three documents in which three words reach df 2 < N, so both nf and
    tf-idf with min-df 2 keep a non-empty lexicon with mass on every emotion
    (every document votes every emotion equally)."""
    picks = [e for e in lang.background if lang.candidates(e[0]) == (f"{e[0]}#{e[1]}",)][:4]
    a, b, c, d = picks
    return [[a, b, c], [a, b], [c, d]]


def generate_build(workdir: str, seed: int, *, docs: int, text: bool, min_df: int, tfidf: bool) -> dict:
    """Write corpus, vocabulary (and lemma table for text), plus a
    smallest accepted corpus for set-up runs; return the known answers."""
    rng = random.Random(seed)
    lang = Language(rng)
    lang.write_vocab(os.path.join(workdir, "vocab.txt"))
    if text:
        lang.write_lemma_table(os.path.join(workdir, "lemmas.tsv"))

    records = []
    doc_tokens: list[list[str]] = []
    surface_total = 0
    distinct: set[str] = set()
    for i in range(docs):
        votes = _dirichlet(rng, VOTE_ALPHA, len(EMOTIONS))
        entries = _doc_entries(lang, rng, votes)
        record: dict = {"id": f"d{i:06d}"}
        if text:
            words = [_oov_word(rng) if e is None else lang.written(rng, *e) for e in entries]
            record["text"] = _text(rng, words)
            tokens = [t for w in words for t in lang.candidates(w)]
            surface_total += len(words)
            distinct.update(words)
        else:
            tokens = [f"{_oov_word(rng)}#n" if e is None else f"{e[0]}#{e[1]}" for e in entries]
            record["tokens"] = tokens
        record["votes"] = _votes_json(votes)
        records.append(record)
        doc_tokens.append(tokens)
    _write_corpus(os.path.join(workdir, "corpus.jsonl"), records)
    answers = expected_build(doc_tokens, lang.vocab, min_df=min_df, tfidf=tfidf)
    answers["input_tokens"] = surface_total if text else sum(len(t) for t in doc_tokens)
    answers["surface_tokens"] = surface_total
    answers["distinct_surface_share"] = len(distinct) / surface_total if text else 0.0
    answers["planted"] = lang.planted
    answers["corpus_bytes"] = os.path.getsize(os.path.join(workdir, "corpus.jsonl"))

    uniform = _votes_json([1.0 / len(EMOTIONS)] * len(EMOTIONS))
    tiny_records, tiny_tokens = [], []
    for i, entries in enumerate(_tiny_corpus_entries(lang)):
        record = {"id": f"t{i}"}
        if text:
            record["text"] = " ".join(lemma for lemma, _ in entries)
        else:
            record["tokens"] = [f"{lemma}#{pos}" for lemma, pos in entries]
        record["votes"] = uniform
        tiny_records.append(record)
        tiny_tokens.append([f"{lemma}#{pos}" for lemma, pos in entries])
    _write_corpus(os.path.join(workdir, "corpus_tiny.jsonl"), tiny_records)
    tiny = expected_build(tiny_tokens, lang.vocab, min_df=min_df, tfidf=tfidf)
    tiny["planted"] = {}
    answers["tiny"] = tiny
    _write_answers(workdir, answers)
    return answers


def _write_lexicon(path: str, lang: Language, rng: random.Random) -> dict[str, list[float]]:
    """A lexicon over the whole vocabulary; planted rows peak on their emotion."""
    rows: dict[str, list[float]] = {}
    for lemma, pos in lang.entries:
        word = f"{lemma}#{pos}"
        row = _dirichlet(rng, 1.0, len(EMOTIONS))
        emotion = lang.planted.get(word)
        if emotion is not None:
            row = [0.5 * v for v in row]
            row[EMOTIONS.index(emotion)] += 0.5
        rows[word] = [float(format(v, ".9g")) for v in row]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# generated: synthetic benchmark lexicon\n")
        fh.write("Lemma#PoS\t" + "\t".join(EMOTIONS) + "\n")
        for word in sorted(rows):
            fh.write(word + "\t" + "\t".join(format(v, ".9g") for v in rows[word]) + "\n")
    return rows


def _headline(lang: Language, rng: random.Random, target: str) -> list[str]:
    if rng.random() < EMPTY_HEADLINE_SHARE:
        return []
    if rng.random() < UNCOVERED_HEADLINE_SHARE:
        return [_oov_word(rng) for _ in range(HEADLINE_TOKENS)]
    words = [lang.written(rng, *e) for e in lang.background_entries(rng, HEADLINE_TOKENS)]
    source = MAPPING[target]
    if source is not None:
        for slot in rng.sample(range(HEADLINE_TOKENS), 3):
            words[slot] = lang.written(rng, *rng.choice(lang.planted_by_emotion[source]))
    words[rng.randrange(HEADLINE_TOKENS)] = _oov_word(rng)
    return words


def _write_headline_files(workdir: str, suffix: str, headlines: list[tuple[str, str, list[int], str]]) -> None:
    with open(os.path.join(workdir, f"score{suffix}.tsv"), "w", encoding="utf-8") as fh:
        for hid, text, _, _ in headlines:
            fh.write(f"{hid}\t{text}\n")
    with open(os.path.join(workdir, f"gold{suffix}.tsv"), "w", encoding="utf-8") as fh:
        fh.write("id\ttext\t" + "\t".join(GOLD_EMOTIONS) + "\n")
        for hid, text, scores, _ in headlines:
            fh.write(f"{hid}\t{text}\t" + "\t".join(str(s) for s in scores) + "\n")
    with open(os.path.join(workdir, f"labels{suffix}.tsv"), "w", encoding="utf-8") as fh:
        for hid, _, _, label in headlines:
            fh.write(f"{hid}\t{label}\n")


def _headline_answers(lang: Language, lexicon: set[str], texts: list[tuple[str, list[str]]]) -> dict:
    """Per-headline covered/total tokens when the lexicon licenses candidates."""
    per_headline = {}
    ratios = []
    uncovered = empty = 0
    for hid, words in texts:
        cands = [t for w in words for t in lang.candidates(w)]
        covered = sum(1 for t in cands if t in lexicon)
        per_headline[hid] = [covered, len(cands)]
        if not cands:
            empty += 1
            continue
        if covered == 0:
            uncovered += 1
        ratios.append(covered / len(cands))
    return {
        "covered_total": per_headline,
        "mean_coverage": sum(ratios) / len(ratios),
        "uncovered": uncovered,
        "empty": empty,
    }


def generate_headlines(workdir: str, seed: int, *, headlines: int) -> dict:
    """Write a lexicon, lemma table, mapping and one headline set (score
    input, gold scores, gold labels), plus a two-headline set for set-up
    runs; return the known answers."""
    rng = random.Random(seed)
    lang = Language(rng)
    # Candidates are licensed by the lexicon's words in score and eval.
    lang.write_lemma_table(os.path.join(workdir, "lemmas.tsv"))
    _write_lexicon(os.path.join(workdir, "lexicon.tsv"), lang, rng)
    with open(os.path.join(workdir, "mapping.tsv"), "w", encoding="utf-8") as fh:
        for target, source in MAPPING.items():
            fh.write(f"{target}\t{source or '-'}\n")

    rows = []
    texts = []
    surface_total = 0
    distinct: set[str] = set()
    for i in range(headlines):
        target = rng.choice(GOLD_EMOTIONS)
        words = _headline(lang, rng, target)
        hid = f"h{i:06d}"
        text = _text(rng, words) if words else str(rng.randint(1, 99))
        scores = [rng.randint(0, 25) for _ in GOLD_EMOTIONS]
        scores[GOLD_EMOTIONS.index(target)] = rng.randint(50, 100)
        rows.append((hid, text, scores, target))
        texts.append((hid, words))
        surface_total += len(words)
        distinct.update(words)
    _write_headline_files(workdir, "", rows)
    answers = _headline_answers(lang, lang.vocab, texts)
    # score and eval each tokenize every headline once.
    answers["input_tokens"] = 2 * surface_total
    answers["surface_tokens"] = surface_total
    answers["distinct_surface_share"] = len(distinct) / surface_total
    answers["headlines"] = headlines
    answers["planted"] = lang.planted
    answers["mapped"] = sorted(t for t, s in MAPPING.items() if s is not None)

    # Two headlines whose gold scores differ on every target, each holding
    # planted words of a different emotion.
    tiny_rows, tiny_texts = [], []
    for hid, source, target, scores in (
        ("t0", "AFRAID", "FEAR", [10, 5, 80, 5, 15, 30]),
        ("t1", "HAPPY", "JOY", [20, 7, 5, 80, 25, 10]),
    ):
        words = [lemma for lemma, _ in lang.planted_by_emotion[source][:2]]
        tiny_rows.append((hid, " ".join(words), scores, target))
        tiny_texts.append((hid, words))
    _write_headline_files(workdir, "_tiny", tiny_rows)
    tiny = _headline_answers(lang, lang.vocab, tiny_texts)
    tiny["headlines"] = 2
    tiny["planted"] = {}
    tiny["mapped"] = answers["mapped"]
    answers["tiny"] = tiny
    _write_answers(workdir, answers)
    return answers


def _write_answers(workdir: str, answers: dict) -> None:
    with open(os.path.join(workdir, "answers.json"), "w", encoding="utf-8") as fh:
        json.dump(answers, fh, sort_keys=True)
