"""Test corpora, built through the corpus parser from plain Python values."""

from __future__ import annotations

import json
from typing import Mapping

import numpy as np

from moodlex import EmotionSet, parse_corpus

#: (doc_id, tokens, votes) of the small hand-built corpus.
SMALL_DOCS = [
    ("d1", ["awe#n", "kill#v", "war#n"], {"AFRAID": 0.5, "SAD": 0.5}),
    ("d2", ["game#n", "happy#a", "happy#a"], {"HAPPY": 0.7, "AMUSED": 0.3}),
    ("d3", ["kill#v", "war#n", "war#n"], {"ANGRY": 0.4, "AFRAID": 0.3, "SAD": 0.3}),
    ("d4", ["sad#a", "awe#n"], {"SAD": 0.5, "INSPIRED": 0.3, "DONT_CARE": 0.1, "ANNOYED": 0.1}),
    ("d5", ["game#n", "awe#n"], {"INSPIRED": 0.6, "DONT_CARE": 0.2, "ANNOYED": 0.2}),
]


def corpus_of(docs, emotions=None):
    """The parsed corpus of ``(doc_id, body, votes)`` triples.

    ``body`` is a sequence of lemma#pos tokens, or a str for a raw-text
    document; ``votes`` is a label-to-value map or a sequence aligned with
    ``emotions`` (the default set when None).
    """
    emotions = emotions if emotions is not None else EmotionSet.default()
    lines = []
    for doc_id, body, votes in docs:
        if not isinstance(votes, Mapping):
            votes = dict(zip(emotions.labels, map(float, votes)))
        field = "text" if isinstance(body, str) else "tokens"
        value = body if field == "text" else list(body)
        lines.append(json.dumps({"id": doc_id, field: value, "votes": votes}))
    return parse_corpus(lines, emotions)


def doc_tokens(columns):
    """Each stream's token strings, in order: of a ``Corpus``, or of
    ``(token_ids, lengths, strings)`` as ``lemmatize_ids`` returns them."""
    if not isinstance(columns, tuple):
        columns = columns.token_ids, columns.lengths, columns.strings
    token_ids, lengths, strings = columns
    ends = np.cumsum(lengths).tolist()
    return [
        tuple(strings[i] for i in token_ids[end - n : end].tolist())
        for n, end in zip(lengths.tolist(), ends)
    ]


def token_columns(streams):
    """Streams of token strings as ``(token_ids, lengths, strings)``, the
    columns ``lemmatize_ids`` returns: ids number the distinct strings in
    order of first occurrence."""
    id_of = {}
    token_ids = [id_of.setdefault(t, len(id_of)) for stream in streams for t in stream]
    lengths = [len(stream) for stream in streams]
    return np.array(token_ids, dtype=np.int32), np.array(lengths, dtype=np.int64), tuple(id_of)
