"""Shared fixtures: a small hand-built corpus and its vocabulary."""

from __future__ import annotations

import pytest

from moodlex import EmotionSet, VocabularyFilter

from corpora import SMALL_DOCS, corpus_of


@pytest.fixture(scope="session")
def emotions():
    return EmotionSet.default()


@pytest.fixture()
def small_corpus(emotions):
    return corpus_of(SMALL_DOCS, emotions)


@pytest.fixture()
def small_vocab():
    return VocabularyFilter(["awe#n", "kill#v", "war#n", "game#n", "sad#a", "happy#a"])
