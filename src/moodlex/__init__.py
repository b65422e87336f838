"""Emotion lexicon toolkit.

Builds word-by-emotion lexicons from corpora annotated with crowd-voted
emotion distributions, and evaluates any such lexicon on headline emotion
recognition in regression and classification settings.

The public names below load their submodule on first use (PEP 562), so
``import moodlex`` alone imports neither numpy nor any submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "corpus": (
        "DEFAULT_EMOTIONS Corpus CorpusStats EmotionSet corpus_stats load_corpus "
        "parse_corpus validate_votes"
    ).split(),
    "errors": (
        "CorpusError EvaluationError LexiconError MatrixError MoodlexError TextPipeError "
        "VocabularyError VoteError"
    ).split(),
    "evaluate": (
        "ClassificationMetrics CoverageStats EmotionMapping EvalReport GoldSet "
        "coverage_stats evaluate_all evaluate_classification evaluate_regression "
        "load_gold load_labels min_max_normalize pearson precision_recall_f1"
    ).split(),
    "lexicon": (
        "EmotionLexicon build_lexicon column_normalize read_lexicon row_scale score_ids "
        "write_lexicon"
    ).split(),
    "matrix": "TermDocumentMatrix emotion_mass write_matrix_dump".split(),
    "textpipe": "LemmaTable VocabularyFilter lemmatize_ids tokenize".split(),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
