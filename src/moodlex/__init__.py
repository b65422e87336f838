"""Emotion lexicon toolkit.

Builds word-by-emotion lexicons from corpora annotated with crowd-voted
emotion distributions, and evaluates any such lexicon on headline emotion
recognition in regression and classification settings.
"""

__version__ = "0.1.0"

from .corpus import (
    DEFAULT_EMOTIONS,
    CorpusStats,
    DocEmotionMatrix,
    DocumentRecord,
    EmotionSet,
    corpus_stats,
    load_corpus,
    parse_corpus,
    validate_votes,
    vote_matrix,
)
from .errors import (
    CorpusError,
    EvaluationError,
    LexiconError,
    MatrixError,
    MoodlexError,
    TextPipeError,
    VocabularyError,
    VoteError,
)
from .evaluate import (
    ClassificationMetrics,
    CoverageStats,
    EmotionMapping,
    EvalReport,
    GoldHeadline,
    GoldSet,
    coverage_stats,
    evaluate_all,
    evaluate_classification,
    evaluate_regression,
    load_gold,
    load_labels,
    min_max_normalize,
    pearson,
    precision_recall_f1,
    score_all,
    score_headline,
)
from .lexicon import (
    EmotionLexicon,
    build_lexicon,
    column_normalize,
    emotion_product,
    read_lexicon,
    row_scale,
    write_lexicon,
)
from .matrix import (
    TermDocumentMatrix,
    apply_weighting,
    count_terms,
    filter_min_df,
    write_matrix_dump,
)
from .textpipe import (
    LemmaTable,
    VocabularyFilter,
    filter_vocabulary,
    lemmatize,
    lemmatize_all,
    tokenize,
)
