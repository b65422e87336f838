"""Headline scoring, Pearson correlation, classification metrics, coverage."""

from __future__ import annotations

import re
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from moodlex import (
    EmotionLexicon,
    EmotionMapping,
    EvaluationError,
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
    score_ids,
)

from corpora import token_columns
from dense_reference import (
    exact_pearson,
    fsum_pearson,
    load_gold_reference,
    load_labels_reference,
    mean_scores,
)

EMOTIONS = ("AFRAID", "AMUSED", "ANGRY", "ANNOYED", "DONT_CARE", "HAPPY", "INSPIRED", "SAD")


def one_hot(index):
    row = np.zeros(len(EMOTIONS))
    row[index] = 1.0
    return row


def two_mass(index, value, other=7):
    """Row with ``value`` at ``index`` and the remainder at ``other``."""
    row = np.zeros(len(EMOTIONS))
    row[index] = value
    row[other if other != index else other - 1] = 1.0 - value
    return row


@pytest.fixture()
def tiny_lexicon():
    return EmotionLexicon(
        EMOTIONS,
        ["afraid#a", "amused#a", "angry#a", "half#n"],
        [one_hot(0), one_hot(1), one_hot(2), two_mass(0, 0.5)],
    )


class TestScoreHeadline:
    def test_mean_of_two_one_hot_rows(self, tiny_lexicon):
        (vec,), (covered,) = score_ids(*token_columns([["afraid#a", "amused#a"]]), tiny_lexicon)
        np.testing.assert_allclose(vec[:2], [0.5, 0.5], atol=1e-15)
        assert covered == 2

    def test_single_covered_token_verbatim(self, tiny_lexicon):
        (vec,), (covered,) = score_ids(*token_columns([["angry#a"]]), tiny_lexicon)
        np.testing.assert_array_equal(vec, tiny_lexicon.row("angry#a"))
        assert covered == 1

    def test_uncovered_headline_scores_zero(self, tiny_lexicon):
        (vec,), (covered,) = score_ids(*token_columns([["missing#n", "gone#v"]]), tiny_lexicon)
        np.testing.assert_array_equal(vec, np.zeros(8))
        assert covered == 0

    def test_absent_tokens_skipped_and_occurrences_counted(self, tiny_lexicon):
        streams = [["afraid#a", "missing#n", "afraid#a"]]
        (vec,), (covered,) = score_ids(*token_columns(streams), tiny_lexicon)
        assert covered == 2
        np.testing.assert_allclose(vec, one_hot(0), atol=1e-15)

    def test_fully_covered_rows_sum_to_one(self, tiny_lexicon):
        streams = [["afraid#a", "amused#a", "half#n"]]
        (vec,), (covered,) = score_ids(*token_columns(streams), tiny_lexicon)
        assert covered == 3
        assert abs(vec.sum() - 1.0) <= 1e-9


@st.composite
def lexicon_and_streams(draw):
    """A random lexicon and token streams with repeats, uncovered tokens and
    empty streams."""
    n_emotions = draw(st.integers(1, 8))
    words = [f"w{i}#n" for i in range(draw(st.integers(1, 12)))]
    value = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
    row = st.lists(value, min_size=n_emotions, max_size=n_emotions)
    lex = EmotionLexicon(
        [f"E{j}" for j in range(n_emotions)], words, [draw(row) for _ in words]
    )
    token = st.sampled_from(words + ["gone#n", "nolex#v"])
    return lex, draw(st.lists(st.lists(token, max_size=40), max_size=12))


class TestScoreAll:
    @settings(max_examples=300, deadline=None)
    @given(case=lexicon_and_streams())
    def test_matches_np_mean_reference(self, case):
        lex, streams = case
        scores, covered = score_ids(*token_columns(streams), lex)
        expected, expected_covered = mean_scores(streams, lex)
        expected = np.reshape(expected, scores.shape)
        assert np.array_equal(covered, expected_covered)
        if len(lex.emotions) > 1:
            assert np.array_equal(scores, expected)
        else:
            # np.mean sums a one-column stack pairwise, not in token order;
            # 40 float64 terms stay far inside this bound.
            np.testing.assert_allclose(scores, expected, rtol=1e-12, atol=0)


class TestPearson:
    def test_perfect_correlation(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_anticorrelation(self):
        assert pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0, abs=1e-12)

    def test_value_against_exact_oracle(self):
        # Independent high-precision value is 0.99339926..., confirming the
        # five-digit figure 0.99339 as a truncated display.
        expected = exact_pearson([1, 2, 3], [2, 4, 7])
        assert expected == pytest.approx(0.99339, abs=1e-5)
        assert pearson([1, 2, 3], [2, 4, 7]) == pytest.approx(expected, abs=1e-12)

    def test_errors(self):
        with pytest.raises(EvaluationError, match="constant"):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(EvaluationError, match="constant"):
            pearson([1, 2, 3], [5, 5, 5])
        # The mean rounds, so the sum of squares is about 1e-33, not 0.
        with pytest.raises(EvaluationError, match="constant"):
            pearson([0.1] * 3, [0, 1, 2])
        # Both sums of squares are positive, but their product underflows to 0.
        with pytest.raises(EvaluationError, match="constant"):
            pearson([0, 1e-100, 0], [0, 1e-100, 2e-100])
        with pytest.raises(EvaluationError, match="mismatch"):
            pearson([1, 2], [1, 2, 3])
        with pytest.raises(EvaluationError, match="at least 2"):
            pearson([1], [1])

    @settings(max_examples=200, deadline=None)
    @given(c=st.floats(0.0, 1.0, exclude_max=True), n=st.integers(2, 50))
    def test_every_constant_sequence_raises(self, c, n):
        ys = list(range(n))
        with pytest.raises(EvaluationError, match="constant"):
            pearson([c] * n, ys)
        with pytest.raises(EvaluationError, match="constant"):
            pearson(ys, [c] * n)

    @settings(max_examples=300, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=2, max_size=60
        )
    )
    def test_fsum_sums_bit_for_bit_and_near_exact(self, pairs):
        xs, ys = (list(v) for v in zip(*pairs))
        # Away from near-constant sequences, where r is ill-conditioned.
        assume(max(xs) - min(xs) > 1e-3 and max(ys) - min(ys) > 1e-3)
        r = pearson(xs, ys)
        assert r == fsum_pearson(xs, ys)
        assert abs(r - exact_pearson(xs, ys)) <= 1e-12

    def test_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(79)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            r = pearson(x, y)
            assert abs(r - pearson(y, x)) < 1e-12
            a, b = float(rng.random() * 5 + 0.1), float(rng.standard_normal())
            assert abs(pearson(a * x + b, y) - r) < 1e-12
            assert -1.0 <= r <= 1.0


class TestMinMaxNormalize:
    def test_definition(self):
        np.testing.assert_allclose(min_max_normalize([2, 4, 6]), [0, 0.5, 1], atol=1e-15)

    def test_constant_sequence_to_zeros(self):
        np.testing.assert_array_equal(min_max_normalize([5]), [0.0])
        np.testing.assert_array_equal(min_max_normalize([3, 3, 3]), [0.0, 0.0, 0.0])

    def test_random_vector_matches_elementwise_oracle(self):
        rng = np.random.default_rng(83)
        scores = rng.standard_normal(20)
        out = min_max_normalize(scores)
        lo, hi = min(scores), max(scores)
        for i in range(20):
            assert out[i] == pytest.approx((scores[i] - lo) / (hi - lo), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            min_max_normalize([])


class TestEmotionMapping:
    def test_identity(self):
        mapping = EmotionMapping.identity(["FEAR", "JOY"])
        assert mapping.pairs == {"FEAR": "FEAR", "JOY": "JOY"}
        assert mapping.discarded == ()

    def test_from_file_with_discard(self, tmp_path):
        path = tmp_path / "mapping.tsv"
        path.write_text(
            "FEAR\tAFRAID\nANGER\tANGRY\nJOY\tHAPPY\nSADNESS\tSAD\n"
            "SURPRISE\tINSPIRED\nDISGUST\t-\n",
            encoding="utf-8",
        )
        mapping = EmotionMapping.from_file(path)
        assert mapping.pairs["FEAR"] == "AFRAID"
        assert mapping.discarded == ("DISGUST",)

    def test_injectivity_enforced(self):
        with pytest.raises(EvaluationError, match="injective"):
            EmotionMapping(pairs={"FEAR": "AFRAID", "ANGER": "AFRAID"})

    def test_duplicate_target_in_file(self, tmp_path):
        path = tmp_path / "mapping.tsv"
        path.write_text("FEAR\tAFRAID\nFEAR\tANGRY\n", encoding="utf-8")
        with pytest.raises(EvaluationError, match="duplicate target"):
            EmotionMapping.from_file(path)

    def test_duplicate_source_in_file_names_its_line(self, tmp_path):
        path = tmp_path / "mapping.tsv"
        path.write_text(
            "FEAR\tAFRAID\nSURPRISE\t-\nJOY\tHAPPY\nDISGUST\t-\nANGER\tAFRAID\n",
            encoding="utf-8",
        )
        message = f"{path}:5: duplicate source 'AFRAID': mapping is not injective"
        with pytest.raises(EvaluationError, match=f"^{re.escape(message)}$"):
            EmotionMapping.from_file(path)


Headline = namedtuple("Headline", "headline_id tokens gold gold_labels")


def headline(hid, tokens, gold, labels=()):
    return Headline(hid, tuple(tokens), gold, frozenset(labels))


def gold_set(headlines, lex, emotions=("FEAR", "JOY")):
    """The columnar GoldSet of ``headline`` rows, sorted by id and scored by
    ``lex``, as ``load_gold`` sorts and scores them."""
    rows = sorted(headlines, key=lambda h: h.headline_id)
    shape = (len(rows), len(emotions))
    token_ids, lengths, strings = token_columns([h.tokens for h in rows])
    return GoldSet(
        tuple(emotions),
        tuple(h.headline_id for h in rows),
        np.array([[h.gold[e] for e in emotions] for h in rows], dtype=np.float64).reshape(shape),
        np.array([[e in h.gold_labels for e in emotions] for h in rows], dtype=bool).reshape(shape),
        lex.emotions,
        *score_ids(token_ids, lengths, strings, lex),
        lengths,
    )


class TestEvaluateRegression:
    def test_perfect_predictions(self, tiny_lexicon):
        mapping = EmotionMapping(pairs={"FEAR": "AFRAID", "JOY": "AMUSED"})
        headlines = [
            headline("h1", ["afraid#a"], {"FEAR": 1.0, "JOY": 0.0}),
            headline("h2", ["amused#a"], {"FEAR": 0.0, "JOY": 1.0}),
            headline("h3", ["half#n"], {"FEAR": 0.5, "JOY": 0.0}),
        ]
        result = evaluate_regression(gold_set(headlines, tiny_lexicon), mapping)
        assert result["FEAR"] == pytest.approx(1.0, abs=1e-12)
        assert result["JOY"] == pytest.approx(1.0, abs=1e-12)

    def test_permuted_gold_low_correlation(self):
        rng = np.random.default_rng(89)
        rows = {f"w{i:02d}#n": rng.dirichlet(np.ones(8)) for i in range(40)}
        lex = EmotionLexicon(EMOTIONS, list(rows), list(rows.values()))
        golds = rng.random(40)
        permuted = golds[rng.permutation(40)]
        headlines = [
            headline(f"h{i}", [f"w{i:02d}#n"], {"FEAR": float(permuted[i])})
            for i in range(40)
        ]
        mapping = EmotionMapping(pairs={"FEAR": "AFRAID"})
        result = evaluate_regression(gold_set(headlines, lex, ["FEAR"]), mapping)
        assert abs(result["FEAR"]) < 1.0

    def test_ten_headline_fixture_matches_manual_oracle(self, tiny_lexicon):
        rng = np.random.default_rng(97)
        mapping = EmotionMapping(pairs={"FEAR": "AFRAID", "JOY": "AMUSED"})
        vocabulary = ["afraid#a", "amused#a", "angry#a", "half#n", "nolex#n"]
        headlines = []
        for i in range(10):
            k = int(rng.integers(1, 5))
            tokens = [vocabulary[int(j)] for j in rng.integers(0, 5, size=k)]
            gold = {"FEAR": float(rng.random()), "JOY": float(rng.random())}
            headlines.append(headline(f"h{i}", tokens, gold))
        result = evaluate_regression(gold_set(headlines, tiny_lexicon), mapping)

        # Manual spreadsheet-style recomputation: average covered rows per
        # headline by hand, then run the exact-rational correlation oracle.
        rows = {
            "afraid#a": [1, 0, 0, 0, 0, 0, 0, 0],
            "amused#a": [0, 1, 0, 0, 0, 0, 0, 0],
            "angry#a": [0, 0, 1, 0, 0, 0, 0, 0],
            "half#n": [0.5, 0, 0, 0, 0, 0, 0, 0.5],
        }
        for target, source_idx in (("FEAR", 0), ("JOY", 1)):
            predicted = []
            actual = []
            for h in headlines:
                covered = [rows[t] for t in h.tokens if t in rows]
                if covered:
                    value = sum(r[source_idx] for r in covered) / len(covered)
                else:
                    value = 0.0
                predicted.append(value)
                actual.append(h.gold[target])
            assert result[target] == pytest.approx(
                exact_pearson(predicted, actual), abs=1e-12
            )

    def test_uncovered_policy_changes_sample(self, tiny_lexicon):
        mapping = EmotionMapping(pairs={"FEAR": "AFRAID"})
        headlines = [
            headline("h1", ["afraid#a"], {"FEAR": 0.9}),
            headline("h2", ["half#n"], {"FEAR": 0.4}),
            headline("h3", ["nolex#n"], {"FEAR": 0.5}),
            headline("h4", ["amused#a"], {"FEAR": 0.1}),
        ]
        gold = gold_set(headlines, tiny_lexicon, ["FEAR"])
        with_zero = evaluate_regression(gold, mapping, uncovered="zero")
        without = evaluate_regression(gold, mapping, uncovered="skip")
        expected_zero = exact_pearson([1.0, 0.5, 0.0, 0.0], [0.9, 0.4, 0.5, 0.1])
        expected_skip = exact_pearson([1.0, 0.5, 0.0], [0.9, 0.4, 0.1])
        assert with_zero["FEAR"] == pytest.approx(expected_zero, abs=1e-12)
        assert without["FEAR"] == pytest.approx(expected_skip, abs=1e-12)

    def test_mapped_source_must_exist(self, tiny_lexicon):
        mapping = EmotionMapping(pairs={"FEAR": "TERROR"})
        headlines = [headline("h1", ["afraid#a"], {"FEAR": 1.0})]
        with pytest.raises(EvaluationError, match="TERROR"):
            evaluate_regression(gold_set(headlines, tiny_lexicon, ["FEAR"]), mapping)


class TestPrecisionRecallF1:
    def test_confusion_fixture(self):
        m = precision_recall_f1(3, 1, 2)
        assert m.precision == pytest.approx(0.75, abs=1e-12)
        assert m.recall == pytest.approx(0.6, abs=1e-12)
        assert m.f1 == pytest.approx(2 / 3, abs=1e-12)

    def test_zero_cases(self):
        m = precision_recall_f1(0, 0, 4)
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)
        assert precision_recall_f1(0, 3, 0).f1 == 0.0

    def test_f1_bounds(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            tp, fp, fn = (int(v) for v in rng.integers(0, 20, size=3))
            m = precision_recall_f1(tp, fp, fn)
            assert 0.0 <= m.f1 <= 1.0
            if tp == 0:
                assert m.f1 == 0.0


class TestEvaluateClassification:
    def test_perfect_one_hot_predictions(self, tiny_lexicon):
        mapping = EmotionMapping(pairs={"FEAR": "AFRAID", "JOY": "AMUSED"})
        headlines = [
            headline("h1", ["afraid#a"], {"FEAR": 1.0, "JOY": 0.0}, labels=["FEAR"]),
            headline("h2", ["amused#a"], {"FEAR": 0.0, "JOY": 1.0}, labels=["JOY"]),
            headline("h3", ["angry#a"], {"FEAR": 0.0, "JOY": 0.0}),
        ]
        result = evaluate_classification(gold_set(headlines, tiny_lexicon), mapping)
        for target in ("FEAR", "JOY"):
            m = result[target]
            assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_no_positive_predictions_scores_zero_without_error(self, tiny_lexicon):
        # The mapped source column is zero everywhere: constant scores
        # normalize to zeros, nothing clears the threshold, and the emotion
        # must come out 0/0/0 rather than aborting.
        mapping = EmotionMapping(pairs={"ANGER": "ANGRY"})
        headlines = [
            headline("h1", ["afraid#a"], {"ANGER": 0.8}, labels=["ANGER"]),
            headline("h2", ["amused#a"], {"ANGER": 0.1}),
            headline("h3", ["half#n"], {"ANGER": 0.4}, labels=["ANGER"]),
        ]
        result = evaluate_classification(gold_set(headlines, tiny_lexicon, ["ANGER"]), mapping)
        m = result["ANGER"]
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)

    def test_confusion_counts_fixture_end_to_end(self):
        # Seven single-token headlines with raw AFRAID scores 0.9, 0.8, 0.7,
        # 0.6, 0.2, 0.1, 0.0; after min-max the first four clear 0.5. Gold
        # positives are h1-h3 (TP=3) and h5, h6 (FN=2); h4 is the FP.
        values = [0.9, 0.8, 0.7, 0.6, 0.2, 0.1, 0.0]
        rows = {f"w{i}#n": two_mass(0, v) for i, v in enumerate(values)}
        lex = EmotionLexicon(EMOTIONS, list(rows), list(rows.values()))
        labels = [["FEAR"], ["FEAR"], ["FEAR"], [], ["FEAR"], ["FEAR"], []]
        headlines = [
            headline(f"h{i}", [f"w{i}#n"], {"FEAR": 0.0}, labels=labels[i])
            for i in range(7)
        ]
        mapping = EmotionMapping(pairs={"FEAR": "AFRAID"})
        result = evaluate_classification(gold_set(headlines, lex, ["FEAR"]), mapping)
        m = result["FEAR"]
        assert m.precision == pytest.approx(0.75, abs=1e-12)
        assert m.recall == pytest.approx(0.6, abs=1e-12)
        assert m.f1 == pytest.approx(2 / 3, abs=1e-12)

    def test_decision_invariance_under_positive_affine_transform(self):
        rng = np.random.default_rng(103)
        for _ in range(25):
            scores = rng.random(15)
            base = min_max_normalize(scores) > 0.5
            a = float(rng.random() * 10 + 0.01)
            b = float(rng.standard_normal() * 3)
            transformed = min_max_normalize(a * scores + b) > 0.5
            np.testing.assert_array_equal(base, transformed)

    def test_joint_minmax_mode(self, tiny_lexicon):
        mapping = EmotionMapping(pairs={"FEAR": "AFRAID", "JOY": "AMUSED"})
        headlines = [
            headline("h1", ["afraid#a"], {"FEAR": 1.0, "JOY": 0.0}, labels=["FEAR"]),
            headline("h2", ["half#n"], {"FEAR": 0.5, "JOY": 0.0}, labels=[]),
            headline("h3", ["amused#a"], {"FEAR": 0.0, "JOY": 1.0}, labels=["JOY"]),
        ]
        result = evaluate_classification(
            gold_set(headlines, tiny_lexicon), mapping, minmax="joint"
        )
        # Joint scaling uses the global min/max, so the 0.5 raw score stays
        # exactly at the threshold and is not positive under strict >.
        assert result["FEAR"].precision == 1.0
        assert result["JOY"].recall == 1.0


class TestCoverageStats:
    def test_ratio_contribution(self, tiny_lexicon):
        stats = coverage_stats(
            gold_set(
                [headline("h1", ["afraid#a", "amused#a", "angry#a", "nolex#n"], {})],
                tiny_lexicon,
                (),
            )
        )
        assert stats.mean_coverage == pytest.approx(0.75)

    def test_full_coverage(self, tiny_lexicon):
        headlines = [
            headline("h1", ["afraid#a", "half#n"], {}),
            headline("h2", ["angry#a"], {}),
        ]
        stats = coverage_stats(gold_set(headlines, tiny_lexicon, ()))
        assert stats.mean_coverage == pytest.approx(1.0)

    def test_five_headline_manual_recount(self, tiny_lexicon):
        token_sets = [
            ["afraid#a", "nolex#n"],
            ["half#n", "half#n", "gone#v"],
            ["nolex#n"],
            ["amused#a", "angry#a", "afraid#a"],
            ["gone#v", "missing#n", "half#n", "afraid#a"],
        ]
        headlines = [headline(f"h{i}", toks, {}) for i, toks in enumerate(token_sets)]
        stats = coverage_stats(gold_set(headlines, tiny_lexicon, ()))
        known = {"afraid#a", "amused#a", "angry#a", "half#n"}
        ratios = []
        for toks in token_sets:
            covered = 0
            for t in toks:
                if t in known:
                    covered += 1
            ratios.append(covered / len(toks))
        assert stats.mean_coverage == pytest.approx(sum(ratios) / len(ratios), abs=1e-12)
        assert stats.uncovered_headlines == 1

    def test_empty_headlines_skipped_and_counted(self, tiny_lexicon):
        headlines = [
            headline("h1", [], {}),
            headline("h2", ["afraid#a"], {}),
        ]
        stats = coverage_stats(gold_set(headlines, tiny_lexicon, ()))
        assert stats.skipped_empty_headlines == 1
        assert stats.mean_coverage == pytest.approx(1.0)

    def test_all_empty_rejected(self, tiny_lexicon):
        with pytest.raises(EvaluationError):
            coverage_stats(gold_set([headline("h1", [], {})], tiny_lexicon, ()))


class TestEvaluateAll:
    def test_discarded_targets_reported(self, tiny_lexicon):
        mapping = EmotionMapping(
            pairs={"FEAR": "AFRAID", "JOY": "AMUSED"}, discarded=("DISGUST",)
        )
        headlines = [
            headline("h1", ["afraid#a"], {"FEAR": 1.0, "JOY": 0.0, "DISGUST": 0.5}),
            headline("h2", ["amused#a"], {"FEAR": 0.0, "JOY": 1.0, "DISGUST": 0.2}),
            headline("h3", ["half#n"], {"FEAR": 0.5, "JOY": 0.1, "DISGUST": 0.0}),
        ]
        report = evaluate_all(
            gold_set(headlines, tiny_lexicon, ["FEAR", "JOY", "DISGUST"]),
            mapping,
            with_classification=False,
        )
        assert report.discarded_targets == ("DISGUST",)
        assert set(report.regression) == {"FEAR", "JOY"}
        assert report.classification is None

    @pytest.mark.parametrize("uncovered", ["zero", "skip"])
    def test_scores_each_headline_once(self, tmp_path, tiny_lexicon, monkeypatch, uncovered):
        from moodlex import lexicon

        calls = []
        original = lexicon.score_ids

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(lexicon, "score_ids", counting)
        path = tmp_path / "gold.tsv"
        path.write_text(
            "id\ttext\tFEAR\tJOY\n"
            "h4\thalf nolex\t0.5\t0.2\n"
            "h1\tafraid\t1.0\t0.0\n"
            "h3\tnolex\t0.1\t0.3\n"
            "h2\tamused angry\t0.0\t1.0\n",
            encoding="utf-8",
        )
        (tmp_path / "labels.tsv").write_text("h4\tFEAR\nh1\tFEAR\nh2\tJOY\n", encoding="utf-8")
        gold = load_labels(tmp_path / "labels.tsv", load_gold(path, tiny_lexicon))
        # Loading scores every headline, in one call.
        assert len(calls) == 1
        assert gold.ids == ("h1", "h2", "h3", "h4")
        mapping = EmotionMapping(pairs={"FEAR": "AFRAID", "JOY": "AMUSED"})
        expected = (
            evaluate_regression(gold, mapping, uncovered=uncovered),
            evaluate_classification(gold, mapping, uncovered=uncovered),
            coverage_stats(gold),
        )
        report = evaluate_all(gold, mapping, uncovered=uncovered)
        # Evaluation reads the scores that loading stored, and scores nothing.
        assert len(calls) == 1
        assert (report.regression, report.classification, report.coverage) == expected
        assert report.coverage.uncovered_headlines == 1


class TestGoldLoading:
    def write_gold(self, tmp_path, rows, header="id\ttext\tFEAR\tJOY"):
        path = tmp_path / "gold.tsv"
        path.write_text(header + "\n" + "".join(r + "\n" for r in rows), encoding="utf-8")
        return path

    def test_loads_and_tokenizes_with_lexicon_vocabulary(self, tmp_path, tiny_lexicon):
        path = self.write_gold(
            tmp_path, ["h1\tAfraid and amused crowds\t0.8\t0.1", "h2\tNothing known\t0.2\t0.9"]
        )
        gold = load_gold(path, tiny_lexicon)
        assert gold.emotions == ("FEAR", "JOY")
        assert gold.ids == ("h1", "h2")
        assert gold.gold.tolist() == [[0.8, 0.1], [0.2, 0.9]]
        assert gold.labels.dtype == bool and not gold.labels.any()
        assert gold.sources == EMOTIONS
        # Every surface is a token; "and" and "crowds", and all of h2, are
        # not in the lexicon and count as uncovered.
        assert gold.lengths.tolist() == [4, 2]
        assert gold.covered.tolist() == [2, 0]
        np.testing.assert_array_equal(gold.scores, [(one_hot(0) + one_hot(1)) / 2, np.zeros(8)])

    def test_lexicon_emotions_read_stripped_and_upper_cased(self, tmp_path):
        path = self.write_gold(tmp_path, ["h1\tafraid\t0.8"], header="id\ttext\tFEAR")
        lex = EmotionLexicon([" afraid", "Happy"], ["afraid#a"], [[1.0, 0.0]])
        assert load_gold(path, lex).sources == ("AFRAID", "HAPPY")
        clash = EmotionLexicon(["Happy", "afraid", "HAPPY "], ["afraid#a"], [[0.0, 1.0, 0.0]])
        message = "^lexicon emotions 'Happy' and 'HAPPY ' read alike$"
        with pytest.raises(EvaluationError, match=message):
            load_gold(path, clash)

    def test_scale_autodetection(self, tmp_path, tiny_lexicon):
        path = self.write_gold(tmp_path, ["h1\tafraid words\t80\t10", "h2\tmore text\t0.5\t20"])
        gold = load_gold(path, tiny_lexicon)
        assert gold.gold[0, 0] == pytest.approx(0.8)
        assert gold.gold[1, 0] == pytest.approx(0.005)

    def test_headlines_sorted_by_id(self, tmp_path, tiny_lexicon):
        rows = ["h2\tamused\t0.1\t0.9", "h10\tangry\t0.3\t0.4", "h1\tafraid\t0.8\t0.2"]
        path = self.write_gold(tmp_path, rows)
        gold = load_gold(path, tiny_lexicon)
        assert gold.ids == ("h1", "h10", "h2")
        assert gold.gold.tolist() == [[0.8, 0.2], [0.3, 0.4], [0.1, 0.9]]
        assert gold.lengths.tolist() == gold.covered.tolist() == [1, 1, 1]
        np.testing.assert_array_equal(gold.scores, [one_hot(0), one_hot(2), one_hot(1)])

    def test_out_of_range_rejected(self, tmp_path, tiny_lexicon):
        path = self.write_gold(tmp_path, ["h1\ttext\t120\t10"])
        with pytest.raises(EvaluationError, match="must lie in"):
            load_gold(path, tiny_lexicon)
        path = self.write_gold(tmp_path, ["h1\ttext\t-0.2\t0.5"])
        with pytest.raises(EvaluationError, match="must lie in"):
            load_gold(path, tiny_lexicon)
        path = self.write_gold(tmp_path, ["h1\ttext\tnan\t0.5"])
        with pytest.raises(EvaluationError, match="must lie in"):
            load_gold(path, tiny_lexicon)

    def test_header_and_shape_errors(self, tmp_path, tiny_lexicon):
        path = self.write_gold(tmp_path, ["h1\ttext\t0.5\t0.5"], header="identifier\ttext\tFEAR")
        with pytest.raises(EvaluationError, match="expected header"):
            load_gold(path, tiny_lexicon)
        path = self.write_gold(tmp_path, ["h1\ttext\t0.5"])
        with pytest.raises(EvaluationError, match="expected 4 tab-separated fields, got 3"):
            load_gold(path, tiny_lexicon)

    def test_duplicate_ids_rejected(self, tmp_path, tiny_lexicon):
        path = self.write_gold(tmp_path, ["h1\ta\t0.5\t0.5", "h1\tb\t0.1\t0.2"])
        with pytest.raises(EvaluationError, match=r"gold\.tsv:3: duplicate headline id 'h1'$"):
            load_gold(path, tiny_lexicon)

    def test_labels_attach_and_validate(self, tmp_path, tiny_lexicon):
        gold_path = self.write_gold(tmp_path, ["h1\tafraid\t0.9\t0.0", "h2\tamused\t0.0\t0.9"])
        gold = load_gold(gold_path, tiny_lexicon)
        labels_path = tmp_path / "labels.tsv"
        labels_path.write_text("h1\tFEAR,JOY\n", encoding="utf-8")
        labeled = load_labels(labels_path, gold)
        assert labeled.labels.tolist() == [[True, True], [False, False]]
        # The labels are a new set; the gold and predicted scores are shared.
        assert not gold.labels.any() and labeled.gold is gold.gold
        assert labeled.scores is gold.scores

    def test_label_errors(self, tmp_path, tiny_lexicon):
        gold_path = self.write_gold(tmp_path, ["h1\tafraid\t0.9\t0.0"])
        gold = load_gold(gold_path, tiny_lexicon)
        bad_id = tmp_path / "labels1.tsv"
        bad_id.write_text("hX\tFEAR\n", encoding="utf-8")
        with pytest.raises(EvaluationError, match="unknown headline id"):
            load_labels(bad_id, gold)
        bad_label = tmp_path / "labels2.tsv"
        bad_label.write_text("h1\tTERROR\n", encoding="utf-8")
        with pytest.raises(EvaluationError, match="outside the gold emotion set"):
            load_labels(bad_label, gold)

    @pytest.mark.parametrize("field", ["", ",", " , "])
    def test_label_field_naming_no_emotion_rejected(self, tmp_path, tiny_lexicon, field):
        # What a writer cut off after the tab leaves: not an empty label set.
        gold = load_gold(self.write_gold(tmp_path, ["h1\tafraid\t0.9\t0.0"]), tiny_lexicon)
        path = tmp_path / "labels.tsv"
        path.write_text(f"# labels\nh1\t{field}\n", encoding="utf-8")
        with pytest.raises(
            EvaluationError, match=f"^{re.escape(str(path))}:2: label field names no emotion"
        ):
            load_labels(path, gold)


# Files drawn to reach every check of the gold and label readers: blank and
# comment lines (and a "#" that is not at the start), CRLF line ends, wrong
# field counts, non-numeric, NaN, infinite and out-of-range scores, and
# duplicate and unknown ids.
LINE_ENDS = st.sampled_from(["\n", "\r\n"])
OTHER_LINES = st.sampled_from(["", "   ", "\t", "# note", "#", " # not a comment"])
HEADLINE_IDS = st.sampled_from(["h1", "h2", "h3", "h10", "", " h1"])
HEADLINE_TEXTS = st.sampled_from(
    ["afraid", "Amused and ANGRY", "half-afraid!", "café angry", ""]
) | st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
GOLD_VALUES = st.sampled_from(
    ["0.5", "0", "1", "0.25", "80", "100", "100.5", "-0.2", "-0", "nan", "inf", "1e2", " 0.3",
     "1_0", "x", ""]
)
GOLD_ROWS = st.builds(
    lambda hid, text, values: "\t".join([hid, text, *values]),
    HEADLINE_IDS,
    HEADLINE_TEXTS,
    st.lists(GOLD_VALUES, min_size=1, max_size=3),
)
GOLD_HEADERS = st.sampled_from(
    ["id\ttext\tFEAR\tJOY", "id\ttext\tfear\t JOY ", "id\ttext\tFEAR\tfear", "id\ttext",
     "ident\ttext\tFEAR\tJOY"]
)


def tsv(lines, ends):
    """The lines joined, each ended by the next of ``ends`` (the last maybe not at all)."""
    return "".join(line + end for line, end in zip(lines, ends + [""] * len(lines)))


@st.composite
def gold_files(draw):
    lines = [draw(GOLD_HEADERS)] + draw(st.lists(GOLD_ROWS | OTHER_LINES, max_size=6))
    if draw(st.booleans()):
        lines.insert(0, draw(OTHER_LINES))
    return tsv(lines, draw(st.lists(LINE_ENDS, min_size=len(lines) - 1, max_size=len(lines))))


LABEL_FIELDS = st.sampled_from(
    ["FEAR", "JOY", "fear", " Joy", "FEAR,JOY", "FEAR, joy,", ",", "A,B", "A", "B", "TERROR",
     "FEAR,TERROR", "JOY\tFEAR", "", " , "]
)
LABEL_ROWS = st.builds("{}\t{}".format, HEADLINE_IDS | st.just("hX"), LABEL_FIELDS)


@st.composite
def label_files(draw):
    lines = draw(st.lists(LABEL_ROWS | OTHER_LINES | st.just("h1"), max_size=6))
    return tsv(lines, draw(st.lists(LINE_ENDS, min_size=len(lines), max_size=len(lines))))


PARSER_LEXICON = EmotionLexicon(
    EMOTIONS,
    ["afraid#a", "amused#a", "angry#a", "half#n"],
    [one_hot(0), one_hot(1), one_hot(2), two_mass(0, 0.5)],
)
# "A,B" is one emotion whose name holds a comma: a label field "A,B" names
# the emotions A and B, not it.
LABELED_GOLD = (
    "id\ttext\tFEAR\tJOY\tA,B\tA\n"
    "h1\tafraid\t1\t0\t0\t0\nh2\tx\t0\t1\t0\t0\nh10\tx\t0\t0\t1\t1\n"
)


def loaded_or_error(load, *args, **kwargs):
    try:
        return load(*args, **kwargs)
    except EvaluationError as exc:
        return str(exc)


def assert_same_gold(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    for name in ("emotions", "ids", "sources"):
        assert getattr(got, name) == getattr(want, name)
    for name in ("gold", "labels", "scores", "covered", "lengths"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        assert getattr(got, name).shape == getattr(want, name).shape
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()  # bit for bit


class TestReadersMatchPerLineReference:
    """The whole-file readers give the result, or the error text, of readers
    that take one line at a time through every check."""

    @settings(max_examples=400, deadline=None)
    @given(content=gold_files())
    @example(content="id\ttext\tFEAR\tJOY\nh1\ta\t0\t1\nh2\tb\t120\t1\nh3\tc\t1\n")
    @example(content="id\ttext\tFEAR\tJOY\nh1\ta\t0\nh2\tb\tx\t1\n")
    @example(content="id\ttext\tFEAR\tJOY\nh1\ta\t0\tnan\nh2\tb\tx\t1\n")
    @example(content="id\ttext\tFEAR\tJOY\r\n# c\r\n\r\nh2\tb\t0\t1\r\nh1\ta\t50\t1\r\n")
    @example(content="id\ttext\tFEAR\tJOY\n")
    def test_gold(self, tmp_path_factory, content):
        path = tmp_path_factory.getbasetemp() / "gold.tsv"
        path.write_bytes(content.encode("utf-8"))
        assert_same_gold(
            loaded_or_error(load_gold, path, PARSER_LEXICON),
            loaded_or_error(load_gold_reference, path, PARSER_LEXICON),
        )

    @pytest.mark.parametrize(
        "rows, fault",
        [
            ("h1\ta\t0\t1\nh2\tb\t0\t1\nh1\tc\tx\t1\n", "4: duplicate headline id 'h1'"),
            ("h1\ta\t0\t1\nh1\tb\t0\n", "3: expected 4 tab-separated fields, got 3"),
            ("h1\ta\t0\t1\nh2\tb\tx\t1\nh1\tc\t0\t1\n", "3: non-numeric gold score"),
            ("h1\ta\t0\t1\nh1\tb\t0\t120\n", "3: duplicate headline id 'h1'"),
            ("h1\ta\t0\t1\nh1\tb\t0\t1\nh2\tc\tx\t1\n", "3: duplicate headline id 'h1'"),
        ],
    )
    def test_gold_repeated_id_after_field_count_before_numbers(self, tmp_path, rows, fault):
        path = tmp_path / "gold.tsv"
        path.write_text("id\ttext\tFEAR\tJOY\n" + rows, encoding="utf-8")
        for load in (load_gold, load_gold_reference):
            assert loaded_or_error(load, path, PARSER_LEXICON) == f"{path}:{fault}"

    @settings(max_examples=400, deadline=None)
    @given(content=label_files())
    @example(content="h1\tafraid, happy\nh2\tJOY\n")
    @example(content="h2\tJOY\nh1\tFEAR\tJOY\nh2\tFEAR\n")
    @example(content="h2\tJOY\nh2\tFEAR\nhX\tFEAR\n")
    @example(content="h1\tA,B\nh2\tA,B,TERROR\n")
    def test_labels(self, tmp_path_factory, content):
        base = tmp_path_factory.getbasetemp()
        gold_path, labels_path = base / "labeled-gold.tsv", base / "labels.tsv"
        gold_path.write_text(LABELED_GOLD, encoding="utf-8")
        labels_path.write_bytes(content.encode("utf-8"))
        gold = load_gold(gold_path, PARSER_LEXICON)
        assert_same_gold(
            loaded_or_error(load_labels, labels_path, gold),
            loaded_or_error(load_labels_reference, labels_path, gold),
        )

    @pytest.mark.parametrize("content", ["h1\tfear\n", "h1\t JOY\n", "h1\tJOY\n", "h1\tA,B\n"])
    def test_labels_of_a_gold_set_made_in_code(self, tmp_path, content):
        """Emotion names that are not upper case or hold a comma, as a GoldSet
        made in code may have, are still read as the per-line reader reads them."""
        gold = GoldSet(
            ("fear", " JOY", "A,B"), ("h1",), np.zeros((1, 3)), np.zeros((1, 3), dtype=bool),
            ("AFRAID",), np.zeros((1, 1)), np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64),
        )
        path = tmp_path / "labels.tsv"
        path.write_text(content, encoding="utf-8")
        assert_same_gold(
            loaded_or_error(load_labels, path, gold),
            loaded_or_error(load_labels_reference, path, gold),
        )

    @pytest.mark.parametrize(
        "rows, line, message",
        [
            (["h1\ta\t0\t1", "h2\tb\t120\t1", "h3\tc\t1"], 3, "gold scores must lie in"),
            (["h1\ta\t0\tx", "h2\tb\tinf\t1"], 2, "non-numeric gold score"),
            (["h1\ta\t0\t1", "h2\tb\tnan\tx"], 3, "non-numeric gold score"),
            (["h1\ta\t0\t1", "h2\tb\t-1\t1", "h3\tc\tx\t1"], 3, "gold scores must lie in"),
        ],
    )
    def test_first_bad_gold_line_wins(self, tmp_path, rows, line, message):
        path = tmp_path / "gold.tsv"
        path.write_text("id\ttext\tFEAR\tJOY\n" + "".join(r + "\n" for r in rows), encoding="utf-8")
        with pytest.raises(EvaluationError, match=f"^{re.escape(str(path))}:{line}: {message}"):
            load_gold(path, PARSER_LEXICON)
