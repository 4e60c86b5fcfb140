"""Metric implementations against exhaustive oracles, including tie handling."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fsosr import (
    OUTLIER,
    EpisodeReport,
    PredictionSheet,
    aggregate,
    score_chunk,
    score_episode,
)

from conftest import detector_report, properties


def oracle_auroc(scores, is_outlier):
    """O(n^2) pair counting; ties between classes count half."""
    pos = [s for s, o in zip(scores, is_outlier) if o]
    neg = [s for s, o in zip(scores, is_outlier) if not o]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def _oracle_sweep(scores, is_outlier):
    """Precision/recall at each distinct threshold, descending, pure Python."""
    pairs = sorted(zip(scores, is_outlier), key=lambda t: -t[0])
    total_pos = float(sum(1 for _, o in pairs if o))
    points = []
    tp = 0
    seen = 0
    for i, (score, outlier) in enumerate(pairs):
        tp += bool(outlier)
        seen += 1
        last_of_block = i == len(pairs) - 1 or pairs[i + 1][0] != score
        if last_of_block:
            points.append((tp / seen, tp / total_pos))
    return points


def oracle_aupr(scores, is_outlier):
    area = 0.0
    prev_recall = 0.0
    for precision, recall in _oracle_sweep(scores, is_outlier):
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def oracle_prec_at_recall(scores, is_outlier, target):
    best = None
    for precision, recall in _oracle_sweep(scores, is_outlier):
        if recall >= target and (best is None or precision > best):
            best = precision
    return best


def sheet_from_probs(probs):
    probs = np.asarray(probs, dtype=np.float64)
    return PredictionSheet(probs, n_closed=probs.shape[1])


class TestAccuracy:
    """Closed-set accuracy as ``score_episode`` reports it for a prediction sheet."""

    def test_all_inliers_correct(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        sheet = sheet_from_probs(probs)
        truth = np.array([0, 1, OUTLIER])
        assert score_episode(truth, sheet.outlier_score, sheet.closed_pred).acc == 1.0

    def test_three_of_four(self):
        probs = np.array([[0.9, 0.1]] * 4 + [[0.1, 0.9]])
        sheet = sheet_from_probs(probs)
        truth = np.array([0, 0, 0, 1, OUTLIER])
        assert score_episode(truth, sheet.outlier_score, sheet.closed_pred).acc == 0.75

    def test_chance_level(self, rng):
        k = 4
        n = 40_000
        probs = rng.dirichlet(np.ones(k), size=n)
        truth = rng.integers(0, k, size=n)
        # One outlier query, so the episode also has an AUROC; accuracy
        # ignores it.
        sheet = sheet_from_probs(np.vstack([probs, np.full(k, 1 / k)]))
        truth = np.append(truth, OUTLIER)
        assert abs(score_episode(truth, sheet.outlier_score, sheet.closed_pred).acc - 1 / k) < 0.01

    def test_outliers_excluded(self):
        probs = np.array([[0.9, 0.1], [0.9, 0.1]])
        sheet = sheet_from_probs(probs)
        truth = np.array([0, OUTLIER])
        assert score_episode(truth, sheet.outlier_score, sheet.closed_pred).acc == 1.0

    def test_no_inliers_raises(self):
        sheet = sheet_from_probs(np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError, match="inlier"):
            score_episode(np.array([OUTLIER]), sheet.outlier_score, sheet.closed_pred)


class TestAuroc:
    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.9, 0.8])
        labels = np.array([False, False, True, True])
        assert detector_report(scores, labels).auroc == 1.0

    def test_all_ties_is_half(self):
        scores = np.full(10, 3.25)
        labels = np.array([True] * 4 + [False] * 6)
        assert detector_report(scores, labels).auroc == 0.5

    def test_hand_case(self):
        scores = [3, 1, 2, 5, 4, 0]
        labels = [True, False, True, True, False, False]
        assert detector_report(scores, labels).auroc == oracle_auroc(scores, labels) == 7 / 9

    def test_tie_hand_case(self):
        scores = [1.0, 1.0, 2.0, 0.0]
        labels = [True, False, True, False]
        assert detector_report(scores, labels).auroc == 0.875

    def test_matches_pair_count_oracle_exactly(self, rng):
        for _ in range(60):
            n = int(rng.integers(4, 40))
            scores = rng.integers(0, 6, size=n).astype(np.float64)  # forced ties
            labels = rng.random(n) < 0.5
            if labels.all() or not labels.any():
                continue
            assert detector_report(scores, labels).auroc == oracle_auroc(scores, labels)

    def test_single_class_raises(self):
        with pytest.raises(ValueError, match="^auroc needs at least one inlier and one outlier$"):
            detector_report(np.array([1.0, 2.0]), np.array([True, True]))


class TestAupr:
    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.9, 0.8])
        labels = np.array([False, False, True, True])
        assert detector_report(scores, labels).aupr == 1.0

    def test_hand_case(self):
        scores = [5, 4, 3, 2, 1]
        labels = [True, False, True, False, False]
        got = detector_report(scores, labels).aupr
        assert got == oracle_aupr(scores, labels)
        assert np.isclose(got, 5 / 6, atol=1e-15)

    def test_constant_scores_give_outlier_proportion(self):
        scores = np.zeros(8)
        labels = np.array([True] * 3 + [False] * 5)
        assert detector_report(scores, labels).aupr == 3 / 8

    def test_matches_sweep_oracle_exactly(self, rng):
        for _ in range(60):
            n = int(rng.integers(3, 40))
            scores = rng.integers(0, 5, size=n).astype(np.float64)
            labels = rng.random(n) < 0.4
            if labels.all() or not labels.any():
                continue
            assert detector_report(scores, labels).aupr == oracle_aupr(scores, labels)

    def test_zero_outliers_raises(self):
        # score_episode scores AUROC first, which refuses the episode.
        with pytest.raises(ValueError, match="^auroc needs at least one inlier and one outlier$"):
            detector_report(np.array([1.0, 2.0]), np.array([False, False]))


class TestPrecAtRecall:
    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.9, 0.8])
        labels = np.array([False, False, True, True])
        assert detector_report(scores, labels).prec_at_90 == 1.0

    def test_hand_case(self):
        scores = [9, 8, 7, 6, 5, 4, 3, 2, 1, 0]
        labels = [True, False, True, True, False, True, False, False, False, False]
        got = detector_report(scores, labels).prec_at_90
        assert got == oracle_prec_at_recall(scores, labels, 0.9)
        assert np.isclose(got, 4 / 6, atol=1e-15)

    def test_constant_scores_give_outlier_proportion(self):
        scores = np.ones(10)
        labels = np.array([True] * 5 + [False] * 5)
        assert detector_report(scores, labels).prec_at_90 == 0.5

    def test_matches_sweep_oracle_exactly(self, rng):
        for _ in range(60):
            n = int(rng.integers(3, 40))
            scores = rng.integers(0, 5, size=n).astype(np.float64)
            labels = rng.random(n) < 0.4
            if labels.all() or not labels.any():
                continue
            assert detector_report(scores, labels).prec_at_90 == oracle_prec_at_recall(
                scores, labels, 0.9
            )


class TestScoreInvariances:
    def test_flip_identity_with_midranks(self, rng):
        for _ in range(40):
            n = int(rng.integers(4, 30))
            scores = rng.integers(0, 4, size=n).astype(np.float64)
            labels = rng.random(n) < 0.5
            if labels.all() or not labels.any():
                continue
            flipped = detector_report(-scores, labels).auroc
            assert abs(flipped - (1 - detector_report(scores, labels).auroc)) <= 1e-15

    def test_monotone_transform_invariance(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 30))
            scores = rng.normal(size=n)
            labels = rng.random(n) < 0.5
            if labels.all() or not labels.any():
                continue
            report = detector_report(scores, labels)
            assert report == detector_report(np.exp(scores), labels)

    def test_all_metrics_in_unit_interval(self, rng):
        for _ in range(50):
            n = int(rng.integers(4, 50))
            scores = rng.normal(size=n)
            labels = rng.random(n) < 0.5
            if labels.all() or not labels.any():
                continue
            report = detector_report(scores, labels)
            for value in (report.auroc, report.aupr, report.prec_at_90):
                assert 0.0 <= value <= 1.0


class TestAggregate:
    def test_single_report(self):
        report = EpisodeReport(acc=0.5, auroc=0.7, aupr=0.6, prec_at_90=0.55)
        out = aggregate([report], method="m")
        assert out.metrics["auroc"].mean == 0.7
        assert out.metrics["auroc"].ci95_half_width == 0.0
        assert out.n_episodes == 1

    def test_identical_reports_zero_width(self):
        report = EpisodeReport(acc=0.5, auroc=0.7, aupr=0.6, prec_at_90=0.55)
        out = aggregate([report, report])
        assert out.metrics["acc"].std == 0.0
        assert out.metrics["acc"].ci95_half_width == 0.0

    def test_matches_direct_oracle(self, rng):
        reports = [
            EpisodeReport(
                acc=float(rng.random()), auroc=float(rng.random()),
                aupr=float(rng.random()), prec_at_90=float(rng.random()),
            )
            for _ in range(100)
        ]
        out = aggregate(reports)
        values = [r.auroc for r in reports]
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert np.isclose(out.metrics["auroc"].mean, mean, atol=1e-12)
        assert np.isclose(out.metrics["auroc"].std, var**0.5, atol=1e-12)
        assert np.isclose(
            out.metrics["auroc"].ci95_half_width, 1.96 * var**0.5 / 10.0, atol=1e-12
        )

    def test_detector_only_reports(self):
        reports = [EpisodeReport(acc=None, auroc=0.6, aupr=0.5, prec_at_90=0.5)] * 3
        out = aggregate(reports)
        assert out.metrics["acc"] is None
        assert out.metrics["auroc"].mean == 0.6

    def test_mixed_none_raises(self):
        reports = [
            EpisodeReport(acc=None, auroc=0.6, aupr=0.5, prec_at_90=0.5),
            EpisodeReport(acc=0.5, auroc=0.6, aupr=0.5, prec_at_90=0.5),
        ]
        with pytest.raises(ValueError, match="acc"):
            aggregate(reports)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestScoreEpisode:
    def test_bundles_metrics(self):
        truth = np.array([0, 1, OUTLIER, OUTLIER])
        scores = np.array([0.1, 0.2, 0.9, 0.8])
        pred = np.array([0, 0, 1, 1])
        report = score_episode(truth, scores, pred)
        assert report.acc == 0.5
        assert report.auroc == 1.0
        assert report.aupr == 1.0

    def test_detector_only(self):
        truth = np.array([0, OUTLIER])
        report = score_episode(truth, np.array([0.0, 1.0]))
        assert report.acc is None
        assert report.auroc == 1.0


# Scores drawn from a pool of at most four values, so ties are common; the
# pool mixes signed zeros, subnormals and magnitudes near 1e+-300 with any
# finite float.
EXTREMES = (0.0, -0.0, 5e-324, -1e-300, 1e-300, -1e300, 1e300, 1.7976931348623157e308)


@st.composite
def tie_heavy_queries(draw, n: int | None = None) -> tuple[list[float], list[bool]]:
    """Scores and outlier flags with at least one inlier and one outlier;
    ``n`` of each, or a drawn number from 2 to 40."""
    pool = draw(st.lists(
        st.sampled_from(EXTREMES) | st.floats(allow_nan=False, allow_infinity=False),
        min_size=1, max_size=4,
    ))
    n = draw(st.integers(2, 40)) if n is None else n
    scores = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    is_outlier = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    first = draw(st.integers(0, n - 1))
    second = draw(st.integers(0, n - 2))
    is_outlier[first] = True
    is_outlier[second + (second >= first)] = False
    return scores, is_outlier


class TestOracleProperties:
    @properties
    @given(tie_heavy_queries())
    def test_every_metric_equals_its_oracle(self, queries):
        report = detector_report(*queries)
        assert report.auroc == oracle_auroc(*queries)
        assert report.aupr == oracle_aupr(*queries)
        assert report.prec_at_90 == oracle_prec_at_recall(*queries, 0.9)


@st.composite
def chunks(draw) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(E, n) truth, scores and, or not, closed predictions for E in {1, 2, 5}:
    tie-heavy rows and rows whose scores are all tied, 3 closed classes."""
    n_episodes = draw(st.sampled_from([1, 2, 5]))
    n = draw(st.integers(2, 30))
    tied = st.tuples(
        st.sampled_from(EXTREMES) | st.floats(allow_nan=False, allow_infinity=False),
        tie_heavy_queries(n),
    ).map(lambda t: ([t[0]] * n, t[1][1]))
    rows = draw(st.lists(tie_heavy_queries(n) | tied, min_size=n_episodes, max_size=n_episodes))
    labels = draw(st.lists(st.integers(0, 2), min_size=n_episodes * n, max_size=n_episodes * n))
    is_outlier = np.array([flags for _, flags in rows])
    truth = np.where(is_outlier, OUTLIER, np.reshape(labels, is_outlier.shape))
    scores = np.array([row for row, _ in rows], dtype=np.float64)
    closed_pred = draw(st.none() | st.just(np.roll(truth.clip(0), 1, axis=1)))
    return truth, scores, closed_pred


class TestScoreChunk:
    """``score_chunk`` ranks a whole chunk at once, and each of its rows is
    the one-episode report, bit for bit."""

    @properties
    @given(chunks())
    def test_each_row_equals_score_episode_and_the_oracles(self, chunk):
        truth, scores, closed_pred = chunk
        reports = score_chunk(truth, scores, closed_pred)
        assert len(reports) == truth.shape[0]
        for e, report in enumerate(reports):
            pred = None if closed_pred is None else closed_pred[e]
            assert report == score_episode(truth[e], scores[e], pred)
            row, is_outlier = scores[e].tolist(), (truth[e] == OUTLIER).tolist()
            assert report.auroc == oracle_auroc(row, is_outlier)
            assert report.aupr == oracle_aupr(row, is_outlier)
            assert report.prec_at_90 == oracle_prec_at_recall(row, is_outlier, 0.9)
            if pred is None:
                assert report.acc is None
            else:
                inlier = truth[e] != OUTLIER
                assert report.acc == float((pred[inlier] == truth[e][inlier]).mean())

    @pytest.mark.parametrize("bad_row", [0, 2, 4])
    @pytest.mark.parametrize("fault", ["nan", "inf", "no_inlier", "no_outlier"])
    @pytest.mark.parametrize("with_pred", [False, True])
    def test_a_failing_row_raises_the_one_episode_error(self, bad_row, fault, with_pred):
        truth = np.tile([0, 1, OUTLIER, 1, OUTLIER], (5, 1))
        scores = np.tile([0.5, 0.25, 0.75, 0.25, 1.0], (5, 1))
        if fault in ("nan", "inf"):
            scores[bad_row, 1] = float(fault)
        else:
            truth[bad_row] = OUTLIER if fault == "no_inlier" else 0
        pred = np.zeros_like(truth) if with_pred else None
        with pytest.raises(ValueError) as alone:
            score_episode(truth[bad_row], scores[bad_row], None if pred is None else pred[bad_row])
        with pytest.raises(ValueError, match=f"^{re.escape(str(alone.value))}$"):
            score_chunk(truth, scores, pred)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="2-D arrays of equal shape"):
            score_chunk(np.zeros((2, 3)), np.zeros((2, 4)))
        with pytest.raises(ValueError, match="2-D arrays of equal shape"):
            score_chunk(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 2)))
        with pytest.raises(
            ValueError, match="^truth and outlier_scores must be 1-D arrays of equal length$"
        ):
            score_episode(np.zeros(3), np.zeros(4))
