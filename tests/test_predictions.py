"""PredictionSheet container invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fsosr import PredictionSheet

from conftest import properties


def test_accepts_k_and_k_plus_one_columns():
    probs_k = np.array([[0.5, 0.5], [0.9, 0.1]])
    sheet = PredictionSheet(probs_k, n_closed=2)
    assert np.array_equal(sheet.closed_pred, [0, 0])
    assert np.array_equal(sheet.outlier_score, [-0.5, -0.9])
    probs_k1 = np.array([[0.2, 0.3, 0.5]])
    sheet = PredictionSheet(probs_k1, n_closed=2)
    assert np.array_equal(sheet.closed_pred, [1])
    assert np.array_equal(sheet.outlier_score, [0.5])


def test_derived_fields_are_not_constructor_arguments():
    probs = np.array([[0.9, 0.1]])
    with pytest.raises(TypeError):
        PredictionSheet(probs, n_closed=2, closed_pred=np.array([1]))
    with pytest.raises(TypeError):
        PredictionSheet(probs, n_closed=2, outlier_score=np.array([0.0]))


def test_rejects_non_stochastic_rows():
    probs = np.array([[0.6, 0.6]])
    with pytest.raises(ValueError, match="sums to"):
        PredictionSheet(probs, n_closed=2)


def test_rejects_wrong_width():
    for probs in (np.array([[0.25, 0.25, 0.25, 0.25]]), np.array([0.5, 0.5])):
        with pytest.raises(ValueError, match="incompatible"):
            PredictionSheet(probs, n_closed=2)


def test_rejects_non_finite_probs():
    for bad in (np.inf, -np.inf, np.nan):
        probs = np.array([[0.5, 0.5], [bad, 0.5]])
        with pytest.raises(ValueError, match="finite"):
            PredictionSheet(probs, n_closed=2)


@st.composite
def tied_probs(draw) -> tuple[np.ndarray, int]:
    """Rows over K or K + 1 columns drawn from a few integer weights, so
    that maxima are often tied, normalized to sum to 1."""
    k = draw(st.integers(2, 6))
    cols = k + draw(st.integers(0, 1))
    n = draw(st.integers(1, 12))
    weights = draw(st.lists(st.integers(0, 3), min_size=n * cols, max_size=n * cols))
    w = np.array(weights, dtype=np.float64).reshape(n, cols)
    w[w.sum(axis=1) == 0, 0] = 1.0
    return w / w.sum(axis=1, keepdims=True), k


@properties
@given(tied_probs())
def test_derived_fields_match_the_per_classifier_expressions(drawn):
    """The rules ``ostim.predict`` and ``simpleshot_classify`` applied
    themselves before the sheet derived both fields: the outlier column
    for the implicit and explicit_dummy variants, the negative maximum
    for the closed variant and SimpleShot, and the closed-column argmax."""
    probs, k = drawn
    sheet = PredictionSheet(probs, k)
    if probs.shape[1] == k + 1:
        expected_score = probs[:, k]
    else:
        expected_score = -probs.max(axis=1)
    assert np.array_equal(sheet.outlier_score, expected_score)
    assert np.array_equal(sheet.closed_pred, probs[:, :k].argmax(axis=1))
    assert sheet.closed_pred.dtype == np.int64
    assert sheet.outlier_score.dtype == np.float64


@st.composite
def tied_chunks(draw) -> tuple[np.ndarray, int]:
    """(E, n, C) probabilities: E ``tied_probs`` draws of one shape."""
    k = draw(st.integers(2, 6))
    cols = k + draw(st.integers(0, 1))
    n_episodes, n = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    size = n_episodes * n * cols
    weights = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    w = np.array(weights, dtype=np.float64).reshape(n_episodes, n, cols)
    w[w.sum(axis=-1) == 0, 0] = 1.0
    return w / w.sum(axis=-1, keepdims=True), k


@properties
@given(tied_chunks())
def test_a_chunk_sheet_derives_each_row_as_its_episode_sheet(drawn):
    """With and without an outlier column, each row of a chunk's sheet is
    the sheet of that episode's (n, C) probabilities."""
    probs, k = drawn
    sheet = PredictionSheet(probs, k)
    assert sheet.n_queries == probs.shape[1]
    for e, episode_probs in enumerate(probs):
        alone = PredictionSheet(episode_probs, k)
        assert np.array_equal(sheet.closed_pred[e], alone.closed_pred)
        assert np.array_equal(sheet.outlier_score[e], alone.outlier_score)
    assert sheet.closed_pred.shape == sheet.outlier_score.shape == probs.shape[:2]


def test_a_bad_chunk_row_sum_names_its_flat_row():
    probs = np.full((2, 3, 2), 0.5)
    probs[1, 2] = [0.6, 0.6]
    with pytest.raises(ValueError, match=r"^probability row 5 sums to \S*1\.2\S*, not 1$"):
        PredictionSheet(probs, n_closed=2)


def test_rejects_a_four_axis_chunk():
    with pytest.raises(ValueError, match="incompatible"):
        PredictionSheet(np.full((1, 1, 1, 2), 0.5), n_closed=2)
