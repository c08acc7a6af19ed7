"""Rank-based AUROC, thresholded metrics, assignment difference score."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnt.metrics import auroc, difference_score, threshold_metrics

from _oracles import auroc_pairs


def test_auroc_hand_cases():
    assert auroc([0.1, 0.9], [0, 1]) == 1.0
    assert auroc([0.9, 0.1], [0, 1]) == 0.0
    assert auroc([0.5, 0.5], [0, 1]) == 0.5
    # one tie pair out of two: (1 + 0.5) / 2
    assert auroc([0.3, 0.3, 0.1], [1, 0, 0]) == 0.75


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=4), st.integers(0, 1)),
        min_size=2,
        max_size=60,
    ).filter(lambda xs: len({y for _, y in xs}) == 2)
)
@settings(deadline=None, max_examples=200)
def test_auroc_matches_pair_counting(pairs):
    # a tiny score alphabet forces heavy ties, the hard case for midranks
    scores = [s / 4.0 for s, _ in pairs]
    labels = [y for _, y in pairs]
    assert auroc(scores, labels) == pytest.approx(auroc_pairs(scores, labels), abs=1e-12)


@given(
    st.lists(
        st.tuples(st.integers(min_value=-20, max_value=20), st.integers(0, 1)),
        min_size=2,
        max_size=40,
    ).filter(lambda xs: len({y for _, y in xs}) == 2)
)
@settings(deadline=None, max_examples=100)
def test_auroc_label_flip_and_rank_invariance(pairs):
    scores = np.array([s for s, _ in pairs], dtype=np.float64)
    labels = [y for _, y in pairs]
    flipped = [1 - y for y in labels]
    assert auroc(scores, labels) + auroc(scores, flipped) == 1.0
    # any strictly increasing transform keeps the ranking, hence the value
    assert auroc(3.0 * scores + 7.0, labels) == auroc(scores, labels)


def test_auroc_rejects_degenerate_input():
    with pytest.raises(ValueError):
        auroc([0.2, 0.4], [1, 1])
    with pytest.raises(ValueError):
        auroc([0.2, 0.4], [0, 0])
    with pytest.raises(ValueError):
        auroc([], [])
    with pytest.raises(ValueError):
        auroc([0.2, 0.4], [0, 2])
    with pytest.raises(ValueError):
        auroc([0.2, np.inf], [0, 1])


def test_threshold_metrics_hand_case():
    scores = [0.9, 0.6, 0.4, 0.1]
    labels = [1, 0, 1, 0]
    accuracy, sensitivity, specificity = threshold_metrics(scores, labels)
    assert accuracy == 0.5
    assert sensitivity == 0.5
    assert specificity == 0.5
    accuracy, sensitivity, specificity = threshold_metrics(scores, labels, threshold=0.05)
    assert (accuracy, sensitivity, specificity) == (0.5, 1.0, 0.0)


def test_threshold_metrics_single_class_sides():
    accuracy, sensitivity, specificity = threshold_metrics([0.8, 0.2], [1, 1])
    assert accuracy == 0.5
    assert sensitivity == 0.5
    assert specificity is None
    accuracy, sensitivity, specificity = threshold_metrics([0.8, 0.2], [0, 0])
    assert sensitivity is None
    assert specificity == 0.5


def test_threshold_metrics_count_a_score_at_the_threshold_as_positive():
    below = np.nextafter(0.5, 0.0)
    assert threshold_metrics([0.5, below], [1, 0]) == (1.0, 1.0, 1.0)


def test_difference_score():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert difference_score(a, a) == 0.0
    assert difference_score(a, b) == 1.0
    assert difference_score(a, (a + b) / 2.0) == 0.5
    with pytest.raises(ValueError):
        difference_score(a, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        difference_score(np.zeros(4), np.zeros(4))
