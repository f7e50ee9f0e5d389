"""Isolation forest: closed-form checks on the path-length normalizer,
planted-outlier detection power, and determinism."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlantel.detection.iforest import (
    EULER_GAMMA,
    TooFewPoints,
    average_path_length,
    expected_path_length,
    fit_isolation_forest,
    harmonic,
    iforest_score,
)


class TestPathLengthNormalizer:
    def test_c2_is_exactly_one(self):
        # c(2) = 2*H(1) - 2*(1/2) = 2 - 1 = 1, exact because H(1) is an
        # exact sum.
        assert expected_path_length(2) == 1.0

    def test_small_values_exact(self):
        # c(n) = 2 H(n-1) - 2 (n-1)/n with exact harmonic sums below 10.
        assert expected_path_length(3) == pytest.approx(2 * 1.5 - 4 / 3)
        assert expected_path_length(4) == pytest.approx(2 * (1 + 0.5 + 1 / 3) - 1.5)

    def test_degenerate_sizes(self):
        assert expected_path_length(0) == 0.0
        assert expected_path_length(1) == 0.0

    def test_harmonic_exact_below_ten(self):
        for i in range(1, 10):
            assert harmonic(i) == pytest.approx(sum(1 / j for j in range(1, i + 1)),
                                                abs=1e-12)

    def test_harmonic_approximation_above_ten(self):
        assert harmonic(100) == pytest.approx(math.log(100) + EULER_GAMMA)
        # The approximation error is about 1/(2i), so it shrinks with i.
        for i in (10, 25, 1000):
            exact = sum(1 / j for j in range(1, i + 1))
            assert abs(harmonic(i) - exact) < 0.6 / i

    def test_monotone_in_n(self):
        values = [expected_path_length(n) for n in range(2, 200)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestScoring:
    def test_score_half_when_mean_path_equals_c_psi(self):
        # All-identical points make every tree a single leaf of size psi,
        # so E[h] = 0 + c(psi) exactly and the score must be 0.5.
        points = [(3.0, 7.0)] * 8
        model = fit_isolation_forest(points, n_trees=10, subsample_size=8, seed=1)
        e_h = average_path_length(model, (3.0, 7.0))
        assert abs(e_h - expected_path_length(model.subsample_size)) < 1e-9
        assert iforest_score(model, (3.0, 7.0)) == pytest.approx(0.5, abs=1e-12)

    def test_scores_in_unit_interval(self):
        rng = random.Random(5)
        points = [(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(64)]
        model = fit_isolation_forest(points, seed=3)
        for p in points:
            assert 0.0 < iforest_score(model, p) <= 1.0

    def test_planted_outlier_scores_above_95th_percentile(self):
        # Detection power: a far outlier must beat the 95th percentile of
        # inlier scores in at least 95 of 100 seeded trials.
        wins = 0
        trials = 100
        for trial in range(trials):
            rng = random.Random(1000 + trial)
            inliers = [(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(128)]
            outlier = (12.0, -12.0)
            model = fit_isolation_forest(inliers + [outlier],
                                         n_trees=100, subsample_size=64,
                                         seed=trial)
            inlier_scores = sorted(iforest_score(model, p) for p in inliers)
            p95 = inlier_scores[int(0.95 * len(inlier_scores))]
            if iforest_score(model, outlier) > p95:
                wins += 1
        assert wins >= 95, f"outlier beat the 95th percentile in only {wins}/100 trials"

    def test_farther_point_scores_at_least_as_high(self):
        rng = random.Random(11)
        points = [(rng.gauss(0, 1),) for _ in range(64)]
        model = fit_isolation_forest(points, seed=7)
        near, far = (2.0,), (40.0,)
        assert iforest_score(model, far) >= iforest_score(model, near)


class TestFitting:
    def test_deterministic_for_same_seed(self):
        rng = random.Random(2)
        points = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(40)]
        m1 = fit_isolation_forest(points, seed=9)
        m2 = fit_isolation_forest(points, seed=9)
        assert m1 == m2

    def test_different_seeds_differ(self):
        rng = random.Random(2)
        points = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(40)]
        m1 = fit_isolation_forest(points, seed=1)
        m2 = fit_isolation_forest(points, seed=2)
        assert m1.trees != m2.trees

    def test_subsample_capped_at_population(self):
        points = [(float(i),) for i in range(10)]
        model = fit_isolation_forest(points, subsample_size=64, seed=0)
        assert model.subsample_size == 10

    def test_rejects_too_few_points(self):
        with pytest.raises(TooFewPoints):
            fit_isolation_forest([(1.0,)])

    def test_rejects_bad_params(self):
        points = [(0.0,), (1.0,)]
        with pytest.raises(ValueError):
            fit_isolation_forest(points, subsample_size=1)
        with pytest.raises(ValueError):
            fit_isolation_forest(points, n_trees=0)

    def test_depth_bounded_by_log2_psi(self):
        rng = random.Random(4)
        points = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(256)]
        model = fit_isolation_forest(points, subsample_size=64, seed=0)
        cap = math.ceil(math.log2(model.subsample_size))

        def depth(node, d=0):
            if node.is_leaf:
                return d
            return max(depth(node.left, d + 1), depth(node.right, d + 1))

        assert all(depth(t) <= cap for t in model.trees)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000),
       values=st.lists(st.floats(-100, 100), min_size=4, max_size=30))
def test_any_query_point_scores_in_unit_interval(seed, values):
    points = [(v,) for v in values]
    model = fit_isolation_forest(points, n_trees=10, subsample_size=8, seed=seed)
    for q in (-1e6, 0.0, 1e6):
        assert 0.0 < iforest_score(model, (q,)) <= 1.0
