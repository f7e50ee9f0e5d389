"""Density clustering, checked against an independent brute-force
reference.

The reference below derives clusters straight from the textbook
definition: core points (>= min_pts neighbors within eps, counting
themselves), connected components of the core graph, and borders joining
the earliest-created cluster that has one of their core neighbors.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlantel.detection.dbscan import NOISE, dbscan


def naive_dbscan(points, eps, min_pts):
    """O(n^2) reference built independently of the production code."""
    n = len(points)

    def dist(a, b):
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))

    neighbors = [{j for j in range(n) if dist(points[i], points[j]) <= eps}
                 for i in range(n)]
    core = [len(neighbors[i]) >= min_pts for i in range(n)]

    # Connected components over core points, created in ascending index
    # order so cluster creation order matches the documented tie-break.
    labels = [NOISE] * n
    cluster = 0
    assigned = [False] * n
    for i in range(n):
        if not core[i] or assigned[i]:
            continue
        component = {i}
        frontier = [i]
        while frontier:
            p = frontier.pop()
            for q in neighbors[p]:
                if core[q] and q not in component:
                    component.add(q)
                    frontier.append(q)
        for p in component:
            labels[p] = cluster
            assigned[p] = True
        cluster += 1

    # Borders: non-core points within eps of a core point join the
    # earliest-created such cluster.
    for i in range(n):
        if core[i]:
            continue
        candidate = [labels[j] for j in neighbors[i] if core[j]]
        if candidate:
            labels[i] = min(candidate)
    return labels


def partition(labels) -> tuple[frozenset, frozenset]:
    """Canonical form of a labeling: ({cluster index sets}, noise set).

    Invariant under cluster relabeling, so two labelings compare equal iff
    they induce the same partition.
    """
    clusters: dict = {}
    noise = set()
    for i, lab in enumerate(labels):
        if lab == NOISE:
            noise.add(i)
        else:
            clusters.setdefault(lab, set()).add(i)
    return frozenset(frozenset(c) for c in clusters.values()), frozenset(noise)


def random_instance(rng):
    n = rng.randint(1, 60)
    d = rng.randint(1, 4)
    # A mix of clumped and scattered points exercises all three roles.
    points = []
    for _ in range(n):
        if rng.random() < 0.7:
            center = [rng.choice([-3.0, 0.0, 3.0]) for _ in range(d)]
            points.append(tuple(c + rng.gauss(0.0, 0.4) for c in center))
        else:
            points.append(tuple(rng.uniform(-8.0, 8.0) for _ in range(d)))
    eps = rng.uniform(0.3, 2.5)
    min_pts = rng.randint(1, 6)
    return points, eps, min_pts


def test_matches_naive_reference_on_200_random_instances():
    rng = random.Random(2024)
    for _ in range(200):
        points, eps, min_pts = random_instance(rng)
        got = dbscan(points, eps, min_pts)
        want = naive_dbscan(points, eps, min_pts)
        assert partition(got) == partition(want), (points, eps, min_pts)


def test_two_far_clumps_two_clusters():
    a = [(0.0, 0.0), (0.1, 0.0), (0.0, 0.1), (0.1, 0.1)]
    b = [(10.0, 10.0), (10.1, 10.0), (10.0, 10.1), (10.1, 10.1)]
    labels = dbscan(a + b, eps=0.5, min_pts=3)
    clusters, noise = partition(labels)
    assert clusters == frozenset({frozenset({0, 1, 2, 3}),
                                  frozenset({4, 5, 6, 7})})
    assert noise == frozenset()


def test_isolated_point_is_noise():
    points = [(0.0,), (0.1,), (0.2,), (50.0,)]
    labels = dbscan(points, eps=0.5, min_pts=2)
    assert labels[3] == NOISE
    assert labels[0] == labels[1] == labels[2] != NOISE


def test_min_pts_one_every_point_clusters():
    points = [(float(i * 10),) for i in range(5)]
    labels = dbscan(points, eps=1.0, min_pts=1)
    assert NOISE not in labels
    assert len(set(labels)) == 5


def test_all_points_identical_single_cluster():
    points = [(1.0, 2.0)] * 6
    labels = dbscan(points, eps=0.1, min_pts=3)
    assert set(labels) == {0}


def test_parameter_validation():
    with pytest.raises(ValueError):
        dbscan([(0.0,)], eps=0.0, min_pts=1)
    with pytest.raises(ValueError):
        dbscan([(0.0,)], eps=1.0, min_pts=0)


def test_empty_input():
    assert dbscan([], eps=1.0, min_pts=2) == []


points_strategy = st.lists(
    st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
    min_size=1, max_size=25,
)


@settings(max_examples=50, deadline=None)
@given(points=points_strategy,
       eps=st.floats(0.1, 5.0),
       min_pts=st.integers(1, 5),
       scale=st.floats(0.1, 10.0))
def test_uniform_scaling_preserves_partition(points, eps, min_pts, scale):
    """Scaling all coordinates and eps by the same factor changes nothing."""
    scaled = [tuple(scale * x for x in p) for p in points]
    assert partition(dbscan(points, eps, min_pts)) == \
        partition(dbscan(scaled, eps * scale, min_pts))


@settings(max_examples=50, deadline=None)
@given(points=points_strategy,
       eps=st.floats(0.1, 5.0),
       min_pts=st.integers(1, 5),
       shift=st.tuples(st.floats(-50, 50), st.floats(-50, 50)))
def test_translation_preserves_partition(points, eps, min_pts, shift):
    moved = [tuple(x + s for x, s in zip(p, shift)) for p in points]
    assert partition(dbscan(points, eps, min_pts)) == \
        partition(dbscan(moved, eps, min_pts))


@settings(max_examples=50, deadline=None)
@given(points=points_strategy, eps=st.floats(0.1, 5.0), min_pts=st.integers(1, 5))
def test_core_points_never_noise(points, eps, min_pts):
    labels = dbscan(points, eps, min_pts)

    def dist(a, b):
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))

    for i, p in enumerate(points):
        n_neighbors = sum(1 for q in points if dist(p, q) <= eps)
        if n_neighbors >= min_pts:
            assert labels[i] != NOISE
