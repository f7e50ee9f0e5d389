"""Density clustering over feature space, written directly against the
classical algorithm.

A point is core iff it has >= min_pts neighbors within eps, inclusive and
counting itself.  Clusters are maximal density-connected sets.  Border
points join the first core cluster that reaches them in input order; the
classical algorithm is order-dependent for borders, so input order is the
documented tie-break.
"""

from __future__ import annotations

import math
from typing import Sequence

NOISE = -1
_UNVISITED = -2

DEFAULT_EPS = 3.5  # in feature space, i.e. baseline z-score units
DEFAULT_MIN_PTS = 4


def _distance(a: Sequence[float], b: Sequence[float]) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def dbscan(points: Sequence[Sequence[float]], eps: float = DEFAULT_EPS,
           min_pts: int = DEFAULT_MIN_PTS) -> list[int]:
    """Label each point with a cluster id (0, 1, ...) or NOISE (-1)."""
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")

    n = len(points)
    neighbors = [
        [j for j in range(n) if _distance(points[i], points[j]) <= eps]
        for i in range(n)
    ]
    labels = [_UNVISITED] * n
    cluster = 0
    for i in range(n):
        if labels[i] != _UNVISITED:
            continue
        if len(neighbors[i]) < min_pts:
            labels[i] = NOISE
            continue
        labels[i] = cluster
        queue = list(neighbors[i])
        qi = 0
        while qi < len(queue):
            j = queue[qi]
            qi += 1
            if labels[j] == NOISE:
                labels[j] = cluster  # border point reached by this cluster
            if labels[j] != _UNVISITED:
                continue
            labels[j] = cluster
            if len(neighbors[j]) >= min_pts:
                queue.extend(neighbors[j])
        cluster += 1
    return labels

