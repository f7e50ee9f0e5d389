"""Density clustering over feature space, written directly against the
classical algorithm.

A point is core iff it has >= min_pts neighbors within eps, inclusive and
counting itself.  Clusters are maximal density-connected sets.  Border
points join the first core cluster that reaches them in input order; the
classical algorithm is order-dependent for borders, so input order is the
documented tie-break.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

NOISE = -1
_UNVISITED = -2

DEFAULT_EPS = 3.5  # in feature space, i.e. baseline z-score units
DEFAULT_MIN_PTS = 4


def dbscan(points: Sequence[Sequence[float]], eps: float = DEFAULT_EPS,
           min_pts: int = DEFAULT_MIN_PTS) -> list[int]:
    """Label each point with a cluster id (0, 1, ...) or NOISE (-1)."""
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")

    n = len(points)
    coords = np.array(points, dtype=float)
    neighbors = []
    for i in range(n):
        # Euclidean distance to every point, one row at a time so memory
        # stays O(n): squared differences summed in feature order.
        diff = coords - coords[i]
        d2 = np.zeros(n)
        for k in range(diff.shape[1]):
            d2 += diff[:, k] * diff[:, k]
        neighbors.append(np.flatnonzero(np.sqrt(d2) <= eps).tolist())
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

