"""Isolation forest, built from scratch.

Trees are random binary partitions; anomalous points isolate in short
paths.  Scores follow s(x, n) = 2^(-E[h(x)] / c(n)) with
c(n) = 2 H(n-1) - 2 (n-1)/n.  Harmonic numbers use exact sums for small
arguments (so c(2) = 1 exactly) and the Euler-Mascheroni approximation
H(i) = ln(i) + gamma above that, whose error is about 1/(2i).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

EULER_GAMMA = 0.5772156649
_HARMONIC_EXACT_BELOW = 10

DEFAULT_N_TREES = 100
DEFAULT_SUBSAMPLE = 64


class TooFewPoints(ValueError):
    pass


def harmonic(i: int) -> float:
    if i < _HARMONIC_EXACT_BELOW:
        return sum(1.0 / j for j in range(1, i + 1))
    return math.log(i) + EULER_GAMMA


def expected_path_length(n: int) -> float:
    """c(n): mean unsuccessful-search path length of a BST over n points."""
    if n <= 1:
        return 0.0
    return 2.0 * harmonic(n - 1) - 2.0 * (n - 1) / n


@dataclass(frozen=True)
class TreeNode:
    size: int
    split_dim: Optional[int] = None
    split_value: Optional[float] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.split_dim is None


@dataclass(frozen=True)
class ForestModel:
    trees: tuple
    n_trees: int
    subsample_size: int  # effective size used for both depth cap and scoring
    seed: int


def _build_tree(points: list, depth: int, max_depth: int, rng: random.Random) -> TreeNode:
    n = len(points)
    if n <= 1 or depth >= max_depth:
        return TreeNode(size=n)
    dims = len(points[0])
    splittable = [d for d in range(dims)
                  if min(p[d] for p in points) < max(p[d] for p in points)]
    if not splittable:
        return TreeNode(size=n)  # all points identical: no valid split range
    dim = splittable[rng.randrange(len(splittable))]
    lo = min(p[dim] for p in points)
    hi = max(p[dim] for p in points)
    value = rng.uniform(lo, hi)
    left_pts = [p for p in points if p[dim] < value]
    right_pts = [p for p in points if p[dim] >= value]
    if not left_pts or not right_pts:
        return TreeNode(size=n)  # degenerate draw at the boundary
    return TreeNode(
        size=n,
        split_dim=dim,
        split_value=value,
        left=_build_tree(left_pts, depth + 1, max_depth, rng),
        right=_build_tree(right_pts, depth + 1, max_depth, rng),
    )


def fit_isolation_forest(points: Sequence[Sequence[float]],
                         n_trees: int = DEFAULT_N_TREES,
                         subsample_size: int = DEFAULT_SUBSAMPLE,
                         seed: int = 0) -> ForestModel:
    """Fit a forest of isolation trees on without-replacement subsamples.

    Deterministic for a given (points, params, seed); subsampling,
    dimension choice, and split values all derive from one seeded stream.
    """
    pts = [tuple(float(v) for v in p) for p in points]
    if len(pts) < 2:
        raise TooFewPoints(f"need at least 2 points, got {len(pts)}")
    if subsample_size < 2 or n_trees < 1:
        raise ValueError("need subsample_size >= 2 and n_trees >= 1")

    psi = min(subsample_size, len(pts))
    max_depth = math.ceil(math.log2(psi))
    rng = random.Random(seed)
    trees = []
    for _ in range(n_trees):
        sample = rng.sample(pts, psi)
        trees.append(_build_tree(sample, 0, max_depth, rng))
    return ForestModel(trees=tuple(trees), n_trees=n_trees,
                       subsample_size=psi, seed=seed)


def _path_length(tree: TreeNode, point: Sequence[float]) -> float:
    depth = 0
    node = tree
    while not node.is_leaf:
        node = node.left if point[node.split_dim] < node.split_value else node.right
        depth += 1
    return depth + expected_path_length(node.size)


def average_path_length(model: ForestModel, point: Sequence[float]) -> float:
    return sum(_path_length(t, point) for t in model.trees) / len(model.trees)


def iforest_score(model: ForestModel, point: Sequence[float]) -> float:
    """Anomaly score in (0, 1]; 0.5 when E[h] equals c(subsample_size)."""
    e_h = average_path_length(model, point)
    c = expected_path_length(model.subsample_size)
    if c <= 0:
        return 1.0
    return 2.0 ** (-e_h / c)
