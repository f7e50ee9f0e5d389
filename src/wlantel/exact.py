"""Exact sums of floats, and the mean and sample standard deviation they
give, each rounded once to a float.

A float is a dyadic rational, so a list of them becomes Python ints over
one common power-of-two denominator (`scaled`), whose sums and sums of
squares are exact.  A sliding window or a left-out value is then one
addition or subtraction of ints, with no rounding error carried along.
`mean_std` rounds at the end: the mean is exactly ``math.fsum(values) /
n``, as `statistics.fmean` computes it, and the std is the correctly
rounded square root of the exact sample variance, as `statistics.stdev`
computes it since Python 3.11.  The results are the same bits on every
interpreter.  This module imports nothing beyond the standard library.
"""

from __future__ import annotations

import math
from typing import Sequence


def scaled(values: Sequence[float]) -> tuple[list[int], int]:
    """``values`` as ints over one power-of-two denominator ``den``:
    ``values[i] == ints[i] / den`` exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max((d for _, d in ratios), default=1)
    return [n * (den // d) for n, d in ratios], den


def mean_std(n: int, total: int, squares: int, den: int) -> tuple[float, float]:
    """Mean and sample std of ``n`` values that are ints over ``den`` (see
    `scaled`), from the ints' sum ``total`` and sum of squares ``squares``;
    the std of one value is 0.0."""
    mean = total / den / n  # int / int is correctly rounded: fsum's float
    if n < 2:
        return mean, 0.0
    # sum((x - mean)**2) / (n - 1) with x = int / den, exactly.
    return mean, _sqrt(n * squares - total * total, den * den * n * (n - 1))


def _sqrt(num: int, den: int) -> float:
    """The correctly rounded square root of num / den, num >= 0 < den."""
    # Scale by 4**k so that the integer root has at least 55 bits, and round
    # it to odd (set its last bit when inexact): the one rounding to 53 bits
    # that follows is then the correct one.
    k = (112 - num.bit_length() + den.bit_length()) // 2
    if k >= 0:
        num <<= 2 * k
    else:
        den <<= -2 * k
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return root / (1 << k) if k >= 0 else float(root << -k)
