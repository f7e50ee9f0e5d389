"""The exact-sum mean and sample std against `statistics`, and pinned bits
that hold on any interpreter."""

from __future__ import annotations

import math
import statistics
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlantel.exact import mean_std, scaled


def exact_mean_std(values):
    ints, den = scaled(values)
    return mean_std(len(values), sum(ints), sum(x * x for x in ints), den)


# (values, mean, std) as float.hex: statistics.fmean and statistics.stdev
# on Python 3.11+, where stdev is correctly rounded.
PINNED = [
    ([1.0], "0x1.0000000000000p+0", "0x0.0p+0"),
    ([0.0, 0.0, 0.0], "0x0.0p+0", "0x0.0p+0"),
    ([1.0, 2.0, 3.0, 4.0], "0x1.4000000000000p+1", "0x1.4a7e9cb8a3491p+0"),
    ([0.1, 0.2, 0.3], "0x1.9999999999999p-3", "0x1.9999999999999p-4"),
    ([0.1] * 7, "0x1.999999999999ap-4", "0x0.0p+0"),
    ([1e-300, 1.0, 1e300], "0x1.fdafb60009cd0p+994", "0x1.b966be8dc6acbp+995"),
    ([3.0, 3.0, 3.0, 3.0000000000000004], "0x1.8000000000000p+1", "0x1.0000000000000p-52"),
    ([0.25, 0.0, 0.125, 0.5, 0.0625, 0.0], "0x1.4000000000000p-3", "0x1.8a85c24f70659p-3"),
    ([123456789.0, 123456789.5, 123456790.25, 0.001],
     "0x1.6136740c04189p+26", "0x1.d6f3456544f31p+25"),
    ([-2.5, 7.0, 1e-09, 40000000000.0, -3e-05], "0x1.dcd65000e6660p+32", "0x1.0a8f6112dfb17p+34"),
    ([0.30000000000000004, 0.1, 0.7, 0.2, 0.9, 0.6, 0.4],
     "0x1.d41d41d41d41ep-2", "0x1.26c1ee973bbd5p-2"),
]


@pytest.mark.parametrize("values, mean, std", PINNED)
def test_pinned_bits(values, mean, std):
    got = exact_mean_std(values)
    assert (got[0].hex(), got[1].hex()) == (mean, std)


def test_scaled_is_exact():
    ints, den = scaled([0.1, 3.0, 2.0 ** -40, 0.0])
    assert den == 2 ** 55  # 0.1 is 3602879701896397 / 2**55
    assert [x / den for x in ints] == [0.1, 3.0, 2.0 ** -40, 0.0]
    assert scaled([]) == ([], 1)


def test_left_out_value_matches_the_sums_without_it():
    values = [0.1, 0.7, 1e-12, 5.0, 0.3, 2.5]
    ints, den = scaled(values)
    total, squares = sum(ints), sum(x * x for x in ints)
    for i, x in enumerate(ints):
        others = values[:i] + values[i + 1:]
        got = mean_std(len(others), total - x, squares - x * x, den)
        assert got == exact_mean_std(others)


# Floats of mixed binary exponents, drawn into a small pool so that lists
# repeat values; zeros come both from the pool and as their own draws.
_mixed = st.one_of(
    st.just(0.0),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-80, 80)),
    st.floats(-1e6, 1e6),
)
_lists = st.lists(_mixed, min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=60))


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="statistics.stdev is correctly rounded from Python 3.11 on")
@settings(max_examples=300, deadline=None)
@given(values=_lists)
def test_matches_statistics_fmean_and_stdev(values):
    mean, std = exact_mean_std(values)
    want_std = statistics.stdev(values) if len(values) > 1 else 0.0
    assert mean.hex() == statistics.fmean(values).hex()
    assert std.hex() == want_std.hex()
