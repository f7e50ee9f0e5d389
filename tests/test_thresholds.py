"""Rolling mean +/- k*sigma alerting."""

from __future__ import annotations

import statistics
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlantel.detection.thresholds import dynamic_threshold_alerts
from wlantel.domain import AnomalyType, Detector

DAY0 = date(2025, 3, 3)


def series(values):
    return [(DAY0 + timedelta(days=i), float(v)) for i, v in enumerate(values)]


def alerts(values, window=7, k=3.0):
    return dynamic_threshold_alerts(series(values), AnomalyType.AUTH_BURST,
                                    window=window, k=k, metric="auth_failures")


class TestAlerting:
    def test_flat_series_no_alerts(self):
        assert alerts([100] * 20) == []

    def test_single_spike_alerts_on_its_day(self):
        values = [100, 101, 99, 100, 102, 98, 100, 100, 500, 100]
        events = alerts(values)
        assert [e.day for e in events] == [DAY0 + timedelta(days=8)]
        assert events[0].type is AnomalyType.AUTH_BURST
        assert events[0].detector is Detector.THRESHOLD

    def test_score_is_deviation_over_sigma(self):
        values = [100, 101, 99, 100, 102, 98, 100, 500]
        window_vals = [float(v) for v in values[:7]]
        mu = statistics.fmean(window_vals)
        sigma = statistics.stdev(window_vals)
        events = alerts(values)
        assert len(events) == 1
        assert events[0].score == pytest.approx(abs(500 - mu) / sigma)

    def test_no_alert_within_k_sigma(self):
        values = [90, 110, 100, 95, 105, 100, 100, 104]
        window_vals = [float(v) for v in values[:7]]
        mu = statistics.fmean(window_vals)
        sigma = statistics.stdev(window_vals)
        assert abs(values[7] - mu) <= 3 * sigma  # sanity: inside the band
        assert alerts(values) == []

    def test_drop_alerts_too(self):
        values = [100, 101, 99, 100, 102, 98, 100, 2]
        assert len(alerts(values)) == 1

    def test_constant_window_any_departure_alerts(self):
        values = [100] * 7 + [101]
        events = alerts(values)
        assert len(events) == 1
        assert events[0].score > 0

    def test_warmup_days_never_alert(self):
        values = [10**6] + [100] * 10
        events = alerts(values)
        # The wild first value sits inside the warm-up, not after it.
        assert all(e.day >= DAY0 + timedelta(days=7) for e in events)

    def test_window_slides(self):
        # After the spike leaves the window the series must settle again.
        values = [100] * 7 + [500] + [100] * 10
        events = alerts(values)
        assert [e.day for e in events] == [DAY0 + timedelta(days=7)]

    def test_evidence_records_the_window_statistics(self):
        values = [100, 101, 99, 100, 102, 98, 100, 500]
        e = alerts(values)[0]
        assert e.evidence["metric"] == "auth_failures"
        assert e.evidence["window"] == 7
        assert e.evidence["value"] == 500.0


class TestValidation:
    def test_series_must_exceed_window(self):
        assert alerts([100] * 7) == []

    def test_window_minimum(self):
        with pytest.raises(ValueError):
            alerts([100] * 20, window=4)

    def test_k_positive(self):
        with pytest.raises(ValueError):
            alerts([100] * 20, k=0.0)


values_strategy = st.lists(st.integers(-1000, 1000), min_size=9, max_size=40)


@settings(max_examples=60, deadline=None)
@given(values=values_strategy, shift=st.integers(-10_000, 10_000))
def test_translation_invariance(values, shift):
    """Adding a constant to every point leaves alert days and scores fixed."""
    base = alerts(values)
    moved = alerts([v + shift for v in values])
    assert [(e.day, pytest.approx(e.score)) for e in base] == \
        [(e.day, e.score) for e in moved]


@settings(max_examples=60, deadline=None)
@given(values=values_strategy, exponent=st.integers(1, 6))
def test_positive_scaling_preserves_alert_days(values, exponent):
    # Power-of-two factors scale every float exactly, so the alert set must
    # match bit-for-bit.
    factor = 2 ** exponent
    base = {e.day for e in alerts(values)}
    scaled = {e.day for e in alerts([v * factor for v in values])}
    assert base == scaled


@settings(max_examples=60, deadline=None)
@given(values=values_strategy)
def test_alerts_only_after_warmup_and_scores_positive(values):
    for e in alerts(values):
        assert e.day >= DAY0 + timedelta(days=7)
        assert e.score > 0
