"""Daily aggregation, session pairing, AP statistics, hourly profile,
baselines, and the descriptive stage that shares them."""

from __future__ import annotations

import json
import random
import statistics
from datetime import date, datetime, timedelta, timezone
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from descriptive_oracle import naive_describe
from hypothesis import strategies as st

from wlantel import descriptive
from wlantel.descriptive import (
    DeviceDay,
    InsufficientData,
    aggregate_daily,
    ap_day_peaks,
    ap_load_stats,
    build_baseline,
    describe,
    device_overlaps,
    hourly_profile,
    observed_days,
    pair_sessions,
    slot_stats,
)
from wlantel.detection.rules import detect_duplicate_devices
from wlantel.domain import (
    AnomalyType,
    ApId,
    BASELINE_METRICS,
    DailyAggregate,
    DeviceId,
    MAX_SESSION_MINUTES,
    MIN_BASELINE_DAYS,
    Protocol,
    RecordTable,
    day_date,
    validate,
)

DAY = date(2025, 3, 3)


def dev(i: int) -> str:
    return f"{i:032x}"


def rec(kind, ts, device=0, ap="AP-101", **extra):
    return validate({"ts": ts, "device": dev(device), "ap": ap, "kind": kind,
                     **extra})


def ts(hour, minute=0, day=DAY):
    # Local wall-clock time (UTC-5) expressed in UTC.
    local = datetime(day.year, day.month, day.day, hour, minute,
                     tzinfo=timezone(timedelta(hours=-5)))
    return local.astimezone(timezone.utc).isoformat()


def session(device, ap, start_h, end_h, day=DAY):
    minutes = (end_h - start_h) * 60.0
    return [rec("assoc", ts(start_h, day=day), device, ap),
            rec("disassoc", ts(end_h, day=day), device, ap,
                session_minutes=minutes)]


def table_of(records):
    return RecordTable.from_records(records)


class SessionRow(NamedTuple):
    device: DeviceId
    ap: ApId
    start: datetime
    end: datetime
    day: date


def rows_of(sessions):
    """`pair_sessions` columns as one row per session."""
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    return [SessionRow(sessions.devices[d], sessions.aps[a], epoch + timedelta(seconds=int(s)),
                       epoch + timedelta(seconds=int(e)), day_date(day))
            for d, a, s, e, day in zip(sessions.device, sessions.ap, sessions.start,
                                       sessions.end, sessions.day)]


def sessions_of(records):
    return rows_of(pair_sessions(table_of(records)))


def peaks_of(records):
    """`ap_day_peaks` of the records' sessions as (ApId, day) -> peak."""
    sessions = pair_sessions(table_of(records))
    peaks = ap_day_peaks(sessions)
    return {(sessions.aps[a], day_date(d)): int(p)
            for a, d, p in zip(peaks.ap, peaks.day, peaks.peak)}


def described(records, **kwargs):
    """describe() over records on DAY onward, padded with one record on
    DAY + 4 so the window holds the five days a baseline needs."""
    pad = [rec("auth_fail", ts(9, day=DAY + timedelta(days=4)), 99)]
    return describe(records + pad, **kwargs)


def day_aggregate(records, day=DAY, **kwargs):
    """The aggregate describe() builds for ``day``."""
    return next(a for a in described(records, **kwargs).aggregates if a.day == day)


class TestPairSessions:
    def test_fifo_pairing_per_device_ap(self):
        records = session(1, "AP-101", 9, 10) + session(1, "AP-101", 11, 12)
        sessions = sessions_of(records)
        assert len(sessions) == 2
        assert sessions[0].end < sessions[1].start

    def test_unmatched_assoc_stays_open_to_last_ts(self):
        records = [rec("assoc", ts(9))] + session(2, "AP-102", 10, 14)
        sessions = sessions_of(records)
        open_session = next(s for s in sessions if s.device == DeviceId(dev(0)))
        assert open_session.end == max(r.ts for r in records)

    def test_unmatched_assoc_closes_after_the_longest_session(self):
        later = DAY + timedelta(days=3)
        records = [rec("assoc", ts(9))] + session(2, "AP-102", 10, 14, day=later)
        open_session = next(s for s in sessions_of(records)
                            if s.device == DeviceId(dev(0)))
        assert open_session.end - open_session.start == \
            timedelta(minutes=MAX_SESSION_MINUTES)

    def test_unmatched_disassoc_dropped(self):
        records = [rec("disassoc", ts(9), session_minutes=30.0)]
        assert sessions_of(records) == []

    def test_interleaved_devices_do_not_cross(self):
        records = session(1, "AP-101", 9, 11) + session(2, "AP-101", 10, 12)
        sessions = sessions_of(records)
        by_dev = {s.device.value: s for s in sessions}
        assert (by_dev[dev(1)].end - by_dev[dev(1)].start) == timedelta(hours=2)
        assert (by_dev[dev(2)].end - by_dev[dev(2)].start) == timedelta(hours=2)


class TestAggregateDaily:
    def test_empty_day_is_zero_aggregate(self):
        (agg,) = aggregate_daily(table_of([]), [DAY], [0], [0])
        assert agg.connections == 0
        assert agg.traffic_gb == 0.0
        assert agg.overload_pct == 0.0

    def test_counts_and_means(self):
        records = (session(1, "AP-101", 9, 10) + session(2, "AP-101", 9, 11)
                   + [rec("auth_fail", ts(9), 3)])
        agg = day_aggregate(records)
        assert agg.connections == 2
        assert agg.distinct_devices == 3
        assert agg.auth_failures == 1
        assert agg.mean_session_minutes == pytest.approx(90.0)

    def test_short_disassoc_counts_unexpected(self):
        records = [rec("disassoc", ts(9), session_minutes=0.4)]
        agg = day_aggregate(records)
        assert agg.unexpected_disconnects == 1

    def test_traffic_shares_by_bytes(self):
        records = [
            rec("traffic", ts(9), 1, bytes_up=0, bytes_down=3 * 10**9, proto="https"),
            rec("traffic", ts(10), 2, bytes_up=10**9, bytes_down=0, proto="dns"),
        ]
        agg = day_aggregate(records)
        assert agg.traffic_gb == pytest.approx(4.0)
        assert agg.proto_share[Protocol.DNS] == pytest.approx(0.25)
        assert agg.metric("proto_share_https") == pytest.approx(0.75)

    def test_overload_pct_counts_aps_over_peak_threshold(self):
        # 3 concurrent on AP-101 (> threshold 2), 1 on AP-102.
        records = []
        for d in range(3):
            records += session(d, "AP-101", 9, 12)
        records += session(7, "AP-102", 9, 10)
        agg = day_aggregate(records, overload_threshold=2)
        assert agg.aps_seen == 2
        assert agg.aps_overloaded == 1
        assert agg.overload_pct == pytest.approx(50.0)

    def test_records_of_other_days_ignored(self):
        other = DAY + timedelta(days=1)
        records = session(1, "AP-101", 9, 10) + session(2, "AP-101", 9, 10, day=other)
        agg = day_aggregate(records)
        assert agg.connections == 1

    def test_duplicate_device_detected(self):
        # Same device on two APs at once.
        records = session(5, "AP-101", 9, 11) + session(5, "AP-102", 10, 12)
        agg = day_aggregate(records)
        assert agg.duplicate_device_events == 1


class TestObservedDays:
    def test_inclusive_range_with_gaps(self):
        records = (session(1, "AP-101", 9, 10, day=DAY)
                   + session(1, "AP-101", 9, 10, day=DAY + timedelta(days=3)))
        assert observed_days(table_of(records)) == [DAY + timedelta(days=i) for i in range(4)]

    def test_empty(self):
        assert observed_days(table_of([])) == []


def ap_stats_of(records):
    table = table_of(records)
    return ap_load_stats(table, ap_day_peaks(pair_sessions(table)))


class TestApLoadStats:
    def test_sorted_by_monthly_connections_desc(self):
        records = (session(1, "AP-101", 9, 10) + session(2, "AP-102", 9, 10)
                   + session(3, "AP-102", 10, 11))
        stats = ap_stats_of(records)
        assert [s.ap.value for s in stats] == ["AP-102", "AP-101"]
        assert stats[0].monthly_connections == 2

    def test_health_means_none_without_samples(self):
        stats = ap_stats_of(session(1, "AP-101", 9, 10))
        assert stats[0].mean_latency_ms is None
        assert stats[0].mean_loss_pct is None

    def test_health_means_computed(self):
        records = [rec("ap_health", ts(9), latency_ms=30.0, loss_pct=1.0),
                   rec("ap_health", ts(10), latency_ms=50.0, loss_pct=2.0)]
        stats = ap_stats_of(records)
        assert stats[0].mean_latency_ms == pytest.approx(40.0)
        assert stats[0].mean_loss_pct == pytest.approx(1.5)


def hourly_of(records):
    table = table_of(records)
    return hourly_profile(pair_sessions(table), observed_days(table))


class TestHourlyProfile:
    def test_counts_sessions_spanning_hour_marks(self):
        profile = hourly_of(session(1, "AP-101", 9, 12))
        # Open at the 10:00 and 11:00 local marks; start at 9:00 sharp also
        # counts the 9:00 mark.
        assert profile.buckets[10] == 1.0
        assert profile.buckets[11] == 1.0
        assert profile.buckets[14] == 0.0

    def test_averaged_over_observed_days(self):
        records = (session(1, "AP-101", 9, 11, day=DAY)
                   + session(1, "AP-101", 20, 21, day=DAY + timedelta(days=1)))
        profile = hourly_of(records)
        assert profile.buckets[10] == pytest.approx(0.5)

    def test_empty_records(self):
        assert hourly_of([]).buckets == (0.0,) * 24


class TestDescribe:
    NEXT = DAY + timedelta(days=1)

    def crossing(self):
        # Device 1 holds AP-101 from 23:30 on DAY to 00:30 on DAY + 1.  On
        # DAY + 1 it also holds AP-102 00:05-00:15, and device 2 holds
        # AP-101 00:10-00:20.
        return [rec("assoc", ts(23, 30), 1),
                rec("disassoc", ts(0, 30, day=self.NEXT), 1, session_minutes=60.0),
                rec("assoc", ts(0, 5, day=self.NEXT), 1, "AP-102"),
                rec("disassoc", ts(0, 15, day=self.NEXT), 1, "AP-102",
                    session_minutes=10.0),
                rec("assoc", ts(0, 10, day=self.NEXT), 2),
                rec("disassoc", ts(0, 20, day=self.NEXT), 2, session_minutes=10.0)]

    def test_session_across_midnight_is_one_session_of_its_start_day(self):
        first, *_ = sessions_of(self.crossing())
        assert first.end - first.start == timedelta(hours=1)
        assert first.day == DAY

    def test_session_across_midnight_feeds_its_start_day_and_the_overlaps_after(self):
        # Its own start feeds DAY's AP peak.  The sessions that start while
        # it is open, and the 00:00 hour mark, fall on DAY + 1.
        assert peaks_of(self.crossing()) == {
            (ApId("AP-101"), DAY): 1, (ApId("AP-101"), self.NEXT): 2,
            (ApId("AP-102"), self.NEXT): 1}
        desc = described(self.crossing(), overload_threshold=1)
        today, tomorrow = desc.aggregates[:2]
        assert (today.duplicate_device_events, tomorrow.duplicate_device_events) == (0, 1)
        assert (today.aps_overloaded, tomorrow.aps_overloaded) == (0, 1)
        assert desc.hourly.buckets[0] == pytest.approx(1 / 5)
        assert sum(desc.hourly.buckets) == pytest.approx(1 / 5)
        assert [(s.ap.value, s.peak_concurrent, s.overloaded_days)
                for s in desc.ap_stats] == [("AP-101", 2, 1), ("AP-102", 1, 0)]
        (event,) = detect_duplicate_devices(desc.device_days)
        assert (event.type, event.day) == (AnomalyType.DUPLICATE_DEVICE, self.NEXT)

    def test_same_ap_overlap_counts_but_is_no_duplicate_device(self):
        records = session(1, "AP-101", 9, 11) + session(1, "AP-101", 10, 12)
        desc = described(records)
        assert desc.aggregates[0].duplicate_device_events == 1
        assert desc.device_days == {
            (DeviceId(dev(1)), DAY): DeviceDay(peak=2, aps=frozenset())}
        assert detect_duplicate_devices(desc.device_days) == []

    def test_device_overlaps_name_the_aps_held_at_once(self):
        records = session(1, "AP-101", 9, 11) + session(1, "AP-102", 10, 12)
        assert device_overlaps(pair_sessions(table_of(records))) == {
            (DeviceId(dev(1)), DAY): DeviceDay(
                peak=2, aps=frozenset({ApId("AP-101"), ApId("AP-102")}))}
        types = {e.type for e in detect_duplicate_devices(described(records).device_days)}
        assert types == {AnomalyType.DUPLICATE_DEVICE}


def flat_aggregate(day, connections=100):
    return DailyAggregate(day=day, connections=connections)


class TestBuildBaseline:
    def test_requires_minimum_days(self):
        aggs = [flat_aggregate(DAY + timedelta(days=i))
                for i in range(MIN_BASELINE_DAYS - 1)]
        with pytest.raises(InsufficientData):
            build_baseline(aggs)

    def test_small_slots_fall_back_to_all_days(self):
        aggs = [flat_aggregate(DAY + timedelta(days=i)) for i in range(14)]
        profile = build_baseline(aggs)
        # Two samples per weekday slot: every slot falls back.
        assert all(profile.fallback)
        assert profile.stats(0, "connections") == (100.0, 0.0)

    def test_full_slots_use_slot_statistics(self):
        # Five Mondays with varying load, enough for a dedicated slot.
        aggs = [flat_aggregate(DAY + timedelta(days=7 * i), connections=100 + i)
                for i in range(5)]
        profile = build_baseline(aggs)
        assert profile.fallback[0] is False
        mean, std = profile.stats(0, "connections")
        assert mean == pytest.approx(102.0)
        assert std > 0

    def test_permutation_invariant(self):
        aggs = [flat_aggregate(DAY + timedelta(days=i), connections=90 + i)
                for i in range(10)]
        forward = build_baseline(aggs)
        backward = build_baseline(list(reversed(aggs)))
        assert forward == backward


def varied_aggregates(n_days, seed=0):
    """``n_days`` consecutive aggregates with every baseline metric varying."""
    rng = random.Random(seed)
    aggs = []
    for i in range(n_days):
        proto_bytes = {p: rng.randint(1, 10**9) for p in Protocol}
        total = sum(proto_bytes.values())
        aggs.append(DailyAggregate(
            day=DAY + timedelta(days=i),
            connections=rng.randint(0, 5000),
            distinct_devices=rng.randint(0, 3000),
            mean_session_minutes=rng.uniform(1.0, 120.0),
            auth_failures=rng.randint(0, 400),
            unexpected_disconnects=rng.randint(0, 200),
            traffic_gb=total / 10**9,
            overload_pct=rng.uniform(0.0, 100.0),
            proto_share={p: b / total for p, b in proto_bytes.items()},
            duplicate_device_events=rng.randint(0, 30),
        ))
    return aggs


def reference_slot_stats(others, dow):
    """The slot rule written out: the other days on weekday ``dow``, or all
    other days when fewer than MIN_BASELINE_DAYS fall on it."""
    same = [a for a in others if a.day.weekday() == dow]
    days = same if len(same) >= MIN_BASELINE_DAYS else others
    return {m: (statistics.fmean([a.metric(m) for a in days]),
                statistics.stdev([a.metric(m) for a in days]))
            for m in BASELINE_METRICS}


class TestSlotStats:
    @pytest.mark.parametrize("n_days", [7, 30, 36, 60])
    def test_leave_one_out_matches_reference(self, n_days):
        aggs = varied_aggregates(n_days, seed=n_days)
        seen = set()
        for i, agg in enumerate(aggs):
            others = aggs[:i] + aggs[i + 1:]
            dow = agg.day.weekday()
            same = sum(1 for a in others if a.day.weekday() == dow)
            stats, fallback = slot_stats(others, dow)
            assert stats == reference_slot_stats(others, dow)
            assert fallback is (same < MIN_BASELINE_DAYS)
            seen.add((same, fallback))
        if n_days in (7, 30):
            assert {fallback for _, fallback in seen} == {True}
        if n_days == 36:  # one weekday has six days, the others five
            assert {(MIN_BASELINE_DAYS, False),
                    (MIN_BASELINE_DAYS - 1, True)} <= seen


@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.integers(0, 500), min_size=7, max_size=21),
       seed=st.randoms())
def test_baseline_is_order_independent(values, seed):
    aggs = [flat_aggregate(DAY + timedelta(days=i), connections=v)
            for i, v in enumerate(values)]
    shuffled = list(aggs)
    seed.shuffle(shuffled)
    assert build_baseline(aggs) == build_baseline(shuffled)



# -- the column passes against plain loops ------------------------------------

def at(day_offset, hour, minute=0, second=0, micro=0):
    """Local wall-clock time on DAY + day_offset as a UTC timestamp string
    with a fraction, which validation truncates to the second."""
    local = datetime(DAY.year, DAY.month, DAY.day, hour, minute, second, micro,
                     tzinfo=timezone(timedelta(hours=-5))) + timedelta(days=day_offset)
    return local.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ")


def raw(kind, when, device, ap="AP-101", **extra):
    return validate({"ts": when, "device": dev(device), "ap": ap, "kind": kind, **extra})


EDGE_CASES = [
    # A session crossing local midnight, and one on another AP while it is open.
    raw("assoc", at(0, 23, 30), 1),
    raw("assoc", at(1, 0, 5), 1, "AP-102"),
    raw("disassoc", at(1, 0, 15), 1, "AP-102", session_minutes=10.0),
    raw("disassoc", at(1, 0, 30), 1, session_minutes=60.0),
    # An orphan disassoc.
    raw("disassoc", at(0, 10), 2, session_minutes=0.1),
    # An assoc never closed: capped at MAX_SESSION_MINUTES, the window
    # running on for days.
    raw("assoc", at(0, 8), 3, "AP-103"),
    # A zero-length session.
    raw("assoc", at(0, 12), 4, "AP-102"),
    raw("disassoc", at(0, 12), 4, "AP-102", session_minutes=0.0),
    # A session ending at the instant another starts, on one AP and on one
    # device.
    raw("assoc", at(0, 9), 5, "AP-104"),
    raw("disassoc", at(0, 10), 5, "AP-104", session_minutes=60.0),
    raw("assoc", at(0, 10), 6, "AP-104"),
    raw("disassoc", at(0, 11), 6, "AP-104", session_minutes=60.0),
    raw("assoc", at(0, 10), 5, "AP-105"),
    raw("disassoc", at(0, 11), 5, "AP-105", session_minutes=0.7),
    # Same-second ties from truncation: an assoc then its disassoc, and a
    # disassoc read before the assoc of its second.
    raw("assoc", at(2, 13, 0, 0, 200_000), 7),
    raw("disassoc", at(2, 13, 0, 0, 700_000), 7, session_minutes=0.2),
    raw("disassoc", at(2, 14, 0, 0, 900_000), 8, session_minutes=0.3),
    raw("assoc", at(2, 14, 0, 0, 100_000), 8),
    raw("assoc", at(2, 14, 0, 0, 500_000), 9),
    raw("assoc", at(2, 14, 0, 0, 500_000), 9),
    raw("disassoc", at(2, 16), 9, session_minutes=120.0),
    # Traffic, failures and health samples, with sums that depend on order.
    raw("traffic", at(0, 9), 1, bytes_up=10**9, bytes_down=3, proto="dns"),
    raw("traffic", at(0, 9), 2, "AP-102", bytes_up=2**62, bytes_down=2**62, proto="https"),
    raw("auth_fail", at(3, 9), 3),
    raw("ap_health", at(0, 9), 0, latency_ms=0.1, loss_pct=0.7),
    raw("ap_health", at(1, 9), 0, latency_ms=0.2, loss_pct=1e-17),
    raw("ap_health", at(2, 9), 0, latency_ms=0.3, loss_pct=33.3),
    # Twenty session lengths whose float sum depends on the order of adding.
    *(raw("disassoc", at(3, 10, i), 10, session_minutes=0.1 * (i + 1) + 1 / (i + 3))
      for i in range(20)),
    # Nothing on DAY + 4: an empty day inside the window.
    raw("auth_fail", at(5, 9), 99),
]


def assert_describe_matches_oracle(records, overload_threshold):
    desc = describe(table_of(records), overload_threshold=overload_threshold)
    aggregates, ap_stats, hourly, device_days = naive_describe(records, overload_threshold)
    assert list(desc.aggregates) == aggregates
    assert list(desc.ap_stats) == ap_stats
    assert desc.hourly.buckets == hourly
    assert desc.device_days == device_days
    # Equal floats can still differ in sign or print; the JSON cannot.
    assert json.dumps([a.to_json_dict() for a in desc.aggregates]) == \
        json.dumps([a.to_json_dict() for a in aggregates])
    assert json.dumps([s.to_json_dict() for s in desc.ap_stats]) == \
        json.dumps([s.to_json_dict() for s in ap_stats])
    assert json.dumps(desc.hourly.buckets) == json.dumps(hourly)


# Before 1970 every epoch second is negative: an assoc never closed ends at
# the last event, not at the epoch.
PRE_EPOCH_CASES = [
    raw("auth_fail", "1969-12-26T12:00:00Z", 3),
    raw("assoc", "1969-12-31T00:00:00Z", 1),
    raw("assoc", "1969-12-31T00:30:00Z", 2, "AP-102"),
    raw("disassoc", "1969-12-31T00:45:00Z", 2, "AP-102", session_minutes=15.0),
    raw("auth_fail", "1969-12-31T00:50:00Z", 3),
    raw("disassoc", "1969-12-31T01:00:00Z", 4, session_minutes=1.0),
]


@pytest.mark.parametrize("cases", [EDGE_CASES, PRE_EPOCH_CASES], ids=["2025", "pre_epoch"])
@pytest.mark.parametrize("overload_threshold", [0, 1, 2, 50])
def test_describe_matches_plain_loops_on_edge_cases(cases, overload_threshold):
    assert_describe_matches_oracle(cases, overload_threshold)
    assert_describe_matches_oracle(cases[::-1], overload_threshold)


@st.composite
def random_records(draw):
    """A few devices and APs over six days, every kind, times on a coarse
    grid so that instants and seconds tie often."""
    records = [raw("auth_fail", at(0, 0), 0), raw("auth_fail", at(5, 23, 59), 0)]
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["assoc", "assoc", "disassoc", "disassoc", "traffic",
                                     "auth_fail", "ap_health"]))
        when = at(draw(st.integers(0, 5)), draw(st.integers(0, 23)),
                  draw(st.sampled_from([0, 30])), 0, draw(st.sampled_from([0, 999_999])))
        extra = {"disassoc": {"session_minutes": draw(st.floats(0, 1440))},
                 "traffic": {"bytes_up": draw(st.integers(0, 10**12)),
                             "bytes_down": draw(st.integers(0, 10**12)),
                             "proto": draw(st.sampled_from([p.value for p in Protocol]))},
                 "ap_health": {"latency_ms": draw(st.floats(0, 1e3)),
                               "loss_pct": draw(st.floats(0, 100))}}.get(kind, {})
        records.append(raw(kind, when, draw(st.integers(1, 3)),
                           draw(st.sampled_from(["AP-101", "AP-102", "AP-7"])), **extra))
    return records


@settings(max_examples=150, deadline=None)
@given(records=random_records(), overload_threshold=st.integers(0, 3))
def test_describe_matches_plain_loops_on_random_records(records, overload_threshold):
    assert_describe_matches_oracle(records, overload_threshold)
