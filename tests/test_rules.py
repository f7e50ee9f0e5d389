"""Device-level rule detectors, protocol-share tests, severity
classification, and feature vectors."""

from __future__ import annotations

from datetime import date, datetime, timedelta, timezone

import pytest

from wlantel.descriptive import device_overlaps, group_by_day, pair_sessions
from wlantel.detection.classify import classify
from wlantel.detection.features import FEATURE_METRICS, build_features
from wlantel.detection.rules import (
    detect_duplicate_devices,
    protocol_anomaly,
)
from wlantel.domain import (
    AnomalyEvent,
    AnomalyType,
    BaselineProfile,
    DailyAggregate,
    Detector,
    Protocol,
    Severity,
    validate,
)

DAY = date(2025, 3, 3)


def dev(i: int) -> str:
    return f"{i:032x}"


def ts(hour, minute=0, day=DAY):
    local = datetime(day.year, day.month, day.day, hour, minute,
                     tzinfo=timezone(timedelta(hours=-5)))
    return local.astimezone(timezone.utc).isoformat()


def session(device, ap, start_h, end_h, day=DAY):
    return [
        validate({"ts": ts(start_h, day=day), "device": dev(device), "ap": ap,
                  "kind": "assoc"}),
        validate({"ts": ts(end_h, day=day), "device": dev(device), "ap": ap,
                  "kind": "disassoc",
                  "session_minutes": (end_h - start_h) * 60.0}),
    ]


def detect(records, **kwargs):
    sessions = pair_sessions(group_by_day(records))
    return detect_duplicate_devices(device_overlaps(sessions), **kwargs)


class TestDuplicateDeviceRules:
    def test_no_overlap_no_events(self):
        records = session(1, "AP-101", 9, 10) + session(1, "AP-101", 11, 12)
        assert detect(records) == []

    def test_two_aps_at_once_is_duplicate(self):
        records = session(1, "AP-101", 9, 11) + session(1, "AP-102", 10, 12)
        events = detect(records)
        assert [e.type for e in events] == [AnomalyType.DUPLICATE_DEVICE]
        assert events[0].device == dev(1)
        assert events[0].day == DAY
        assert sorted(events[0].evidence["aps"]) == ["AP-101", "AP-102"]

    def test_same_ap_overlap_is_not_duplicate(self):
        records = session(1, "AP-101", 9, 11) + session(1, "AP-101", 10, 12)
        events = detect(records, max_concurrent=3)
        assert events == []

    def test_concurrency_over_limit_is_simultaneous(self):
        records = []
        for i in range(4):  # 4 overlapping sessions, limit 3
            records += session(1, "AP-101", 9, 13)
        events = detect(records, max_concurrent=3)
        assert [e.type for e in events] == [AnomalyType.SIMULTANEOUS_CONNECTIONS]
        assert events[0].score == 4.0

    def test_three_overlapping_with_limit_two(self):
        records = []
        for i in range(3):
            records += session(1, "AP-101", 9, 12)
        events = detect(records, max_concurrent=2)
        assert [e.type for e in events] == [AnomalyType.SIMULTANEOUS_CONNECTIONS]

    def test_one_event_per_device_day_type(self):
        # Two separate duplicate episodes on the same day collapse into one
        # event.
        records = (session(1, "AP-101", 8, 10) + session(1, "AP-102", 9, 11)
                   + session(1, "AP-103", 14, 16) + session(1, "AP-104", 15, 17))
        events = detect(records)
        assert len(events) == 1
        assert sorted(events[0].evidence["aps"]) == [
            "AP-101", "AP-102", "AP-103", "AP-104"]

    def test_distinct_devices_do_not_interact(self):
        records = session(1, "AP-101", 9, 11) + session(2, "AP-102", 9, 11)
        assert detect(records) == []

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            detect_duplicate_devices({}, max_concurrent=0)


def baseline_with(dns=(0.05, 0.01), https=(0.62, 0.01)):
    metrics = {
        "proto_share_dns": dns,
        "proto_share_https": https,
        "proto_share_http": (0.08, 0.01),
        "proto_share_udp": (0.15, 0.01),
        "proto_share_other": (0.10, 0.01),
    }
    return BaselineProfile(slots=tuple(dict(metrics) for _ in range(7)),
                           fallback=(False,) * 7, window_days=30,
                           built_from=(DAY, DAY + timedelta(days=29)))


def day_aggregate(shares, traffic_gb=100.0):
    return DailyAggregate(day=DAY, traffic_gb=traffic_gb,
                          proto_share={Protocol(p): s for p, s in shares.items()})


class TestProtocolAnomaly:
    NORMAL = {"https": 0.62, "http": 0.08, "dns": 0.05, "udp": 0.15,
              "other": 0.10}

    def test_shares_at_baseline_mean_no_events(self):
        assert protocol_anomaly(day_aggregate(self.NORMAL), baseline_with()) == []

    def test_dns_deviation_maps_to_dns_anomaly(self):
        # Published example: baseline 0.05 +/- 0.01, observed 0.25 -> z = 20.
        shares = dict(self.NORMAL, dns=0.25, https=0.42)
        events = protocol_anomaly(day_aggregate(shares), baseline_with())
        dns_events = [e for e in events if e.type is AnomalyType.DNS_ANOMALY]
        assert len(dns_events) == 1
        assert dns_events[0].score == pytest.approx(20.0)
        assert dns_events[0].evidence["proto"] == "dns"

    def test_non_dns_deviation_maps_to_traffic_spike(self):
        shares = dict(self.NORMAL, udp=0.45, https=0.32)
        events = protocol_anomaly(day_aggregate(shares), baseline_with())
        assert {e.type for e in events} == {AnomalyType.TRAFFIC_SPIKE}

    def test_zero_traffic_day_skipped(self):
        agg = DailyAggregate(day=DAY, traffic_gb=0.0)
        assert protocol_anomaly(agg, baseline_with()) == []


def event(detector, score, etype=AnomalyType.AUTH_BURST, device=None, day=DAY):
    return AnomalyEvent(day=day, type=etype, detector=detector, score=score,
                        device=device)


class TestClassify:
    def test_threshold_bands(self):
        k = 3.0
        cases = [(3.5, Severity.LOW), (6.0, Severity.LOW),
                 (6.1, Severity.MEDIUM), (12.0, Severity.MEDIUM),
                 (12.1, Severity.HIGH)]
        for score, want in cases:
            out = classify([event(Detector.THRESHOLD, score)], k=k)
            assert out[0].severity is want, score

    def test_threshold_below_k_dropped(self):
        assert classify([event(Detector.THRESHOLD, 2.9)], k=3.0) == []

    def test_iforest_bands_and_floor(self):
        assert classify([event(Detector.ISOLATION_FOREST, 0.60)]) == []
        assert classify([event(Detector.ISOLATION_FOREST, 0.65)])[0].severity \
            is Severity.LOW
        assert classify([event(Detector.ISOLATION_FOREST, 0.75)])[0].severity \
            is Severity.MEDIUM
        assert classify([event(Detector.ISOLATION_FOREST, 0.85)])[0].severity \
            is Severity.HIGH

    def test_dbscan_noise_is_medium(self):
        out = classify([event(Detector.DBSCAN, 1.0)])
        assert out[0].severity is Severity.MEDIUM

    def test_rule_default_medium(self):
        out = classify([event(Detector.RULE, 2.0, device=dev(1))])
        assert out[0].severity is Severity.MEDIUM

    def test_recurrent_device_escalates_to_high(self):
        events = [event(Detector.RULE, 2.0, device=dev(1),
                        day=DAY + timedelta(days=i)) for i in range(3)]
        out = classify(events)
        assert all(e.severity is Severity.HIGH for e in out)

    def test_two_days_do_not_escalate(self):
        events = [event(Detector.RULE, 2.0, device=dev(1),
                        day=DAY + timedelta(days=i)) for i in range(2)]
        out = classify(events)
        assert all(e.severity is Severity.MEDIUM for e in out)


class TestFeatures:
    def test_feature_order_and_zscores(self):
        metrics = {m: (10.0, 2.0) for m in
                   ("connections", "mean_session_minutes", "auth_failures",
                    "traffic_gb", "overload_pct", "proto_share_dns",
                    "duplicate_device_events")}
        baseline = BaselineProfile(slots=tuple(dict(metrics) for _ in range(7)),
                                   fallback=(False,) * 7, window_days=30,
                                   built_from=(DAY, DAY + timedelta(days=29)))
        agg = DailyAggregate(day=DAY, connections=14)
        (fv,) = build_features([agg], baseline)
        assert fv.day == DAY
        assert len(fv.values) == len(FEATURE_METRICS)
        assert fv.values[FEATURE_METRICS.index("connections")] == pytest.approx(2.0)

    def test_zero_std_uses_floor_not_crash(self):
        metrics = {m: (0.0, 0.0) for m in FEATURE_METRICS}
        baseline = BaselineProfile(slots=tuple(dict(metrics) for _ in range(7)),
                                   fallback=(False,) * 7, window_days=30,
                                   built_from=(DAY, DAY + timedelta(days=29)))
        agg = DailyAggregate(day=DAY, connections=1)
        (fv,) = build_features([agg], baseline)
        assert fv.values[0] > 0  # huge but finite z-score
