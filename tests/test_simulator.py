"""Synthetic month generator: determinism, record well-formedness,
and injection accounting."""

from __future__ import annotations

import json
from collections import Counter
from datetime import date, datetime, timedelta

import pytest

from wlantel.domain import LOCAL_TZ, MAC_RE, AnomalyType, InputError, validate
from wlantel.simulator import (
    GroundTruth,
    Injection,
    InvalidConfig,
    SimConfig,
    generate_month,
)

SMALL = SimConfig(days=8, weekday_users=400.0, weekend_users=250.0,
                  device_pool=1500, ap_count=20, auth_fail_mean=25.0)


@pytest.fixture(scope="module")
def small_month():
    return generate_month(SMALL, seed=3)


class TestConfig:
    def test_rejects_short_month(self):
        with pytest.raises(InvalidConfig):
            SimConfig(days=5)

    def test_rejects_bad_proto_mix(self):
        with pytest.raises(InvalidConfig):
            SimConfig(proto_mix={"https": 0.5, "dns": 0.4})

    def test_rejects_too_few_aps(self):
        with pytest.raises(InvalidConfig):
            SimConfig(ap_count=3)

    def test_overrides_coerce_types(self):
        config = SimConfig().with_overrides({
            "days": "14", "weekday_users": "5000", "inject": "false",
            "start_day": "2025-06-02",
        })
        assert config.days == 14
        assert config.weekday_users == 5000.0
        assert config.inject is False
        assert config.start_day == date(2025, 6, 2)

    def test_overrides_reject_unknown_key(self):
        with pytest.raises(InvalidConfig):
            SimConfig().with_overrides({"typo": "1"})

    @pytest.mark.parametrize("key, value", [
        ("days", "abc"), ("weekday_users", "many"), ("start_day", "soon"),
        ("proto_mix", "dns"), ("weekday_users", "nan"), ("device_pool", "0"),
        ("day_noise_sigma", "-1"),
    ])
    def test_overrides_reject_bad_values(self, key, value):
        with pytest.raises(InvalidConfig):
            SimConfig().with_overrides({key: value})

    @pytest.mark.parametrize("start_day, days", [
        (date(9999, 12, 25), 30), (date(9999, 12, 23), 7), (date(2025, 3, 3), 10**9)])
    def test_rejects_window_past_the_calendar(self, start_day, days):
        with pytest.raises(InvalidConfig):
            SimConfig(start_day=start_day, days=days)

    def test_window_ending_at_the_last_accepted_timestamp_allowed(self):
        assert SimConfig(start_day=date(9999, 12, 22), days=7).days == 7


class TestGenerateMonth:
    def test_deterministic_for_same_seed(self, small_month):
        again = generate_month(SMALL, seed=3)
        assert again[0] == small_month[0]
        assert again[1] == small_month[1]

    def test_different_seeds_differ(self, small_month):
        other, _ = generate_month(SMALL, seed=4)
        assert other != small_month[0]

    def test_records_sorted_by_timestamp(self, small_month):
        records, _ = small_month
        timestamps = [r["ts"] for r in records]
        assert timestamps == sorted(timestamps)

    def test_all_devices_are_raw_macs(self, small_month):
        records, _ = small_month
        assert all(MAC_RE.match(r["device"]) for r in records)

    def test_every_record_validates_after_anonymization(self, small_month):
        records, _ = small_month
        for r in records:
            validate(dict(r, device="0" * 32))

    def test_sessions_never_cross_local_midnight(self, small_month):
        records, _ = small_month
        open_day = {}
        for r in records:
            if r["kind"] not in ("assoc", "disassoc"):
                continue
            local = datetime.fromisoformat(
                r["ts"].replace("Z", "+00:00")).astimezone(LOCAL_TZ)
            key = (r["device"], r["ap"])
            if r["kind"] == "assoc":
                open_day.setdefault(key, []).append(local.date())
            elif open_day.get(key):
                assert open_day[key].pop(0) == local.date()

    def test_covers_requested_day_span(self, small_month):
        records, _ = small_month
        days = {datetime.fromisoformat(r["ts"].replace("Z", "+00:00"))
                .astimezone(LOCAL_TZ).date() for r in records}
        want = {SMALL.start_day + timedelta(days=i) for i in range(SMALL.days)}
        assert days == want

    def test_ground_truth_days_inside_month(self, small_month):
        _, truth = small_month
        for inj in truth.injections:
            assert SMALL.start_day <= inj.day \
                < SMALL.start_day + timedelta(days=SMALL.days)

    def test_injected_types_from_taxonomy(self, small_month):
        _, truth = small_month
        allowed = {AnomalyType.AUTH_BURST, AnomalyType.DNS_ANOMALY,
                   AnomalyType.DUPLICATE_DEVICE, AnomalyType.TRAFFIC_SPIKE,
                   AnomalyType.SIMULTANEOUS_CONNECTIONS}
        assert {inj.type for inj in truth.injections} <= allowed

    def test_daily_injections_within_configured_bounds(self):
        from dataclasses import replace
        config = replace(SMALL, days=10)
        _, truth = generate_month(config, seed=5)
        per_day = Counter(inj.day for inj in truth.injections)
        for day in per_day:
            assert config.min_daily_injections <= per_day[day] \
                <= config.max_daily_injections

    def test_no_inject_yields_empty_ground_truth(self):
        from dataclasses import replace
        records, truth = generate_month(replace(SMALL, inject=False), seed=3)
        assert truth.injections == ()
        # Without injections no device may hold overlapping sessions.
        assert not any(r["device"].startswith("06:") for r in records)

    def test_weekdays_busier_than_weekends(self, small_month):
        records, _ = small_month
        by_day = Counter()
        for r in records:
            if r["kind"] == "assoc":
                local = datetime.fromisoformat(
                    r["ts"].replace("Z", "+00:00")).astimezone(LOCAL_TZ)
                by_day[local.date()] += 1
        weekday = [c for d, c in by_day.items() if d.weekday() < 5]
        weekend = [c for d, c in by_day.items() if d.weekday() >= 5]
        assert min(weekday) > max(weekend)


class TestGroundTruthSerialization:
    def test_round_trip(self, small_month):
        _, truth = small_month
        blob = json.dumps(truth.to_json_dict())
        assert GroundTruth.from_json_dict(json.loads(blob)) == truth

    def test_injection_round_trip(self):
        inj = Injection(day=date(2025, 3, 10), type=AnomalyType.AUTH_BURST,
                        devices=("aa:bb:cc:dd:ee:ff",), aps=("AP-101",),
                        magnitude=200.0)
        assert Injection.from_json_dict(inj.to_json_dict()) == inj

    @pytest.mark.parametrize("payload", [
        {}, [], {"injections": [{"day": "nope", "type": "auth_burst"}]},
        {"injections": [{"day": "2025-03-10"}]},
    ])
    def test_bad_labels_are_input_errors(self, payload):
        with pytest.raises(InputError):
            GroundTruth.from_json_dict(payload)
