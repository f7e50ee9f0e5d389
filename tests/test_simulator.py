"""Synthetic month generator: determinism, record well-formedness,
injection accounting, and the written bytes."""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from datetime import date, datetime, time, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlantel.cli import main
from wlantel.domain import LOCAL_TZ, MAC_RE, AnomalyType, InputError, format_ts, validate
from wlantel.simulator import (
    _KINDS,
    GroundTruth,
    Injection,
    InvalidConfig,
    SimConfig,
    _anomaly_mac,
    _ap_names,
    _DayWriter,
    _device_mac,
    _line_order,
    _micros,
    _traffic_bytes,
    _ts_text,
    generate_month,
)

SMALL = SimConfig(days=8, weekday_users=400.0, weekend_users=250.0,
                  device_pool=1500, ap_count=20, auth_fail_mean=25.0)


def records_of(trace: str) -> list[dict]:
    return [json.loads(line) for line in trace.splitlines()]


@pytest.fixture(scope="module")
def small_month():
    return generate_month(SMALL, seed=3)


@pytest.fixture(scope="module")
def small_records(small_month):
    return records_of(small_month[0])


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

    def test_records_sorted_by_timestamp(self, small_records):
        timestamps = [r["ts"] for r in small_records]
        assert timestamps == sorted(timestamps)
        keys = [(r["ts"], r["ap"], r["device"], r["kind"]) for r in small_records]
        assert keys == sorted(keys)

    def test_lines_are_compact_json(self, small_month):
        for line in small_month[0].splitlines():
            assert line == json.dumps(json.loads(line), separators=(",", ":"))

    def test_all_devices_are_raw_macs(self, small_records):
        assert all(MAC_RE.match(r["device"]) for r in small_records)

    def test_every_record_validates_after_anonymization(self, small_records):
        for r in small_records:
            validate(dict(r, device="0" * 32))

    def test_sessions_never_cross_local_midnight(self, small_records):
        records = small_records
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

    def test_covers_requested_day_span(self, small_records):
        days = {datetime.fromisoformat(r["ts"].replace("Z", "+00:00"))
                .astimezone(LOCAL_TZ).date() for r in small_records}
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
        trace, truth = generate_month(replace(SMALL, inject=False), seed=3)
        assert truth.injections == ()
        # Without injections no device may hold overlapping sessions.
        assert not any(r["device"].startswith("06:") for r in records_of(trace))

    def test_weekdays_busier_than_weekends(self, small_records):
        by_day = Counter()
        for r in small_records:
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


# SHA-256 of the trace and of the labels that `wlantel simulate` writes, for
# the golden run's config (test_pipeline.GOLDEN_CONFIG), a 36-day sparse
# config and one without injections.  Any change to them is a trace change
# that CHANGES.md must explain.
GOLDEN_SIMULATE = {
    "golden_14_days": (
        ["--seed", "3", "--days", "14", "--set", "weekday_users=300",
         "--set", "weekend_users=200", "--set", "device_pool=600"],
        "b87917f6da7598e1951745e18ac9a9d8aa1f2b6baa9e18351643cea9c6a43f8c",
        "11a5a14e21f3ed4ccccd1ee1c9b2efb5d362b0f371146c07e25df1f69787f6af"),
    "sparse_36_days": (
        ["--seed", "5", "--days", "36", "--set", "weekday_users=64",
         "--set", "weekend_users=44", "--set", "device_pool=120"],
        "a47fd3c8f39fed678e361a36eff5a2ad777d56b71adc726e2d18e23c82f5a6eb",
        "00a5548c444d09b2f19307cbce50ade08533b9a8b51d91f1b73ba360ce776cb0"),
    "no_injections": (
        ["--seed", "3", "--days", "8", "--set", "weekday_users=400",
         "--set", "weekend_users=250", "--set", "device_pool=1500", "--set", "ap_count=20",
         "--set", "auth_fail_mean=25", "--set", "inject=false"],
        "bfcc76a51ce663f03949cbc4758cb01cbda4c0fb6f80a83ecb536ad3dc0927f0",
        "67c4b7e308212d5560a89f7a92c8f4cf763903ca0cb01a2fed3a9571992aa297"),
}


@pytest.mark.parametrize("args, trace_digest, labels_digest", GOLDEN_SIMULATE.values(),
                         ids=GOLDEN_SIMULATE)
def test_simulate_writes_golden_bytes(tmp_path, args, trace_digest, labels_digest):
    trace, labels = tmp_path / "trace.jsonl", tmp_path / "labels.json"
    assert main(["--quiet", "simulate", "--out", str(trace), "--labels", str(labels),
                 *args]) == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == trace_digest
    assert hashlib.sha256(labels.read_bytes()).hexdigest() == labels_digest


# Oracles: how the simulator made a line's timestamp and ordered its lines
# when each line was a dict.  The columnar formatter and sort keys must agree
# with them exactly.
def oracle_ts_string(day: date, seconds: float) -> str:
    local = datetime.combine(day, time(0, 0), LOCAL_TZ) + timedelta(seconds=float(seconds))
    return format_ts(local)


def oracle_order(keys: list[tuple]) -> list[int]:
    """The stable sort of the lines by their (ts, ap, device, kind) strings."""
    return sorted(range(len(keys)), key=keys.__getitem__)


SECONDS = st.one_of(
    st.floats(0.0, 86399.0),
    st.integers(0, 86399).map(float),                                    # whole seconds
    st.builds(lambda s, q: s + q / 128, st.integers(0, 86398),           # x.5 microseconds
              st.integers(0, 63).map(lambda i: 2 * i + 1)),
    st.builds(lambda s, m: s + (m + 0.5) / 1e6, st.integers(0, 86398),  # near x.5
              st.integers(0, 999_999)),
    st.builds(lambda s, k: s + 1 - k * 1e-7, st.integers(0, 86398),      # carries
              st.integers(1, 9)),
    st.sampled_from([86395.0, 86399.0]),                                 # midnight clips
)


@settings(max_examples=300, deadline=None)
@given(day=st.dates(min_value=date(1, 1, 1), max_value=date(9999, 12, 30)),
       seconds=st.lists(SECONDS, min_size=1, max_size=30))
def test_timestamps_match_the_datetime_oracle(day, seconds):
    text = _ts_text(day, _micros(np.array(seconds)))
    assert [t + "Z" for t in text] == [oracle_ts_string(day, s) for s in seconds]


# Few distinct seconds, APs and devices, so that whole-second and fractional
# lines of one second, and ties on every key, are common.
TIED_SECONDS = st.builds(lambda s, f: s + f, st.integers(43200, 43202),
                         st.sampled_from([0.0, 1e-6, 0.25, 0.5, 0.9999994, 0.9999996]))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), ap_count=st.integers(10, 120))
def test_line_order_matches_the_string_sort(data, ap_count):
    day = date(2025, 3, 3)
    lines = data.draw(st.lists(st.tuples(
        st.one_of(TIED_SECONDS, SECONDS),
        st.one_of(st.integers(0, 1), st.integers(0, ap_count - 1)),
        st.one_of(st.integers(0, 3), st.integers(0, 2 ** 32 - 1)),
        st.booleans(),
        st.integers(0, len(_KINDS) - 1)), min_size=1, max_size=60))
    names = _ap_names(ap_count)
    keys = [(oracle_ts_string(day, s), names[a],
             (_anomaly_mac if anomalous else _device_mac)(d), _KINDS[k])
            for s, a, d, anomalous, k in lines]
    seconds, aps, devices, anomalous, kinds = (np.array(c) for c in zip(*lines))
    order = _line_order(_micros(seconds), _DayWriter(names).ap_rank[aps], anomalous,
                        devices, kinds)
    assert order.tolist() == oracle_order(keys)


@pytest.mark.parametrize("volume", [[0.0, 1.5, 147e6, 2.0 ** 62], [1.5, 2.0 ** 63, 1e19]])
def test_traffic_bytes_match_the_per_line_ints(volume):
    """bytes_up and bytes_down as int() of each volume made them, also past
    int64 (a bytes_per_session_mean set far above the default)."""
    up = [int(int(v) * 0.15) for v in volume]
    assert _traffic_bytes(np.array(volume)) == (up, [int(v) - u for v, u in zip(volume, up)])
