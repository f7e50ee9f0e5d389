"""Record validation, identifier formats, aggregates, baselines, and
serialization round-trips for the core vocabulary types."""

from __future__ import annotations

import json
from datetime import date, datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlantel.domain import (
    GIGABYTE,
    MAX_SESSION_MINUTES,
    AnomalyEvent,
    AnomalyType,
    ApId,
    BaselineProfile,
    DailyAggregate,
    Detector,
    DeviceId,
    EventKind,
    FieldMissing,
    FieldOutOfRange,
    Protocol,
    Recommendation,
    RecordTable,
    Action,
    Severity,
    SessionRecord,
    UnknownEventKind,
    ValidationError,
    validate,
)

DEV = "a" * 32


def raw_record(**overrides):
    base = {"ts": "2025-03-03T15:00:00Z", "device": DEV, "ap": "AP-101",
            "kind": "assoc"}
    base.update(overrides)
    return base


class TestIdentifiers:
    def test_device_id_accepts_32_hex(self):
        assert DeviceId("0123456789abcdef0123456789abcdef").value

    @pytest.mark.parametrize("bad", ["", "xyz", "A" * 32, "a" * 31, "a" * 33,
                                     "aa:bb:cc:dd:ee:ff", "a" * 32 + "\n"])
    def test_device_id_rejects_non_hex(self, bad):
        with pytest.raises(FieldOutOfRange):
            DeviceId(bad)

    def test_ap_id_format(self):
        assert ApId("AP-0").value == "AP-0"
        for bad in ("AP", "ap-1", "AP-", "AP-1x", "101", "AP-1\n"):
            with pytest.raises(FieldOutOfRange):
                ApId(bad)


class TestValidate:
    def test_assoc_happy_path(self):
        r = validate(raw_record())
        assert r.kind is EventKind.ASSOC
        assert r.device.value == DEV
        assert r.session_minutes is None

    def test_missing_required_field(self):
        for f in ("ts", "device", "ap", "kind"):
            raw = raw_record()
            del raw[f]
            with pytest.raises(FieldMissing):
                validate(raw)

    def test_unknown_kind(self):
        with pytest.raises(UnknownEventKind):
            validate(raw_record(kind="reboot"))

    def test_disassoc_requires_session_minutes(self):
        with pytest.raises(FieldMissing):
            validate(raw_record(kind="disassoc"))
        r = validate(raw_record(kind="disassoc", session_minutes=12.5))
        assert r.session_minutes == 12.5

    def test_session_minutes_bounds(self):
        with pytest.raises(FieldOutOfRange):
            validate(raw_record(kind="disassoc", session_minutes=-1))
        with pytest.raises(FieldOutOfRange):
            validate(raw_record(kind="disassoc",
                                session_minutes=MAX_SESSION_MINUTES + 1))
        validate(raw_record(kind="disassoc",
                            session_minutes=MAX_SESSION_MINUTES))

    def test_traffic_fields(self):
        r = validate(raw_record(kind="traffic", bytes_up=10, bytes_down=20,
                                proto="dns"))
        assert r.proto is Protocol.DNS
        with pytest.raises(FieldOutOfRange):
            validate(raw_record(kind="traffic", bytes_up=-1, bytes_down=0,
                                proto="dns"))
        with pytest.raises(FieldOutOfRange):
            validate(raw_record(kind="traffic", bytes_up=1, bytes_down=1,
                                proto="gopher"))

    def test_ap_health_bounds(self):
        r = validate(raw_record(kind="ap_health", latency_ms=31.0, loss_pct=0.9))
        assert r.latency_ms == 31.0
        with pytest.raises(FieldOutOfRange):
            validate(raw_record(kind="ap_health", latency_ms=-1, loss_pct=1))
        with pytest.raises(FieldOutOfRange):
            validate(raw_record(kind="ap_health", latency_ms=10, loss_pct=101))

    def test_inapplicable_field_rejected(self):
        # Fields that do not apply to the kind must be absent, not zero.
        with pytest.raises(FieldOutOfRange):
            validate(raw_record(session_minutes=5.0))
        with pytest.raises(FieldOutOfRange):
            validate(raw_record(kind="auth_fail", bytes_up=0, bytes_down=0,
                                proto="http"))

    def test_naive_timestamp_treated_as_utc(self):
        r = validate(raw_record(ts="2025-03-03T15:00:00"))
        assert r.ts == datetime(2025, 3, 3, 15, 0, tzinfo=timezone.utc)

    def test_bad_timestamp(self):
        with pytest.raises(FieldOutOfRange):
            validate(raw_record(ts="yesterday"))

    # The UTC form, the local form, and a session plus one day later must
    # all be representable datetimes.
    @pytest.mark.parametrize("ts", ["0001-01-01T00:00:00+05:00",
                                    "0001-01-01T01:00:00Z",
                                    "9999-12-31T23:59:59Z"])
    def test_timestamp_without_date_arithmetic_rejected(self, ts):
        with pytest.raises(FieldOutOfRange) as exc:
            validate(raw_record(ts=ts))
        assert exc.value.field_name == "ts"

    def test_far_but_representable_timestamp_accepted(self):
        r = validate(raw_record(ts="2999-01-01T00:00:00Z"))
        assert r.ts == datetime(2999, 1, 1, tzinfo=timezone.utc)

    @pytest.mark.parametrize("kind, field, value", [
        ("disassoc", "session_minutes", "abc"),
        ("disassoc", "session_minutes", float("inf")),
        ("disassoc", "session_minutes", 10**400),
        ("ap_health", "latency_ms", [1]),
        ("ap_health", "latency_ms", float("nan")),
        ("ap_health", "loss_pct", {"x": 1}),
    ])
    def test_non_numeric_or_non_finite_value_rejected(self, kind, field, value):
        raw = raw_record(kind=kind, **{field: value})
        if kind == "ap_health":
            raw = {"latency_ms": 10.0, "loss_pct": 1.0, **raw}
        with pytest.raises(FieldOutOfRange) as exc:
            validate(raw)
        assert exc.value.field_name == field

    def test_error_names_offending_field(self):
        with pytest.raises(ValidationError) as exc:
            validate(raw_record(kind="disassoc", session_minutes=-3))
        assert exc.value.field_name == "session_minutes"

    @pytest.mark.parametrize("field, value", [("device", DEV + "\n"),
                                              ("ap", "AP-1\n")])
    def test_trailing_newline_in_id_rejected(self, field, value):
        with pytest.raises(FieldOutOfRange) as exc:
            validate(raw_record(**{field: value}))
        assert exc.value.field_name == field

    def test_records_share_one_object_per_id(self):
        a = validate(raw_record())
        b = validate(raw_record(ts="2025-03-03T16:00:00Z"))
        assert a.device is b.device and a.ap is b.ap
        other = validate(raw_record(device="b" * 32, ap="AP-102"))
        assert other.device is not a.device and other.ap is not a.ap


class TestSessionRecord:
    def test_local_day_crosses_midnight(self):
        r = validate(raw_record(ts="2025-03-04T02:30:00Z"))
        assert r.ts.tzinfo == timezone.utc
        assert r.local_day() == date(2025, 3, 3)

    def test_json_round_trip(self):
        r = validate(raw_record(kind="traffic", bytes_up=5, bytes_down=7,
                                proto="udp"))
        assert validate(r.to_json_dict()) == r

    def test_json_omits_inapplicable_fields(self):
        d = validate(raw_record()).to_json_dict()
        assert set(d) == {"ts", "device", "ap", "kind"}


class TestDailyAggregate:
    def test_rejects_negative_counts(self):
        with pytest.raises(FieldOutOfRange):
            DailyAggregate(day=date(2025, 3, 3), connections=-1)

    def test_rejects_overload_out_of_range(self):
        with pytest.raises(FieldOutOfRange):
            DailyAggregate(day=date(2025, 3, 3), overload_pct=101.0)

    def test_shares_must_sum_to_one_when_traffic_present(self):
        with pytest.raises(FieldOutOfRange):
            DailyAggregate(day=date(2025, 3, 3), traffic_gb=1.0,
                           proto_share={Protocol.DNS: 0.5})

    def test_metric_accessor(self):
        agg = DailyAggregate(day=date(2025, 3, 3), connections=10,
                             traffic_gb=2.0,
                             proto_share={Protocol.DNS: 0.25, Protocol.HTTP: 0.75})
        assert agg.metric("connections") == 10.0
        assert agg.metric("proto_share_dns") == 0.25
        assert agg.metric("proto_share_udp") == 0.0

    def test_gigabyte_is_decimal(self):
        assert GIGABYTE == 10**9


class TestBaselineProfile:
    def _profile(self, std=1.0):
        slot = {"connections": (100.0, std)}
        return BaselineProfile(slots=tuple(dict(slot) for _ in range(7)),
                               fallback=(False,) * 7, window_days=30,
                               built_from=(date(2025, 3, 3), date(2025, 4, 1)))

    def test_stats_lookup(self):
        assert self._profile().stats(3, "connections") == (100.0, 1.0)

    def test_rejects_negative_std(self):
        with pytest.raises(FieldOutOfRange):
            self._profile(std=-0.5)

    def test_rejects_short_window(self):
        with pytest.raises(FieldOutOfRange):
            BaselineProfile(slots=({},) * 7, fallback=(True,) * 7,
                            window_days=2,
                            built_from=(date(2025, 3, 3), date(2025, 3, 4)))


class TestAnomalyEventAndRecommendation:
    def test_score_must_be_non_negative(self):
        with pytest.raises(FieldOutOfRange):
            AnomalyEvent(day=date(2025, 3, 3), type=AnomalyType.AUTH_BURST,
                         detector=Detector.THRESHOLD, score=-0.1)

    def test_event_json_round_trip(self):
        day = date(2025, 3, 3)
        events = [
            AnomalyEvent(day=day, type=AnomalyType.AUTH_BURST,
                         detector=Detector.THRESHOLD, score=4.5),
            AnomalyEvent(day=day, type=AnomalyType.DUPLICATE_DEVICE,
                         detector=Detector.RULE, score=2.0,
                         severity=Severity.HIGH, device="a" * 32,
                         evidence={"aps": ["AP-101", "AP-102"], "text": "x"}),
            AnomalyEvent(day=day, type=AnomalyType.AP_OVERLOAD,
                         detector=Detector.THRESHOLD, score=3.5,
                         severity=Severity.LOW, ap="AP-105"),
        ]
        assert [e.to_json_dict() for e in events] == [
            {"day": "2025-03-03", "type": "auth_burst", "detector": "threshold",
             "score": 4.5, "severity": None, "evidence": {}, "device": None,
             "ap": None},
            {"day": "2025-03-03", "type": "duplicate_device", "detector": "rule",
             "score": 2.0, "severity": "high",
             "evidence": {"aps": ["AP-101", "AP-102"], "text": "x"},
             "device": "a" * 32, "ap": None},
            {"day": "2025-03-03", "type": "ap_overload", "detector": "threshold",
             "score": 3.5, "severity": "low", "evidence": {}, "device": None,
             "ap": "AP-105"},
        ]

    def test_recommendation_needs_target_or_events(self):
        with pytest.raises(FieldOutOfRange):
            Recommendation(action=Action.SEGMENTATION, rationale="x")
        Recommendation(action=Action.SEGMENTATION, rationale="x",
                       target="AP-101")


KINDS = st.sampled_from(list(EventKind))


@st.composite
def raw_records(draw):
    kind = draw(KINDS)
    raw = {
        "ts": draw(st.datetimes(min_value=datetime(2025, 1, 1),
                                max_value=datetime(2025, 12, 31))).isoformat() + "Z",
        "device": draw(st.text(alphabet="0123456789abcdef", min_size=32,
                               max_size=32)),
        "ap": f"AP-{draw(st.integers(0, 999))}",
        "kind": kind.value,
    }
    if kind is EventKind.DISASSOC:
        raw["session_minutes"] = draw(st.floats(0, MAX_SESSION_MINUTES))
    elif kind is EventKind.TRAFFIC:
        raw["bytes_up"] = draw(st.integers(0, 10**12))
        raw["bytes_down"] = draw(st.integers(0, 10**12))
        raw["proto"] = draw(st.sampled_from([p.value for p in Protocol]))
    elif kind is EventKind.AP_HEALTH:
        raw["latency_ms"] = draw(st.floats(0, 1000))
        raw["loss_pct"] = draw(st.floats(0, 100))
    return raw


@settings(max_examples=100, deadline=None)
@given(raw=raw_records())
def test_validate_accepts_all_well_formed_records(raw):
    record = validate(raw)
    assert record.kind.value == raw["kind"]
    # Serialization round-trips to an equal record.
    assert validate(record.to_json_dict()) == record
    # The digest's canonical line is the record's sorted-key JSON.
    assert "".join(RecordTable.from_records([record]).canonical_lines()) == \
        json.dumps(record.to_json_dict(), sort_keys=True) + "\n"


@settings(max_examples=100, deadline=None)
@given(raw=raw_records(), drop=st.sampled_from(["ts", "device", "ap", "kind"]))
def test_validate_rejects_any_missing_required_field(raw, drop):
    del raw[drop]
    with pytest.raises(FieldMissing):
        validate(raw)
