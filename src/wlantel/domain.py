"""Core vocabulary shared by every pipeline stage.

All types are immutable after validation and safe to share across threads.
No I/O and no algorithms live here, only validated data and the record
validator itself.

Unit conventions, fixed once:
  - gigabyte = 10^9 bytes (decimal),
  - timestamps are UTC internally; hour-of-day semantics use campus local
    time (UTC-5, no DST),
  - sample (n-1) standard deviation everywhere a std appears.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from enum import Enum
from functools import lru_cache
from typing import Optional

LOCAL_TZ = timezone(timedelta(hours=-5))  # campus local time, no DST

GIGABYTE = 10**9

MAX_SESSION_MINUTES = 1440.0

# \Z, not $: $ also matches before a trailing newline.
MAC_RE = re.compile(r"^([0-9a-fA-F]{2}:){5}[0-9a-fA-F]{2}\Z")
DEVICE_ID_RE = re.compile(r"^[0-9a-f]{32}\Z")
AP_ID_RE = re.compile(r"^AP-[0-9]+\Z")


class InputError(ValueError):
    """The caller's input is wrong: a bad record, file, option or setting.

    The CLI exits 1 on this class and 2 on any other exception, so raise it
    only where outside input is read.
    """


class ValidationError(InputError):
    """Base class for record validation failures."""

    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        super().__init__(f"{field_name}: {message}")


class FieldMissing(ValidationError):
    pass


class FieldOutOfRange(ValidationError):
    pass


class UnknownEventKind(ValidationError):
    pass


class EventKind(Enum):
    ASSOC = "assoc"
    DISASSOC = "disassoc"
    AUTH_FAIL = "auth_fail"
    TRAFFIC = "traffic"
    AP_HEALTH = "ap_health"


class Protocol(Enum):
    HTTP = "http"
    HTTPS = "https"
    DNS = "dns"
    UDP = "udp"
    OTHER = "other"


class AnomalyType(Enum):
    AUTH_BURST = "auth_burst"
    DNS_ANOMALY = "dns_anomaly"
    SIMULTANEOUS_CONNECTIONS = "simultaneous_connections"
    DUPLICATE_DEVICE = "duplicate_device"
    TRAFFIC_SPIKE = "traffic_spike"
    AP_OVERLOAD = "ap_overload"
    MULTIVARIATE_OUTLIER = "multivariate_outlier"


class Severity(Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


class Detector(Enum):
    THRESHOLD = "threshold"
    ISOLATION_FOREST = "isolation_forest"
    DBSCAN = "dbscan"
    RULE = "rule"


class Action(Enum):
    CHANNEL_REASSIGN = "channel_reassign"
    LOAD_REDISTRIBUTION = "load_redistribution"
    SEGMENTATION = "segmentation"
    AUTH_POLICY_REVIEW = "auth_policy_review"
    CAPACITY_EXPANSION = "capacity_expansion"


@dataclass(frozen=True, slots=True)
class DeviceId:
    """Anonymized device identity: 32 lowercase hex chars, never a raw MAC."""

    value: str

    def __post_init__(self):
        if not DEVICE_ID_RE.match(self.value):
            raise FieldOutOfRange("device", "must be 32 lowercase hex characters")


@dataclass(frozen=True, slots=True)
class ApId:
    value: str

    def __post_init__(self):
        if not AP_ID_RE.match(self.value):
            raise FieldOutOfRange("ap", "must match AP-<digits>")


@dataclass(frozen=True, slots=True)
class SessionRecord:
    """One controller event: association, disassociation, auth failure,
    traffic sample, or AP health sample.

    Fields that do not apply to ``kind`` are None, never zero.
    """

    ts: datetime
    device: DeviceId
    ap: ApId
    kind: EventKind
    session_minutes: Optional[float] = None  # DISASSOC only
    bytes_up: Optional[int] = None           # TRAFFIC only
    bytes_down: Optional[int] = None         # TRAFFIC only
    proto: Optional[Protocol] = None         # TRAFFIC only
    latency_ms: Optional[float] = None       # AP_HEALTH only
    loss_pct: Optional[float] = None         # AP_HEALTH only

    def local_ts(self) -> datetime:
        return self.ts.astimezone(LOCAL_TZ)

    def local_day(self) -> date:
        return self.ts.astimezone(LOCAL_TZ).date()

    def to_json_dict(self) -> dict:
        d = {
            "ts": self.ts.astimezone(timezone.utc).isoformat().replace("+00:00", "Z"),
            "device": self.device.value,
            "ap": self.ap.value,
            "kind": self.kind.value,
        }
        if self.kind is EventKind.DISASSOC:
            d["session_minutes"] = self.session_minutes
        elif self.kind is EventKind.TRAFFIC:
            d["bytes_up"] = self.bytes_up
            d["bytes_down"] = self.bytes_down
            d["proto"] = self.proto.value
        elif self.kind is EventKind.AP_HEALTH:
            d["latency_ms"] = self.latency_ms
            d["loss_pct"] = self.loss_pct
        return d


_KIND_FIELDS = {
    EventKind.ASSOC: (),
    EventKind.DISASSOC: ("session_minutes",),
    EventKind.TRAFFIC: ("bytes_up", "bytes_down", "proto"),
    EventKind.AP_HEALTH: ("latency_ms", "loss_pct"),
    EventKind.AUTH_FAIL: (),
}
_OPTIONAL_FIELDS = ("session_minutes", "bytes_up", "bytes_down", "proto",
                    "latency_ms", "loss_pct")

# One validated id object per distinct value, shared by every record that
# names it.  Ids are not secret, so the cache may outlive an ingest; a bad
# value raises and is not cached.
_device_id = lru_cache(maxsize=1 << 16)(DeviceId)
_ap_id = lru_cache(maxsize=1 << 16)(ApId)


# The instants the pipeline can do date arithmetic on: the local form of
# the first one (LOCAL_TZ is behind UTC) and a session plus one day after
# the last one must be representable.
TS_MIN = datetime.min.replace(tzinfo=timezone.utc) - LOCAL_TZ.utcoffset(None)
TS_MAX = (datetime.max.replace(microsecond=0, tzinfo=timezone.utc)
          - timedelta(days=1, minutes=MAX_SESSION_MINUTES))


def _parse_ts(raw) -> datetime:
    if isinstance(raw, datetime):
        ts = raw
    elif isinstance(raw, str):
        try:
            ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
        except ValueError:
            raise FieldOutOfRange("ts", f"not an RFC3339 timestamp: {raw!r}")
    else:
        raise FieldOutOfRange("ts", f"unsupported timestamp type {type(raw).__name__}")
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    try:
        ts = ts.astimezone(timezone.utc).replace(microsecond=0)
        if TS_MIN <= ts <= TS_MAX:
            return ts
    except OverflowError:
        pass
    raise FieldOutOfRange("ts", f"out of range [{TS_MIN.isoformat()}, {TS_MAX.isoformat()}]: {raw!r}")


def _number(raw: dict, name: str, high: float) -> float:
    """The one rule for a float field: a finite number in [0, high]."""
    try:
        value = float(raw[name])
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not (math.isfinite(value) and 0.0 <= value <= high):
        raise FieldOutOfRange(name, f"must be a finite number in [0, {high:g}]")
    return value


def validate(raw: dict) -> SessionRecord:
    """Validate a raw (already anonymized) record dict into a SessionRecord.

    Raises FieldMissing / FieldOutOfRange / UnknownEventKind naming the
    first violated invariant and the offending field.
    """
    for f in ("ts", "device", "ap", "kind"):
        if raw.get(f) in (None, ""):
            raise FieldMissing(f, "required field absent")

    ts = _parse_ts(raw["ts"])

    kind_raw = raw["kind"]
    try:
        kind = kind_raw if isinstance(kind_raw, EventKind) else EventKind(str(kind_raw))
    except ValueError:
        raise UnknownEventKind("kind", f"unknown event kind {kind_raw!r}")

    device = raw["device"] if isinstance(raw["device"], DeviceId) else _device_id(str(raw["device"]))
    ap = raw["ap"] if isinstance(raw["ap"], ApId) else _ap_id(str(raw["ap"]))

    required = _KIND_FIELDS[kind]
    for f in required:
        if raw.get(f) is None:
            raise FieldMissing(f, f"required for kind={kind.value}")
    for f in _OPTIONAL_FIELDS:
        if f not in required and raw.get(f) is not None:
            raise FieldOutOfRange(f, f"not applicable to kind={kind.value}")

    kwargs: dict = {}
    if kind is EventKind.DISASSOC:
        kwargs["session_minutes"] = _number(raw, "session_minutes", MAX_SESSION_MINUTES)
    elif kind is EventKind.TRAFFIC:
        for f in ("bytes_up", "bytes_down"):
            b = raw[f]
            if not isinstance(b, int) or isinstance(b, bool) or b < 0:
                raise FieldOutOfRange(f, "must be a non-negative integer")
            kwargs[f] = b
        try:
            proto_raw = raw["proto"]
            kwargs["proto"] = proto_raw if isinstance(proto_raw, Protocol) else Protocol(str(proto_raw))
        except ValueError:
            raise FieldOutOfRange("proto", f"unknown protocol {raw['proto']!r}")
    elif kind is EventKind.AP_HEALTH:
        kwargs["latency_ms"] = _number(raw, "latency_ms", math.inf)
        kwargs["loss_pct"] = _number(raw, "loss_pct", 100.0)

    return SessionRecord(ts=ts, device=device, ap=ap, kind=kind, **kwargs)


@dataclass(frozen=True)
class DailyAggregate:
    """One day's metric vector.

    ``sessions_ended``, ``aps_seen`` and ``aps_overloaded`` are the counts
    behind ``mean_session_minutes`` and ``overload_pct``.
    """

    day: date
    connections: int = 0
    distinct_devices: int = 0
    mean_session_minutes: float = 0.0
    auth_failures: int = 0
    unexpected_disconnects: int = 0
    traffic_gb: float = 0.0
    overload_pct: float = 0.0
    proto_share: dict = field(default_factory=dict)  # Protocol -> fraction
    duplicate_device_events: int = 0
    sessions_ended: int = 0
    aps_seen: int = 0
    aps_overloaded: int = 0

    def __post_init__(self):
        for name in ("connections", "distinct_devices", "auth_failures",
                     "unexpected_disconnects", "duplicate_device_events",
                     "sessions_ended", "aps_seen", "aps_overloaded"):
            if getattr(self, name) < 0:
                raise FieldOutOfRange(name, "count must be >= 0")
        if not (0.0 <= self.overload_pct <= 100.0):
            raise FieldOutOfRange("overload_pct", "must lie in [0, 100]")
        if self.traffic_gb > 0:
            total = sum(self.proto_share.values())
            if abs(total - 1.0) > 1e-9:
                raise FieldOutOfRange("proto_share", f"shares sum to {total}, expected 1")

    def metric(self, name: str) -> float:
        """Named metric access; proto shares addressed as proto_share_<p>."""
        if name.startswith("proto_share_"):
            return float(self.proto_share.get(Protocol(name[len("proto_share_"):]), 0.0))
        return float(getattr(self, name))

    def to_json_dict(self) -> dict:
        return {
            "day": self.day.isoformat(),
            "connections": self.connections,
            "distinct_devices": self.distinct_devices,
            "mean_session_minutes": self.mean_session_minutes,
            "auth_failures": self.auth_failures,
            "unexpected_disconnects": self.unexpected_disconnects,
            "traffic_gb": self.traffic_gb,
            "overload_pct": self.overload_pct,
            "proto_share": {p.value: s for p, s in sorted(self.proto_share.items(), key=lambda kv: kv[0].value)},
            "duplicate_device_events": self.duplicate_device_events,
            "sessions_ended": self.sessions_ended,
            "aps_seen": self.aps_seen,
            "aps_overloaded": self.aps_overloaded,
        }


# Metric names a BaselineProfile tracks, in a fixed documented order.
BASELINE_METRICS = (
    "connections",
    "distinct_devices",
    "mean_session_minutes",
    "auth_failures",
    "unexpected_disconnects",
    "traffic_gb",
    "overload_pct",
    "duplicate_device_events",
    "proto_share_http",
    "proto_share_https",
    "proto_share_dns",
    "proto_share_udp",
    "proto_share_other",
)

MIN_BASELINE_DAYS = 5


@dataclass(frozen=True)
class BaselineProfile:
    """Per-day-of-week mean/std of every daily metric (the normal profile).

    slots[dow] maps metric name -> (mean, std); ``fallback`` marks slots with
    fewer than MIN_BASELINE_DAYS samples that use the all-days statistics.
    """

    slots: tuple            # 7 entries: dict metric -> (mean, std)
    fallback: tuple         # 7 bools
    window_days: int
    built_from: tuple       # (first_day, last_day)

    def __post_init__(self):
        if self.window_days < MIN_BASELINE_DAYS:
            raise FieldOutOfRange("window_days", f"must be >= {MIN_BASELINE_DAYS}")
        for slot in self.slots:
            for _, (_, std) in slot.items():
                if std < 0:
                    raise FieldOutOfRange("std", "must be >= 0")

    def stats(self, dow: int, metric: str) -> tuple[float, float]:
        return self.slots[dow][metric]

    def to_json_dict(self) -> dict:
        return {
            "window_days": self.window_days,
            "built_from": [d.isoformat() for d in self.built_from],
            "fallback": list(self.fallback),
            "slots": [
                {m: {"mean": mu, "std": sd} for m, (mu, sd) in sorted(slot.items())}
                for slot in self.slots
            ],
        }


@dataclass(frozen=True)
class AnomalyEvent:
    day: date
    type: AnomalyType
    detector: Detector
    score: float
    severity: Optional[Severity] = None
    evidence: dict = field(default_factory=dict)
    device: Optional[str] = None   # DeviceId value for device-scoped events
    ap: Optional[str] = None       # ApId value for AP-scoped events

    def __post_init__(self):
        if self.score < 0:
            raise FieldOutOfRange("score", "must be >= 0")

    def to_json_dict(self) -> dict:
        return {
            "day": self.day.isoformat(),
            "type": self.type.value,
            "detector": self.detector.value,
            "score": self.score,
            "severity": self.severity.value if self.severity else None,
            "evidence": self.evidence,
            "device": self.device,
            "ap": self.ap,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "AnomalyEvent":
        return cls(
            day=date.fromisoformat(d["day"]),
            type=AnomalyType(d["type"]),
            detector=Detector(d["detector"]),
            score=d["score"],
            severity=Severity(d["severity"]) if d.get("severity") else None,
            evidence=d.get("evidence", {}),
            device=d.get("device"),
            ap=d.get("ap"),
        )


@dataclass(frozen=True)
class Recommendation:
    action: Action
    rationale: str
    target: Optional[str] = None       # ApId value, None = network-wide
    linked_events: tuple = ()          # AnomalyEvent references

    def __post_init__(self):
        if self.target is None and not self.linked_events:
            raise FieldOutOfRange("target", "need a target AP or linked events")

    def to_json_dict(self, event_index: Optional[dict] = None) -> dict:
        linked = [event_index[id(e)] for e in self.linked_events] if event_index \
            else [e.to_json_dict() for e in self.linked_events]
        return {
            "action": self.action.value,
            "target": self.target,
            "rationale": self.rationale,
            "linked_events": linked,
        }
