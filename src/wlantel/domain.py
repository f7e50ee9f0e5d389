"""Core vocabulary shared by every pipeline stage.

All types are immutable after validation and safe to share across threads.
No I/O and no algorithms live here, only validated data, the one record
schema (PAYLOAD_FIELDS), the record validator itself and RecordTable, the
columnar form every stage after ingest reads.

Unit conventions, fixed once:
  - gigabyte = 10^9 bytes (decimal),
  - timestamps are UTC internally; hour-of-day semantics use campus local
    time (UTC-5, no DST),
  - sample (n-1) standard deviation everywhere a std appears.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from datetime import date, datetime, timedelta, timezone
from enum import Enum
from functools import cached_property, lru_cache
from itertools import chain
from typing import Iterable, Iterator, Optional

import numpy as np

LOCAL_TZ = timezone(timedelta(hours=-5))  # campus local time, no DST

GIGABYTE = 10**9

MAX_SESSION_MINUTES = 1440.0

STD_FLOOR = 1e-9  # avoids division by zero for constant metrics

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

    PAYLOAD_FIELDS lists the payload fields each kind carries; the others
    are None, never zero.
    """

    ts: datetime
    device: DeviceId
    ap: ApId
    kind: EventKind
    session_minutes: Optional[float] = None
    bytes_up: Optional[int] = None
    bytes_down: Optional[int] = None
    proto: Optional[Protocol] = None
    latency_ms: Optional[float] = None
    loss_pct: Optional[float] = None

    def local_day(self) -> date:
        return self.ts.astimezone(LOCAL_TZ).date()

    def to_json_dict(self) -> dict:
        d = {"ts": format_ts(self.ts), "device": self.device.value,
             "ap": self.ap.value, "kind": self.kind.value}
        for name, t, _ in PAYLOAD_FIELDS[self.kind]:
            value = getattr(self, name)
            d[name] = value.value if t is Protocol else value
        return d


def format_ts(ts: datetime) -> str:
    """RFC 3339 in UTC with a "Z" suffix, the form of every timestamp written."""
    return ts.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


# The one record schema: each kind's payload fields in the order `validate`
# checks them, each with its value type and, for a float, the upper bound
# of [0, bound].  An int is a non-negative integer and a Protocol is given
# by its value.  The kinds are in SessionRecord's field order, the order in
# which fields a kind does not carry are checked.
PAYLOAD_FIELDS = {
    EventKind.ASSOC: (),
    EventKind.AUTH_FAIL: (),
    EventKind.DISASSOC: (("session_minutes", float, MAX_SESSION_MINUTES),),
    EventKind.TRAFFIC: (("bytes_up", int, None), ("bytes_down", int, None),
                        ("proto", Protocol, None)),
    EventKind.AP_HEALTH: (("latency_ms", float, math.inf), ("loss_pct", float, 100.0)),
}
_PAYLOAD_NAMES = tuple(name for fields in PAYLOAD_FIELDS.values() for name, _, _ in fields)
_INAPPLICABLE = {kind: tuple(n for n in _PAYLOAD_NAMES if n not in {f[0] for f in fields})
                 for kind, fields in PAYLOAD_FIELDS.items()}


def _check(name: str, t: type, value, high: Optional[float]):
    """The one rule for a payload field of type ``t``."""
    if t is Protocol:
        try:
            return Protocol(str(value))
        except ValueError:
            raise FieldOutOfRange(name, f"unknown protocol {value!r}")
    if t is int:
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise FieldOutOfRange(name, "must be a non-negative integer")
        return value
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not (math.isfinite(value) and 0.0 <= value <= high):
        raise FieldOutOfRange(name, f"must be a finite number in [0, {high:g}]")
    return value


# One validated id object per distinct value, shared by every record that
# names it.  Ids are not secret, so the cache may outlive an ingest; a bad
# value raises and is not cached.
intern_device = lru_cache(maxsize=1 << 16)(DeviceId)
intern_ap = lru_cache(maxsize=1 << 16)(ApId)


# The instants the pipeline can do date arithmetic on: the local form of
# the first one (LOCAL_TZ is behind UTC) and a session plus one day after
# the last one must be representable.
TS_MIN = datetime.min.replace(tzinfo=timezone.utc) - LOCAL_TZ.utcoffset(None)
TS_MAX = (datetime.max.replace(microsecond=0, tzinfo=timezone.utc)
          - timedelta(days=1, minutes=MAX_SESSION_MINUTES))


def _parse_ts(raw) -> datetime:
    if not isinstance(raw, str):
        raise FieldOutOfRange("ts", f"unsupported timestamp type {type(raw).__name__}")
    try:
        ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError:
        raise FieldOutOfRange("ts", f"not an RFC3339 timestamp: {raw!r}")
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    try:
        ts = ts.astimezone(timezone.utc).replace(microsecond=0)
        if TS_MIN <= ts <= TS_MAX:
            return ts
    except OverflowError:
        pass
    raise FieldOutOfRange("ts", f"out of range [{TS_MIN.isoformat()}, {TS_MAX.isoformat()}]: {raw!r}")


def validate(raw: dict) -> SessionRecord:
    """Validate a raw (already anonymized) record dict into a SessionRecord.

    Values are JSON values, except that ``device`` may be a DeviceId.
    Raises FieldMissing / FieldOutOfRange / UnknownEventKind naming the
    first violated invariant and the offending field.
    """
    for f in ("ts", "device", "ap", "kind"):
        if raw.get(f) in (None, ""):
            raise FieldMissing(f, "required field absent")

    ts = _parse_ts(raw["ts"])
    try:
        kind = EventKind(str(raw["kind"]))
    except ValueError:
        raise UnknownEventKind("kind", f"unknown event kind {raw['kind']!r}")
    device = raw["device"] if isinstance(raw["device"], DeviceId) else intern_device(str(raw["device"]))
    ap = intern_ap(str(raw["ap"]))

    fields = PAYLOAD_FIELDS[kind]
    for name, _, _ in fields:
        if raw.get(name) is None:
            raise FieldMissing(name, f"required for kind={kind.value}")
    for name in _INAPPLICABLE[kind]:
        if raw.get(name) is not None:
            raise FieldOutOfRange(name, f"not applicable to kind={kind.value}")
    return SessionRecord(ts, device, ap, kind, **{
        name: _check(name, t, raw[name], high) for name, t, high in fields})


# Column codes: a record's kind and protocol are its index in these.
KINDS = tuple(EventKind)
PROTOCOLS = tuple(Protocol)

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_SECOND = timedelta(seconds=1)
_DAY_SECONDS = 86400
_LOCAL_OFFSET_S = LOCAL_TZ.utcoffset(None) // _SECOND


def epoch_seconds(ts: datetime) -> int:
    return (ts - _EPOCH) // _SECOND


def local_seconds(ts: np.ndarray) -> np.ndarray:
    """Epoch seconds as LOCAL_TZ wall-clock seconds since 1970-01-01T00:00:
    LOCAL_TZ is a fixed offset, so local time is integer arithmetic."""
    return ts + _LOCAL_OFFSET_S


def local_days(ts: np.ndarray) -> np.ndarray:
    """The local day of each epoch second, as days since 1970-01-01."""
    return local_seconds(ts) // _DAY_SECONDS


def day_date(day: int) -> date:
    """The date of a `local_days` value."""
    return _EPOCH.date() + timedelta(days=int(day))


# Each payload column's dtype and the value that marks a row whose kind
# does not carry the field.
_PAYLOAD_COLUMNS = {name: (np.float64, math.nan) if t is float
                    else (np.int64, -1) if t is int else (np.int8, -1)
                    for fields in PAYLOAD_FIELDS.values() for name, t, _ in fields}
# The columns that hold one value per row, ids aside.
_ROW_COLUMNS = ("ts", "kind", *_PAYLOAD_COLUMNS, "line")
# Rows per string that `RecordTable.canonical_lines` yields.
_DIGEST_BLOCK = 1 << 13


def payload_columns(n: int) -> dict:
    """The payload columns of ``n`` rows, none of which carries its field."""
    return {name: np.full(n, fill, dtype) for name, (dtype, fill) in _PAYLOAD_COLUMNS.items()}


@dataclass(frozen=True, eq=False)
class RecordTable:
    """Validated records as numpy columns, one row per record, in input
    order: the form every stage after ingest reads.

    ``kind`` and ``proto`` index KINDS and PROTOCOLS (``proto`` is -1 where
    the kind carries none).  ``device`` and ``ap`` index ``devices`` and
    ``aps``, tuples of distinct shared id objects, which may hold ids no row
    names.  A float payload column holds NaN, and an int one -1, where the
    row's kind does not carry the field; an int column is int64, or object
    when a value does not fit.  As a sequence the table reads back as
    SessionRecords.
    """

    ts: np.ndarray               # int64 epoch seconds, UTC
    kind: np.ndarray             # int8
    proto: np.ndarray            # int8
    device: np.ndarray           # int32
    ap: np.ndarray               # int32
    session_minutes: np.ndarray  # float64
    latency_ms: np.ndarray
    loss_pct: np.ndarray
    bytes_up: np.ndarray         # int64 or object
    bytes_down: np.ndarray
    line: np.ndarray             # int64 input line number
    devices: tuple
    aps: tuple

    @cached_property
    def day(self) -> np.ndarray:
        """int64 `local_days` of ts."""
        return local_days(self.ts)

    def __len__(self) -> int:
        return len(self.ts)

    def __getitem__(self, i: int) -> SessionRecord:
        kind = KINDS[self.kind[i]]
        payload = {name: PROTOCOLS[self.proto[i]] if t is Protocol else t(getattr(self, name)[i])
                   for name, t, _ in PAYLOAD_FIELDS[kind]}
        return SessionRecord(_EPOCH + int(self.ts[i]) * _SECOND, self.devices[self.device[i]],
                             self.aps[self.ap[i]], kind, **payload)

    def __iter__(self) -> Iterator[SessionRecord]:
        return (self[i] for i in range(len(self)))

    def take(self, rows) -> "RecordTable":
        """The table of ``rows``, an index array or a mask."""
        return replace(self, **{name: getattr(self, name)[rows]
                                for name in (*_ROW_COLUMNS, "device", "ap")})

    @classmethod
    def from_records(cls, records: Iterable[SessionRecord],
                     lines: Optional[Iterable[int]] = None) -> "RecordTable":
        """The table of ``records``, numbered 1, 2, ... unless ``lines`` are given."""
        records = list(records)
        devices, aps = _IdMerger(), _IdMerger()
        payload = {}
        for name, (dtype, fill) in _PAYLOAD_COLUMNS.items():
            values = [fill if (v := getattr(r, name)) is None
                      else PROTOCOLS.index(v) if isinstance(v, Protocol) else v for r in records]
            try:
                payload[name] = np.array(values, dtype)
            except OverflowError:  # an int past int64
                payload[name] = np.array(values, dtype=object)
        return cls(
            ts=np.array([epoch_seconds(r.ts) for r in records], np.int64),
            kind=np.array([KINDS.index(r.kind) for r in records], np.int8),
            device=devices.codes([r.device for r in records]),
            ap=aps.codes([r.ap for r in records]), **payload,
            line=np.array(range(1, len(records) + 1) if lines is None else list(lines),
                          np.int64),
            devices=tuple(devices.ids), aps=tuple(aps.ids))

    @classmethod
    def concat(cls, tables: Iterable["RecordTable"]) -> "RecordTable":
        """The rows of ``tables`` one after another, over merged id tuples.
        Each table is copied into columns that grow by doubling as it
        arrives, so a stream of chunks is freed as it is joined rather than
        held until one concatenate at the end."""
        devices, aps = _IdMerger(), _IdMerger()
        columns: dict = {}
        n = 0
        for t in tables:
            part = {name: getattr(t, name) for name in _ROW_COLUMNS}
            part.update(device=devices.codes(t.devices)[t.device], ap=aps.codes(t.aps)[t.ap])
            for name, values in part.items():
                column = columns.get(name)
                dtype = values.dtype if column is None else np.result_type(column, values)
                if column is None or len(column) < n + len(values) or dtype != column.dtype:
                    grown = np.empty(max(n + len(values), 2 * n, 1 << 16), dtype)
                    if column is not None:
                        grown[:n] = column[:n]
                    column = columns[name] = grown
                column[n:n + len(values)] = values
            n += len(t)
        if not columns:
            return cls.from_records(())
        return cls(**{name: column[:n] for name, column in columns.items()},
                   devices=tuple(devices.ids), aps=tuple(aps.ids))

    def canonical_lines(self) -> Iterator[str]:
        """Every record's json.dumps(record.to_json_dict(), sort_keys=True)
        plus a newline, in row order, joined into one string per
        _DIGEST_BLOCK rows."""
        values = {"device": np.array([d.value for d in self.devices], dtype=object),
                  "ap": np.array([a.value for a in self.aps], dtype=object),
                  "proto": np.array([p.value for p in PROTOCOLS], dtype=object)}
        for start in range(0, len(self), _DIGEST_BLOCK):
            rows = slice(start, start + _DIGEST_BLOCK)
            ts_text = np.datetime_as_string(self.ts[rows].astype("datetime64[s]"), unit="s")
            kinds = self.kind[rows]
            lines = np.empty(len(kinds), dtype=object)
            for code, (line_format, keys) in enumerate(_LINES):
                at = np.flatnonzero(kinds == code)
                if not at.size:
                    continue
                columns = [(values[key][getattr(self, key)[at + start]] if key in values
                            else getattr(self, key)[at + start]).tolist() for key in keys]
                lines[at] = np.array([line_format % v for v in zip(*columns, ts_text[at].tolist())],
                                     dtype=object)
            yield "".join(lines.tolist())


def as_table(records) -> RecordTable:
    """``records`` as one RecordTable: a table, or an iterable of tables
    (ingest's chunks, joined) or of SessionRecords."""
    if isinstance(records, RecordTable):
        return records
    records = iter(records)
    first = next(records, None)
    if isinstance(first, RecordTable):
        return RecordTable.concat(chain([first], records))
    return RecordTable.from_records(() if first is None else chain([first], records))


class _IdMerger:
    """The distinct ids, by value, of one or more sequences of ids, in the
    order first seen."""

    def __init__(self):
        self.ids: list = []
        self._index: dict = {}

    def codes(self, ids) -> np.ndarray:
        """Each id's code among the merged ids, adding the new ones."""
        codes = np.empty(len(ids), np.int32)
        for k, i in enumerate(ids):
            code = self._index.get(i.value)
            if code is None:
                code = self._index[i.value] = len(self.ids)
                self.ids.append(i)
            codes[k] = code
        return codes


def _line_format(kind: EventKind) -> tuple[str, tuple]:
    """The printf format of a kind's canonical line and the columns of its
    values but the last: "ts" sorts after every other key."""
    keys = sorted(["ap", "device", *(name for name, _, _ in PAYLOAD_FIELDS[kind])])
    # An id or enum value needs no escaping; a number's repr is what json
    # writes for it.
    strings = {"ap", "device", "proto"}
    parts = [f'"kind": "{kind.value}"' if key == "kind"
             else f'"{key}": "%s"' if key in strings else f'"{key}": %r'
             for key in sorted([*keys, "kind"])]
    return "{" + ", ".join([*parts, '"ts": "%sZ"']) + "}\n", tuple(keys)


_LINES = tuple(_line_format(kind) for kind in KINDS)


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


@dataclass(frozen=True)
class Recommendation:
    action: Action
    rationale: str
    target: Optional[str] = None       # ApId value, None = network-wide
    linked_events: tuple = ()          # AnomalyEvent references

    def __post_init__(self):
        if self.target is None and not self.linked_events:
            raise FieldOutOfRange("target", "need a target AP or linked events")

    def to_json_dict(self, event_index: dict) -> dict:
        """``event_index`` maps id() of each run event to its position in
        anomalies.json; linked events are written as those positions."""
        return {
            "action": self.action.value,
            "target": self.target,
            "rationale": self.rationale,
            "linked_events": [event_index[id(e)] for e in self.linked_events],
        }
