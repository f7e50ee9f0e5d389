"""Phase 1: daily aggregates, per-AP load statistics, the hourly
concurrency profile, the day-of-week baseline, and the user/traffic
correlation check.

`describe` is the stage's one entry point; `wlantel run`, `wlantel
analyze` and the acceptance tests all go through it.  It groups the
records by local day once and pairs sessions once, over the whole window,
so a session that crosses local midnight is one session.  A session
belongs to the local day it starts on.  One concurrency rule, the
sessions open at each session's start, gives every AP-day's peak (the
overload counts) and every device-day's overlaps (the duplicate counts and
the device rules in `detection.rules`).

Everything here is a pure function over immutable validated records, so
evaluation order (or parallel sharding) cannot change results.
"""

from __future__ import annotations

import heapq
import math
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .domain import (
    BASELINE_METRICS,
    LOCAL_TZ,
    MAX_SESSION_MINUTES,
    MIN_BASELINE_DAYS,
    ApId,
    BaselineProfile,
    DailyAggregate,
    DeviceId,
    EventKind,
    InputError,
    Protocol,
    SessionRecord,
)

DEFAULT_OVERLOAD_THRESHOLD = 50      # concurrent clients per AP
DEFAULT_SHORT_SESSION_MINUTES = 1.0  # below this a disassoc is "unexpected"


class InsufficientData(InputError):
    pass


class ZeroVariance(ValueError):
    pass


@dataclass(frozen=True)
class ApStats:
    ap: ApId
    monthly_connections: int
    peak_concurrent: int
    mean_latency_ms: Optional[float]  # None when no health samples (missing != zero)
    mean_loss_pct: Optional[float]
    overloaded_days: int

    def to_json_dict(self) -> dict:
        return {
            "ap": self.ap.value,
            "monthly_connections": self.monthly_connections,
            "peak_concurrent": self.peak_concurrent,
            "mean_latency_ms": self.mean_latency_ms,
            "mean_loss_pct": self.mean_loss_pct,
            "overloaded_days": self.overloaded_days,
        }


@dataclass(frozen=True, slots=True)
class Session:
    """A paired Assoc/Disassoc interval [start, end) that began on local
    day ``day``."""

    device: DeviceId
    ap: ApId
    start: datetime
    end: datetime
    day: date


class DeviceDay(NamedTuple):
    """One device's overlapping sessions on one local day."""

    peak: int        # most sessions held at once, >= 2
    aps: frozenset   # ApIds held at once with another AP; empty if every overlap was on one AP


@dataclass(frozen=True)
class HourlyProfile:
    """Mean concurrent connections at the top of each local hour."""

    buckets: tuple  # 24 floats

    def __post_init__(self):
        if len(self.buckets) != 24 or any(b < 0 for b in self.buckets):
            raise ValueError("hourly profile needs 24 non-negative buckets")

    def argmax(self) -> int:
        return max(range(24), key=lambda h: self.buckets[h])


@dataclass(frozen=True)
class Description:
    """The descriptive stage's products for one window of records."""

    aggregates: tuple        # one DailyAggregate per observed day, in order
    baseline: BaselineProfile
    ap_stats: tuple          # ApStats, busiest AP first
    hourly: HourlyProfile
    device_days: dict        # (DeviceId, day) -> DeviceDay, overlapping device-days only


def describe(records: Sequence[SessionRecord],
             overload_threshold: int = DEFAULT_OVERLOAD_THRESHOLD) -> Description:
    """Run the whole descriptive stage over one window of records."""
    by_day = group_by_day(records)
    days = observed_days(by_day)
    sessions = pair_sessions(by_day)
    peaks = ap_day_peaks(sessions)
    overlaps = device_overlaps(sessions)
    overloaded = Counter(day for (_, day), peak in peaks.items() if peak > overload_threshold)
    duplicates = Counter(day for _, day in overlaps)
    aggregates = tuple(
        aggregate_daily(by_day.get(day, ()), day, overloaded[day], duplicates[day])
        for day in days
    )
    return Description(
        aggregates=aggregates,
        baseline=build_baseline(aggregates),
        ap_stats=tuple(ap_load_stats(records, peaks, overload_threshold)),
        hourly=hourly_profile(sessions, days),
        device_days=overlaps,
    )


def group_by_day(records: Iterable[SessionRecord]) -> dict:
    """Records by local day, in input order; the one place a record's
    local day is computed."""
    by_day: dict = defaultdict(list)
    for r in records:
        by_day[r.local_day()].append(r)
    return by_day


def observed_days(days: Iterable[date]) -> list[date]:
    """Inclusive local-day range spanned by ``days``."""
    days = list(days)
    if not days:
        return []
    first, last = min(days), max(days)
    return [first + timedelta(days=i) for i in range((last - first).days + 1)]


def pair_sessions(by_day: Mapping[date, Sequence[SessionRecord]]) -> list[Session]:
    """Pair Assoc with the next Disassoc per (device, ap), FIFO in time,
    across the whole window of ``group_by_day`` output.

    An Assoc with no matching Disassoc stays open until the last timestamp
    seen, but no longer than MAX_SESSION_MINUTES, the bound `validate` puts
    on a Disassoc's session length.  A Disassoc with no open Assoc is
    dropped (session began before the window).
    """
    open_assocs: dict = defaultdict(list)
    sessions: list[Session] = []
    last_ts = None
    # Days partition time, so day by day in time order is one global order.
    for day in sorted(by_day):
        events = sorted((r for r in by_day[day]
                         if r.kind in (EventKind.ASSOC, EventKind.DISASSOC)),
                        key=lambda r: r.ts)
        for r in events:
            last_ts = r.ts
            key = (r.device, r.ap)
            if r.kind is EventKind.ASSOC:
                open_assocs[key].append((r.ts, day))
            elif open_assocs[key]:
                start, start_day = open_assocs[key].pop(0)
                sessions.append(Session(r.device, r.ap, start, r.ts, start_day))
    longest = timedelta(minutes=MAX_SESSION_MINUTES)
    for (device, ap), starts in open_assocs.items():
        for start, start_day in starts:
            sessions.append(Session(device, ap, start, min(last_ts, start + longest),
                                    start_day))
    sessions.sort(key=lambda s: (s.start, s.ap.value, s.device.value))
    return sessions


def _open_at_starts(sessions: Iterable[Session], group):
    """Within each group of sessions sharing ``group(session)``, yield every
    session with the group's sessions open at its start, itself included:
    those that began no later and end after it begins.  A session that
    ends at the instant another begins is closed first."""
    groups: dict = defaultdict(list)
    for s in sessions:
        groups[group(s)].append(s)
    for members in groups.values():
        members.sort(key=lambda s: (s.start, s.end))
        held: list = []  # heap of (end, order, session)
        for i, s in enumerate(members):
            while held and held[0][0] <= s.start:
                heapq.heappop(held)
            heapq.heappush(held, (s.end, i, s))
            yield s, held


def ap_day_peaks(sessions: Iterable[Session]) -> dict:
    """(ApId, day) -> most sessions open on the AP at once, counted at the
    starts of the sessions that began that day."""
    peaks: dict = {}
    for s, held in _open_at_starts(sessions, attrgetter("ap")):
        key = (s.ap, s.day)
        peaks[key] = max(peaks.get(key, 0), len(held))
    return peaks


def device_overlaps(sessions: Iterable[Session]) -> dict:
    """(DeviceId, day) -> DeviceDay for every device-day on which a session
    began while another of the device's sessions was open, on any AP."""
    peaks: dict = {}
    aps: dict = defaultdict(set)
    for s, held in _open_at_starts(sessions, attrgetter("device")):
        if len(held) < 2:
            continue
        key = (s.device, s.day)
        peaks[key] = max(peaks.get(key, 0), len(held))
        other_aps = {h.ap for _, _, h in held if h.ap != s.ap}
        if other_aps:
            aps[key] |= other_aps | {s.ap}
    return {key: DeviceDay(peak, frozenset(aps.get(key, ()))) for key, peak in peaks.items()}


def aggregate_daily(records: Iterable[SessionRecord], day: date,
                    aps_overloaded: int, duplicate_devices: int) -> DailyAggregate:
    """Collapse one local day's records into a DailyAggregate.

    ``aps_overloaded`` and ``duplicate_devices`` are the day's counts of
    overloaded APs and overlapping devices, from its sessions.  An empty
    day yields the zero aggregate.
    """
    connections = 0
    auth_failures = 0
    session_minutes_sum = 0.0
    sessions_ended = 0
    unexpected = 0
    proto_bytes: dict = {p: 0 for p in Protocol}
    devices = set()
    aps = set()

    for r in records:
        if r.kind is not EventKind.AP_HEALTH:
            devices.add(r.device)
        aps.add(r.ap)
        if r.kind is EventKind.ASSOC:
            connections += 1
        elif r.kind is EventKind.AUTH_FAIL:
            auth_failures += 1
        elif r.kind is EventKind.DISASSOC:
            sessions_ended += 1
            session_minutes_sum += r.session_minutes
            if r.session_minutes < DEFAULT_SHORT_SESSION_MINUTES:
                unexpected += 1
        elif r.kind is EventKind.TRAFFIC:
            proto_bytes[r.proto] += r.bytes_up + r.bytes_down

    total_bytes = sum(proto_bytes.values())
    proto_share = (
        {p: b / total_bytes for p, b in proto_bytes.items()}
        if total_bytes > 0 else {p: 0.0 for p in Protocol}
    )

    aps_seen = len(aps)
    return DailyAggregate(
        day=day,
        connections=connections,
        distinct_devices=len(devices),
        mean_session_minutes=session_minutes_sum / sessions_ended if sessions_ended else 0.0,
        auth_failures=auth_failures,
        unexpected_disconnects=unexpected,
        traffic_gb=total_bytes / 10**9,
        overload_pct=100.0 * aps_overloaded / aps_seen if aps_seen else 0.0,
        proto_share=proto_share,
        duplicate_device_events=duplicate_devices,
        sessions_ended=sessions_ended,
        aps_seen=aps_seen,
        aps_overloaded=aps_overloaded,
    )


def ap_load_stats(records: Iterable[SessionRecord], day_peaks: Mapping,
                  overload_threshold: int = DEFAULT_OVERLOAD_THRESHOLD) -> list[ApStats]:
    """Per-AP connection counts, concurrency peaks, and health means;
    ``day_peaks`` is `ap_day_peaks` of the same records' sessions."""
    aps = set()
    connections: Counter = Counter()
    latencies: dict = defaultdict(list)
    losses: dict = defaultdict(list)
    for r in records:
        aps.add(r.ap)
        if r.kind is EventKind.ASSOC:
            connections[r.ap] += 1
        elif r.kind is EventKind.AP_HEALTH:
            latencies[r.ap].append(r.latency_ms)
            losses[r.ap].append(r.loss_pct)

    peak: Counter = Counter()
    overloaded_days: Counter = Counter()
    for (ap, _), n in day_peaks.items():
        peak[ap] = max(peak[ap], n)
        if n > overload_threshold:
            overloaded_days[ap] += 1

    stats = [
        ApStats(
            ap=ap,
            monthly_connections=connections[ap],
            peak_concurrent=peak[ap],
            mean_latency_ms=statistics.fmean(latencies[ap]) if latencies[ap] else None,
            mean_loss_pct=statistics.fmean(losses[ap]) if losses[ap] else None,
            overloaded_days=overloaded_days[ap],
        )
        for ap in aps
    ]
    stats.sort(key=lambda s: (-s.monthly_connections, s.ap.value))
    return stats


def hourly_profile(sessions: Iterable[Session], days: Sequence[date]) -> HourlyProfile:
    """Mean concurrent connections at the top of each local hour, averaged
    over ``days``, the observed day range.  A session counts at each hour
    mark in [start, end), on that mark's own day."""
    if not days:
        return HourlyProfile(buckets=tuple([0.0] * 24))

    counts: dict = defaultdict(int)  # (local day, hour) -> concurrency
    for s in sessions:
        start_local = s.start.astimezone(LOCAL_TZ)
        end_local = s.end.astimezone(LOCAL_TZ)
        mark = start_local.replace(minute=0, second=0, microsecond=0)
        if mark < start_local:
            mark += timedelta(hours=1)
        while mark < end_local:
            counts[(mark.date(), mark.hour)] += 1
            mark += timedelta(hours=1)

    n_days = len(days)
    day_set = set(days)
    buckets = [0.0] * 24
    for (d, h), c in counts.items():
        if d in day_set:
            buckets[h] += c
    return HourlyProfile(buckets=tuple(b / n_days for b in buckets))


def build_baseline(aggregates: Sequence[DailyAggregate]) -> BaselineProfile:
    """Per-day-of-week mean/std of every metric: `slot_stats` of each
    weekday over the window."""
    if len(aggregates) < MIN_BASELINE_DAYS:
        raise InsufficientData(
            f"need at least {MIN_BASELINE_DAYS} days, got {len(aggregates)}")

    ordered = sorted(aggregates, key=lambda a: a.day)
    slots, fallback = zip(*(slot_stats(ordered, dow) for dow in range(7)))
    return BaselineProfile(
        slots=slots,
        fallback=fallback,
        window_days=len(ordered),
        built_from=(ordered[0].day, ordered[-1].day),
    )


def slot_stats(aggregates: Sequence[DailyAggregate], dow: int) -> tuple[dict, bool]:
    """The one day-of-week slot rule: metric -> (mean, std) over the days
    on weekday ``dow``, or over every day (``fallback`` True) when fewer
    than MIN_BASELINE_DAYS fall on it."""
    days = [a for a in aggregates if a.day.weekday() == dow]
    fallback = len(days) < MIN_BASELINE_DAYS
    if fallback:
        days = aggregates
    return {m: _mean_std([a.metric(m) for a in days]) for m in BASELINE_METRICS}, fallback


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    mean = statistics.fmean(values)
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return mean, std


def correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient of two equal-length series."""
    if len(xs) != len(ys):
        raise ValueError("series lengths differ")
    if len(xs) < 3:
        raise ValueError("need at least 3 points")
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    dx = [x - mx for x in xs]
    dy = [y - my for y in ys]
    sx = math.sqrt(sum(d * d for d in dx))
    sy = math.sqrt(sum(d * d for d in dy))
    if sx == 0.0 or sy == 0.0:
        raise ZeroVariance("a constant series has no defined correlation")
    r = sum(a * b for a, b in zip(dx, dy)) / (sx * sy)
    return max(-1.0, min(1.0, r))
