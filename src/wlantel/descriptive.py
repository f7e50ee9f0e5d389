"""Phase 1: daily aggregates, per-AP load statistics, the hourly
concurrency profile, and the day-of-week baseline.

`describe` is the stage's one entry point; `wlantel run`, `wlantel
analyze` and the acceptance tests all go through it.  Every pass reads
one RecordTable, whose ``day`` column is the one place a record's local
day is computed.  Sessions are paired once, over the whole window, so a
session that crosses local midnight is one session.  A session belongs to
the local day it starts on.  One concurrency rule, the sessions open at
each session's start, gives every AP-day's peak (the overload counts) and
every device-day's overlaps (the duplicate counts and the device rules in
`detection.rules`).

Everything here is a pure function of the table's rows, so evaluation
order cannot change results.  Sums keep the order of the record loop they
replace: session minutes add up in record order, and health means are
`math.fsum` means.  The baseline's means and standard deviations come
from exact sums (`exact`), so they do not depend on the interpreter's
`statistics` module, and leaving one day out of them costs O(1).
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import date
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import exact
from .domain import (
    BASELINE_METRICS,
    GIGABYTE,
    KINDS,
    MAX_SESSION_MINUTES,
    MIN_BASELINE_DAYS,
    PROTOCOLS,
    ApId,
    BaselineProfile,
    DailyAggregate,
    EventKind,
    InputError,
    RecordTable,
    as_table,
    day_date,
    local_seconds,
)

DEFAULT_OVERLOAD_THRESHOLD = 50      # concurrent clients per AP
DEFAULT_SHORT_SESSION_MINUTES = 1.0  # below this a disassoc is "unexpected"

_ASSOC, _DISASSOC, _AUTH_FAIL, _TRAFFIC, _AP_HEALTH = (
    KINDS.index(k) for k in (EventKind.ASSOC, EventKind.DISASSOC, EventKind.AUTH_FAIL,
                             EventKind.TRAFFIC, EventKind.AP_HEALTH))
_LONGEST_SESSION_S = round(MAX_SESSION_MINUTES * 60)
_HOUR_S = 3600


class InsufficientData(InputError):
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


@dataclass(frozen=True)
class Sessions:
    """Paired Assoc/Disassoc intervals [start, end) as columns, in order of
    start.  ``device`` and ``ap`` are codes into the table's ``devices`` and
    ``aps``; ``day`` is the local day each one began on."""

    device: np.ndarray  # int32
    ap: np.ndarray      # int32
    start: np.ndarray   # int64 epoch seconds
    end: np.ndarray
    day: np.ndarray     # int64, as RecordTable.day
    devices: tuple
    aps: tuple

    def __len__(self) -> int:
        return len(self.start)


@dataclass(frozen=True)
class ApDayPeaks:
    """Most sessions open on an AP at once per (AP, local day), counted at
    the starts of the sessions that began that day, one row per AP-day with
    a session."""

    ap: np.ndarray    # int32 codes into the table's ``aps``
    day: np.ndarray   # int64, as RecordTable.day
    peak: np.ndarray  # int64


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


@dataclass(frozen=True)
class Description:
    """The descriptive stage's products for one window of records."""

    aggregates: tuple        # one DailyAggregate per observed day, in order
    baseline: BaselineProfile
    ap_stats: tuple          # ApStats, busiest AP first
    hourly: HourlyProfile
    device_days: dict        # (DeviceId, day) -> DeviceDay, overlapping device-days only


def describe(records, overload_threshold: int = DEFAULT_OVERLOAD_THRESHOLD) -> Description:
    """Run the whole descriptive stage over one window of records: a
    RecordTable, or anything `as_table` takes."""
    table = as_table(records)
    days = observed_days(table)
    sessions = pair_sessions(table)
    peaks = ap_day_peaks(sessions)
    overlaps = device_overlaps(sessions)
    first = _day_index(days[0]) if days else 0
    overloaded = np.bincount(peaks.day[peaks.peak > overload_threshold] - first,
                             minlength=len(days))
    duplicates = Counter(day for _, day in overlaps)
    aggregates = aggregate_daily(table, days, overloaded.tolist(),
                                 [duplicates[day] for day in days])
    return Description(
        aggregates=aggregates,
        baseline=build_baseline(aggregates),
        ap_stats=tuple(ap_load_stats(table, peaks, overload_threshold)),
        hourly=hourly_profile(sessions, days),
        device_days=overlaps,
    )


def observed_days(table: RecordTable) -> list[date]:
    """Inclusive local-day range spanned by the table's records."""
    if not len(table):
        return []
    first, last = int(table.day.min()), int(table.day.max())
    return [day_date(d) for d in range(first, last + 1)]


def _day_index(day: date) -> int:
    return (day - day_date(0)).days


def pair_sessions(table: RecordTable) -> Sessions:
    """Pair Assoc with the next Disassoc per (device, ap), FIFO in time,
    across the whole window; records of one instant keep their input order.

    An Assoc with no matching Disassoc stays open until the last timestamp
    seen, but no longer than MAX_SESSION_MINUTES, the bound `validate` puts
    on a Disassoc's session length.  A Disassoc with no open Assoc is
    dropped (session began before the window).
    """
    events = np.flatnonzero((table.kind == _ASSOC) | (table.kind == _DISASSOC))
    # Per (device, ap) key in time order, ties in input order.
    events = events[np.lexsort((table.ts[events], table.ap[events], table.device[events]))]
    device, ap, ts = table.device[events], table.ap[events], table.ts[events]
    assoc = table.kind[events] == _ASSOC
    n = len(events)
    new_key = np.ones(n, bool)
    new_key[1:] = (device[1:] != device[:-1]) | (ap[1:] != ap[:-1])
    key = np.cumsum(new_key) - 1
    key_start = np.flatnonzero(new_key)
    # Assocs open after each event: the walk of +1 per Assoc and -1 per
    # Disassoc, held at zero when a Disassoc finds nothing open, is the walk
    # minus its running minimum (at most 0) within the key.  Shifting each
    # key below the ones before it lets one running minimum serve all keys.
    step = np.where(assoc, 1, -1)
    walk = np.cumsum(step)
    walk -= (walk[key_start] - step[key_start])[key]
    del step
    shift = key * (2 * n + 2)
    lowest = np.minimum.accumulate(walk - shift)
    lowest += shift
    del shift
    walk -= np.minimum(lowest, 0, out=lowest)
    # A Disassoc closes a session when an Assoc was open before it; FIFO,
    # a key's j-th closing Disassoc ends its j-th Assoc.
    closes = np.zeros(n, bool)
    closes[1:] = walk[:-1] > 0
    closes &= ~(assoc | new_key)
    del walk
    close_at = np.flatnonzero(closes)
    close_key = key[close_at]
    closes_before = np.cumsum(closes) - closes
    nth_close = closes_before[close_at] - closes_before[key_start][close_key]
    assoc_at = np.flatnonzero(assoc)
    opened_at = assoc_at[(np.cumsum(assoc) - assoc)[key_start][close_key] + nth_close]
    left_open = np.setdiff1d(assoc_at, opened_at, assume_unique=True)
    start_at = np.concatenate([opened_at, left_open])
    last_ts = ts.max() if n else 0
    end = np.concatenate([ts[close_at], np.minimum(last_ts, ts[left_open] + _LONGEST_SESSION_S)])
    order = np.argsort(ts[start_at], kind="stable")
    start_at = start_at[order]
    return Sessions(device=device[start_at], ap=ap[start_at], start=ts[start_at],
                    end=end[order], day=table.day[events[start_at]],
                    devices=table.devices, aps=table.aps)


def _held_at_starts(group: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """For each session, how many sessions of its ``group`` are open at its
    start, itself included: those that began no later and end after it
    begins.  A session that ends at the instant another begins is closed
    first.  Sessions of a group are taken in (start, end) order, a session
    counting only those before it; ties keep their order."""
    n = len(start)
    order = np.lexsort((end, start, group))
    g, s, e = group[order], start[order], end[order]
    new_group = np.ones(n, bool)
    new_group[1:] = g[1:] != g[:-1]
    position = np.arange(n) - np.flatnonzero(new_group)[np.cumsum(new_group) - 1]
    # Ends at or before each start within the group, on times ranked so that
    # (group, time) packs into one sortable integer.
    times, rank = np.unique(np.concatenate([s, e]), return_inverse=True)
    s_rank, e_rank = rank[:n], rank[n:]
    packed_ends = np.sort(g.astype(np.int64) * len(times) + e_rank)
    ended = (np.searchsorted(packed_ends, g.astype(np.int64) * len(times) + s_rank, "right")
             - np.searchsorted(packed_ends, g.astype(np.int64) * len(times), "left"))
    # Of those, the zero-length sessions that start at this same instant and
    # come at or after this one are not before it.
    new_instant = new_group.copy()
    new_instant[1:] |= s[1:] != s[:-1]
    instant = np.cumsum(new_instant) - 1
    rank_in_instant = np.arange(n) - np.flatnonzero(new_instant)[instant]
    zero_length = np.bincount(instant, weights=e == s).astype(np.int64)[instant]
    held = np.empty(n, np.int64)
    held[order] = position + 1 - ended + np.maximum(0, zero_length - rank_in_instant)
    return held


def ap_day_peaks(sessions: Sessions) -> ApDayPeaks:
    """Most sessions open on each AP at once, per AP and local day, counted
    at the starts of the sessions that began that day."""
    held = _held_at_starts(sessions.ap, sessions.start, sessions.end)
    keys, inverse = np.unique(np.stack([sessions.ap.astype(np.int64), sessions.day]),
                              axis=1, return_inverse=True)
    peak = np.zeros(keys.shape[1], np.int64)
    np.maximum.at(peak, inverse.reshape(-1), held)
    return ApDayPeaks(ap=keys[0].astype(np.int32), day=keys[1], peak=peak)


def device_overlaps(sessions: Sessions) -> dict:
    """(DeviceId, day) -> DeviceDay for every device-day on which a session
    began while another of the device's sessions was open, on any AP."""
    held = _held_at_starts(sessions.device, sessions.start, sessions.end)
    overlapping = np.isin(sessions.device, sessions.device[held >= 2])
    peaks: dict = {}
    aps: dict = defaultdict(set)
    # Replay only the devices that overlap, to name the APs held at once.
    members: dict = defaultdict(list)
    for i in np.flatnonzero(overlapping).tolist():
        members[int(sessions.device[i])].append(
            (int(sessions.start[i]), int(sessions.end[i]), int(sessions.ap[i]), int(sessions.day[i])))
    for device, spans in members.items():
        spans.sort(key=lambda span: span[:2])
        open_: list = []  # heap of (end, order, ap)
        for i, (start, end, ap, day) in enumerate(spans):
            while open_ and open_[0][0] <= start:
                heapq.heappop(open_)
            heapq.heappush(open_, (end, i, ap))
            if len(open_) < 2:
                continue
            key = (sessions.devices[device], day_date(day))
            peaks[key] = max(peaks.get(key, 0), len(open_))
            other_aps = {a for _, _, a in open_ if a != ap}
            if other_aps:
                aps[key] |= {sessions.aps[a] for a in other_aps | {ap}}
    return {key: DeviceDay(peak, frozenset(aps.get(key, ()))) for key, peak in peaks.items()}


def aggregate_daily(table: RecordTable, days: Sequence[date],
                    aps_overloaded: Sequence[int],
                    duplicate_devices: Sequence[int]) -> tuple:
    """One DailyAggregate per day of ``days``, the observed day range, from
    the table's records of that local day.

    ``aps_overloaded`` and ``duplicate_devices`` are each day's counts of
    overloaded APs and overlapping devices, from its sessions.  A day
    without records yields the zero aggregate.
    """
    if not days:
        return ()
    n_days = len(days)
    day = table.day - _day_index(days[0])
    kind = table.kind

    def per_day(rows):
        return np.bincount(day[rows], minlength=n_days).tolist()

    def distinct_per_day(rows, codes, n_codes):
        pairs = np.unique(day[rows] * max(n_codes, 1) + codes[rows])
        return np.bincount(pairs // max(n_codes, 1), minlength=n_days).tolist()

    disassoc = np.flatnonzero(kind == _DISASSOC)
    minutes = table.session_minutes[disassoc]
    by_day = np.argsort(day[disassoc], kind="stable")
    day_minutes = minutes[by_day]
    bounds = np.searchsorted(day[disassoc][by_day], np.arange(n_days + 1))
    minutes_sum = [_sequential_sum(day_minutes[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    traffic = np.flatnonzero(kind == _TRAFFIC)
    proto_bytes = _exact_sums(day[traffic] * len(PROTOCOLS) + table.proto[traffic],
                              (table.bytes_up[traffic], table.bytes_down[traffic]),
                              n_days * len(PROTOCOLS))
    connections = per_day(kind == _ASSOC)
    auth_failures = per_day(kind == _AUTH_FAIL)
    sessions_ended = per_day(disassoc)
    unexpected = per_day(disassoc[minutes < DEFAULT_SHORT_SESSION_MINUTES])
    devices = distinct_per_day(kind != _AP_HEALTH, table.device, len(table.devices))
    aps_seen = distinct_per_day(slice(None), table.ap, len(table.aps))

    aggregates = []
    for i, d in enumerate(days):
        by_proto = proto_bytes[i * len(PROTOCOLS):(i + 1) * len(PROTOCOLS)]
        total_bytes = sum(by_proto)
        proto_share = {p: (b / total_bytes if total_bytes > 0 else 0.0)
                       for p, b in zip(PROTOCOLS, by_proto)}
        aggregates.append(DailyAggregate(
            day=d,
            connections=connections[i],
            distinct_devices=devices[i],
            mean_session_minutes=(minutes_sum[i] / sessions_ended[i]
                                  if sessions_ended[i] else 0.0),
            auth_failures=auth_failures[i],
            unexpected_disconnects=unexpected[i],
            traffic_gb=total_bytes / GIGABYTE,
            overload_pct=(100.0 * aps_overloaded[i] / aps_seen[i] if aps_seen[i] else 0.0),
            proto_share=proto_share,
            duplicate_device_events=duplicate_devices[i],
            sessions_ended=sessions_ended[i],
            aps_seen=aps_seen[i],
            aps_overloaded=aps_overloaded[i],
        ))
    return tuple(aggregates)


def _sequential_sum(values: np.ndarray) -> float:
    """0.0 plus each value in turn, as a Python loop adds them."""
    return float(np.cumsum(np.concatenate([[0.0], values]))[-1])


def _exact_sums(keys: np.ndarray, columns: tuple, size: int) -> list[int]:
    """Exact integer sums of ``columns`` per key in [0, size): in int64
    when no sum can overflow it, else in Python ints."""
    sums = np.zeros(size, np.int64)
    bound = int(np.iinfo(np.int64).max) // max(len(keys) * len(columns), 1)
    if any(c.dtype == object or (len(c) and int(c.max()) > bound) for c in columns):
        sums = sums.astype(object)
    for column in columns:
        np.add.at(sums, keys, column)
    return sums.tolist()


def ap_load_stats(table: RecordTable, day_peaks: ApDayPeaks,
                  overload_threshold: int = DEFAULT_OVERLOAD_THRESHOLD) -> list[ApStats]:
    """Per-AP connection counts, concurrency peaks, and health means;
    ``day_peaks`` is `ap_day_peaks` of the same records' sessions."""
    n_aps = len(table.aps)
    connections = np.bincount(table.ap[table.kind == _ASSOC], minlength=n_aps).tolist()
    peak = np.zeros(n_aps, np.int64)
    np.maximum.at(peak, day_peaks.ap, day_peaks.peak)
    overloaded_days = np.bincount(day_peaks.ap[day_peaks.peak > overload_threshold],
                                  minlength=n_aps).tolist()
    health = np.flatnonzero(table.kind == _AP_HEALTH)
    health = health[np.argsort(table.ap[health], kind="stable")]
    bounds = np.searchsorted(table.ap[health], np.arange(n_aps + 1))

    def mean(column, ap):
        values = column[health[bounds[ap]:bounds[ap + 1]]]
        return math.fsum(values.tolist()) / len(values) if len(values) else None

    stats = [
        ApStats(
            ap=table.aps[ap],
            monthly_connections=connections[ap],
            peak_concurrent=int(peak[ap]),
            mean_latency_ms=mean(table.latency_ms, ap),
            mean_loss_pct=mean(table.loss_pct, ap),
            overloaded_days=overloaded_days[ap],
        )
        for ap in np.unique(table.ap).tolist()
    ]
    stats.sort(key=lambda s: (-s.monthly_connections, s.ap.value))
    return stats


def hourly_profile(sessions: Sessions, days: Sequence[date]) -> HourlyProfile:
    """Mean concurrent connections at the top of each local hour, averaged
    over ``days``, the observed day range.  A session counts at each hour
    mark in [start, end), on that mark's own day."""
    if not days:
        return HourlyProfile(buckets=tuple([0.0] * 24))
    # Local hour marks counted from the first observed day's midnight: a
    # session holds marks [ceil(start), ceil(end)), clipped to the observed
    # days, and a difference array adds them all up.
    first_mark = _day_index(days[0]) * 24
    n_marks = 24 * len(days)
    lo, hi = (np.clip(-(-local_seconds(t) // _HOUR_S) - first_mark, 0, n_marks)
              for t in (sessions.start, sessions.end))
    held = np.cumsum(np.bincount(lo, minlength=n_marks + 1)
                     - np.bincount(hi, minlength=n_marks + 1))[:n_marks]
    buckets = held.reshape(len(days), 24).sum(axis=0).tolist()
    return HourlyProfile(buckets=tuple(b / len(days) for b in buckets))


def build_baseline(aggregates: Sequence[DailyAggregate]) -> BaselineProfile:
    """Per-day-of-week mean/std of every metric, by the slot rule (see
    `_SlotSums.slot`)."""
    if len(aggregates) < MIN_BASELINE_DAYS:
        raise InsufficientData(
            f"need at least {MIN_BASELINE_DAYS} days, got {len(aggregates)}")

    sums = _SlotSums(aggregates, BASELINE_METRICS)
    slots, fallback = zip(*(sums.slot(dow) for dow in range(7)))
    days = [a.day for a in aggregates]
    return BaselineProfile(
        slots=slots,
        fallback=fallback,
        window_days=len(aggregates),
        built_from=(min(days), max(days)),
    )


def leave_one_out_stats(aggregates: Sequence[DailyAggregate],
                        metrics: Sequence[str]) -> list[tuple[dict, bool]]:
    """For each of ``aggregates``, the slot rule over the other days: each
    of ``metrics`` -> (mean, std) over the others on its weekday, or over
    all the others (``fallback`` True) when fewer than MIN_BASELINE_DAYS of
    them fall on it.  Each day's own terms are taken out of the window's
    sums, so the whole list costs one pass over the days."""
    sums = _SlotSums(aggregates, metrics)
    return [sums.slot(dow, leave_out=i) for i, dow in enumerate(sums.weekdays)]


class _SlotSums:
    """Exact sums (`exact.scaled` ints and their squares) of ``metrics``
    per weekday and over all of ``aggregates``."""

    def __init__(self, aggregates: Sequence[DailyAggregate], metrics: Sequence[str]):
        self.weekdays = [a.day.weekday() for a in aggregates]
        # Index 0-6 is a weekday, index 7 every day.
        self.counts = [self.weekdays.count(dow) for dow in range(7)] + [len(aggregates)]
        self.terms: dict = {}  # metric -> (ints, den, [[total, squares]] * 8)
        for m in metrics:
            ints, den = exact.scaled([a.metric(m) for a in aggregates])
            sums = [[0, 0] for _ in range(8)]
            for x, dow in zip(ints, self.weekdays):
                for pair in (sums[dow], sums[7]):
                    pair[0] += x
                    pair[1] += x * x
            self.terms[m] = (ints, den, sums)

    def slot(self, dow: int, leave_out: Optional[int] = None) -> tuple[dict, bool]:
        """The one day-of-week slot rule: metric -> (mean, std) over the
        days on weekday ``dow``, or over every day (``fallback`` True) when
        fewer than MIN_BASELINE_DAYS fall on it; without the day at index
        ``leave_out``, which falls on ``dow``, when one is given."""
        left = int(leave_out is not None)
        fallback = self.counts[dow] - left < MIN_BASELINE_DAYS
        key = 7 if fallback else dow
        stats = {}
        for m, (ints, den, sums) in self.terms.items():
            total, squares = sums[key]
            if left:
                total -= ints[leave_out]
                squares -= ints[leave_out] * ints[leave_out]
            stats[m] = exact.mean_std(self.counts[key] - left, total, squares, den)
        return stats, fallback
