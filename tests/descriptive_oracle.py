"""The descriptive stage as plain loops over SessionRecords: the reference
that `descriptive.describe`'s column passes must equal exactly, floats
included.

It pairs sessions with a FIFO queue per (device, AP), counts concurrency
with a heap of open sessions, adds session minutes in record order and
takes health means with `statistics.fmean`.
"""

from __future__ import annotations

import heapq
import statistics
from collections import Counter, defaultdict
from datetime import timedelta

from wlantel.descriptive import ApStats, DeviceDay, DEFAULT_SHORT_SESSION_MINUTES
from wlantel.domain import LOCAL_TZ, MAX_SESSION_MINUTES, DailyAggregate, EventKind, Protocol


def naive_describe(records, overload_threshold):
    """(aggregates, ap_stats, hourly buckets, device_days) of ``records``."""
    by_day = defaultdict(list)
    for r in records:
        by_day[r.local_day()].append(r)
    first, last = min(by_day), max(by_day)
    days = [first + timedelta(days=i) for i in range((last - first).days + 1)]
    sessions = pair_sessions(by_day)
    peaks = ap_day_peaks(sessions)
    overlaps = device_overlaps(sessions)
    overloaded = Counter(day for (_, day), peak in peaks.items() if peak > overload_threshold)
    duplicates = Counter(day for _, day in overlaps)
    aggregates = [aggregate_daily(by_day.get(day, ()), day, overloaded[day], duplicates[day])
                  for day in days]
    return (aggregates, ap_load_stats(records, peaks, overload_threshold),
            hourly_buckets(sessions, days), overlaps)


def pair_sessions(by_day):
    """(device, ap, start, end, start day) per session, FIFO per (device,
    ap) in time order, ties in input order."""
    queues = defaultdict(list)
    sessions = []
    last_ts = None
    for day in sorted(by_day):
        for r in sorted((r for r in by_day[day]
                         if r.kind in (EventKind.ASSOC, EventKind.DISASSOC)),
                        key=lambda r: r.ts):
            last_ts = r.ts
            queue = queues[(r.device, r.ap)]
            if r.kind is EventKind.ASSOC:
                queue.append((r.ts, day))
            elif queue:
                start, start_day = queue.pop(0)
                sessions.append((r.device, r.ap, start, r.ts, start_day))
    for (device, ap), queue in queues.items():
        for start, start_day in queue:
            end = min(last_ts, start + timedelta(minutes=MAX_SESSION_MINUTES))
            sessions.append((device, ap, start, end, start_day))
    return sessions


def open_at_starts(sessions, group):
    """Each session with the sessions of its group open at its start."""
    groups = defaultdict(list)
    for s in sessions:
        groups[group(s)].append(s)
    for members in groups.values():
        members.sort(key=lambda s: (s[2], s[3]))
        held = []
        for i, s in enumerate(members):
            while held and held[0][0] <= s[2]:
                heapq.heappop(held)
            heapq.heappush(held, (s[3], i, s))
            yield s, held


def ap_day_peaks(sessions):
    peaks = {}
    for s, held in open_at_starts(sessions, lambda s: s[1]):
        key = (s[1], s[4])
        peaks[key] = max(peaks.get(key, 0), len(held))
    return peaks


def device_overlaps(sessions):
    peaks, aps = {}, defaultdict(set)
    for s, held in open_at_starts(sessions, lambda s: s[0]):
        if len(held) < 2:
            continue
        key = (s[0], s[4])
        peaks[key] = max(peaks.get(key, 0), len(held))
        other = {h[1] for _, _, h in held if h[1] != s[1]}
        if other:
            aps[key] |= other | {s[1]}
    return {key: DeviceDay(peak, frozenset(aps.get(key, ()))) for key, peak in peaks.items()}


def aggregate_daily(records, day, aps_overloaded, duplicate_devices):
    connections = auth_failures = sessions_ended = unexpected = 0
    minutes = 0.0
    proto_bytes = {p: 0 for p in Protocol}
    devices, aps = set(), set()
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
            minutes += r.session_minutes
            unexpected += r.session_minutes < DEFAULT_SHORT_SESSION_MINUTES
        elif r.kind is EventKind.TRAFFIC:
            proto_bytes[r.proto] += r.bytes_up + r.bytes_down
    total = sum(proto_bytes.values())
    return DailyAggregate(
        day=day, connections=connections, distinct_devices=len(devices),
        mean_session_minutes=minutes / sessions_ended if sessions_ended else 0.0,
        auth_failures=auth_failures, unexpected_disconnects=unexpected,
        traffic_gb=total / 10**9,
        overload_pct=100.0 * aps_overloaded / len(aps) if aps else 0.0,
        proto_share={p: b / total if total > 0 else 0.0 for p, b in proto_bytes.items()},
        duplicate_device_events=duplicate_devices, sessions_ended=sessions_ended,
        aps_seen=len(aps), aps_overloaded=aps_overloaded)


def ap_load_stats(records, peaks, overload_threshold):
    aps = {r.ap for r in records}
    connections = Counter(r.ap for r in records if r.kind is EventKind.ASSOC)
    latencies, losses = defaultdict(list), defaultdict(list)
    for r in records:
        if r.kind is EventKind.AP_HEALTH:
            latencies[r.ap].append(r.latency_ms)
            losses[r.ap].append(r.loss_pct)
    peak, overloaded = Counter(), Counter()
    for (ap, _), n in peaks.items():
        peak[ap] = max(peak[ap], n)
        overloaded[ap] += n > overload_threshold
    stats = [ApStats(ap=ap, monthly_connections=connections[ap], peak_concurrent=peak[ap],
                     mean_latency_ms=statistics.fmean(latencies[ap]) if latencies[ap] else None,
                     mean_loss_pct=statistics.fmean(losses[ap]) if losses[ap] else None,
                     overloaded_days=overloaded[ap])
             for ap in aps]
    stats.sort(key=lambda s: (-s.monthly_connections, s.ap.value))
    return stats


def hourly_buckets(sessions, days):
    counts = Counter()
    for _, _, start, end, _ in sessions:
        start, end = start.astimezone(LOCAL_TZ), end.astimezone(LOCAL_TZ)
        mark = start.replace(minute=0, second=0, microsecond=0)
        if mark < start:
            mark += timedelta(hours=1)
        while mark < end:
            counts[(mark.date(), mark.hour)] += 1
            mark += timedelta(hours=1)
    buckets = [0.0] * 24
    for (d, h), c in counts.items():
        if d in set(days):
            buckets[h] += c
    return tuple(b / len(days) for b in buckets)
