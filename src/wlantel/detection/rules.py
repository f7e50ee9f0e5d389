"""Rule detectors: duplicate/simultaneous device sessions and per-protocol
traffic share deviations."""

from __future__ import annotations

from typing import Mapping

# bench/tracer.py patches pair_sessions here as well, so the name must stay.
from ..descriptive import pair_sessions  # noqa: F401
from ..domain import (
    AnomalyEvent,
    AnomalyType,
    BaselineProfile,
    DailyAggregate,
    Detector,
    Protocol,
)

from .features import STD_FLOOR
from .thresholds import DEFAULT_K

DEFAULT_MAX_CONCURRENT = 3


def detect_duplicate_devices(device_days: Mapping,
                             max_concurrent: int = DEFAULT_MAX_CONCURRENT) -> list[AnomalyEvent]:
    """Flag devices with more than max_concurrent overlapping sessions
    (SimultaneousConnections) and devices with overlapping sessions on two
    or more distinct APs (DuplicateDevice).

    ``device_days`` is `descriptive.device_overlaps` of the run's sessions.
    One event per (device, day, type); score is the concurrency reached
    resp. the number of APs held concurrently.
    """
    if max_concurrent < 1:
        raise ValueError("max_concurrent must be >= 1")

    events = []
    for (device, day), (peak, aps) in device_days.items():
        if peak > max_concurrent:
            events.append(AnomalyEvent(
                day=day,
                type=AnomalyType.SIMULTANEOUS_CONNECTIONS,
                detector=Detector.RULE,
                score=float(peak),
                device=device.value,
                evidence={
                    "peak_concurrent_sessions": peak,
                    "max_concurrent": max_concurrent,
                    "text": f"device held {peak} overlapping sessions "
                            f"(limit {max_concurrent})",
                },
            ))
        if aps:
            events.append(AnomalyEvent(
                day=day,
                type=AnomalyType.DUPLICATE_DEVICE,
                detector=Detector.RULE,
                score=float(len(aps)),
                device=device.value,
                evidence={
                    "aps": sorted(ap.value for ap in aps),
                    "text": f"device held overlapping sessions on "
                            f"{len(aps)} distinct APs",
                },
            ))
    events.sort(key=lambda e: (e.day, e.type.value, e.device or ""))
    return events


def protocol_anomaly(aggregate: DailyAggregate, baseline: BaselineProfile,
                     k: float = DEFAULT_K) -> list[AnomalyEvent]:
    """z-test each protocol's traffic share against the baseline slot.

    DNS deviations map to DnsAnomaly, others to TrafficSpike.  Days with
    no traffic are skipped (shares undefined).
    """
    if aggregate.traffic_gb <= 0:
        return []
    slot = aggregate.day.weekday()
    events = []
    for proto in Protocol:
        metric = f"proto_share_{proto.value}"
        mean, std = baseline.stats(slot, metric)
        share = aggregate.metric(metric)
        z = abs(share - mean) / max(std, STD_FLOOR)
        if z <= k:
            continue
        etype = (AnomalyType.DNS_ANOMALY if proto is Protocol.DNS
                 else AnomalyType.TRAFFIC_SPIKE)
        events.append(AnomalyEvent(
            day=aggregate.day,
            type=etype,
            detector=Detector.THRESHOLD,
            score=z,
            evidence={
                "proto": proto.value,
                "share": share,
                "baseline_mean": mean,
                "baseline_std": std,
                "k": k,
                "text": f"{proto.value} traffic share {share:.3f} deviates "
                        f"from baseline {mean:.3f} (z={z:.1f})",
            },
        ))
    return events
