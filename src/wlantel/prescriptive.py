"""Phase 3: map anomalies and AP statistics to recommended actions.

Recommendations are advisory artifacts only; nothing here touches network
hardware.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional, Sequence

from .descriptive import ApStats
from .detection.features import STD_FLOOR
from .detection.thresholds import DEFAULT_K
from .domain import (
    Action,
    AnomalyEvent,
    AnomalyType,
    ApId,
    BaselineProfile,
    DailyAggregate,
    Recommendation,
    Severity,
)

DEFAULT_LATENCY_BOUND_MS = 40.0
DEFAULT_LOSS_BOUND_PCT = 1.5

_SEVERITY_RANK = {Severity.LOW: 0, Severity.MEDIUM: 1, Severity.HIGH: 2}


def flag_aps(ap_stats: Sequence[ApStats],
             latency_bound_ms: float = DEFAULT_LATENCY_BOUND_MS,
             loss_bound_pct: float = DEFAULT_LOSS_BOUND_PCT,
             rule: str = "all") -> list[ApId]:
    """APs that are candidates for channel reassignment / load
    redistribution.

    Default rule "all" requires latency AND loss over their bounds;
    "any" accepts either.  APs with missing health data are never flagged.
    """
    if rule not in ("all", "any"):
        raise ValueError("rule must be 'all' or 'any'")
    flagged = []
    for s in ap_stats:
        if s.mean_latency_ms is None or s.mean_loss_pct is None:
            continue
        lat_over = s.mean_latency_ms > latency_bound_ms
        loss_over = s.mean_loss_pct > loss_bound_pct
        hit = (lat_over and loss_over) if rule == "all" else (lat_over or loss_over)
        if hit:
            flagged.append(s.ap)
    flagged.sort(key=lambda ap: ap.value)
    return flagged


def recommend(anomalies: Sequence[AnomalyEvent],
              ap_stats: Sequence[ApStats] = (),
              aggregates: Sequence[DailyAggregate] = (),
              baseline: Optional[BaselineProfile] = None,
              flag_rule: str = "all",
              k: float = DEFAULT_K) -> list[Recommendation]:
    """Rule table from anomalies and AP condition to actions, deduplicated
    by (target, action); each recommendation links its triggering events."""
    # (target, action) -> (rationale, [events])
    proposals: dict = {}

    def propose(action: Action, rationale: str, target: Optional[str] = None,
                events: Sequence[AnomalyEvent] = ()):
        key = (target, action)
        if key not in proposals:
            proposals[key] = (rationale, [])
        proposals[key][1].extend(events)

    for ap in flag_aps(ap_stats, rule=flag_rule):
        detail = next(s for s in ap_stats if s.ap == ap)
        rationale = (f"{ap.value}: mean latency {detail.mean_latency_ms:.0f} ms, "
                     f"mean loss {detail.mean_loss_pct:.1f} % exceed service bounds")
        propose(Action.CHANNEL_REASSIGN, rationale, target=ap.value)
        propose(Action.LOAD_REDISTRIBUTION, rationale, target=ap.value)

    by_type: dict = defaultdict(list)
    for e in anomalies:
        by_type[e.type].append(e)

    auth_bursts = [e for e in by_type[AnomalyType.AUTH_BURST]
                   if e.severity and _SEVERITY_RANK[e.severity] >= _SEVERITY_RANK[Severity.MEDIUM]]
    if auth_bursts:
        propose(Action.AUTH_POLICY_REVIEW,
                "bursts of failed authentications suggest automated or "
                "misconfigured access attempts",
                events=auth_bursts)

    segmentation_events = by_type[AnomalyType.DNS_ANOMALY] + \
        by_type[AnomalyType.SIMULTANEOUS_CONNECTIONS]
    if segmentation_events:
        propose(Action.SEGMENTATION,
                "unusual DNS flows and simultaneous device sessions warrant "
                "isolating affected segments",
                events=segmentation_events)

    overload_days = _overload_excess_days(aggregates, baseline, k)
    if len(overload_days) >= 3:
        propose(Action.CAPACITY_EXPANSION,
                f"AP overload ratio exceeded its baseline band on "
                f"{len(overload_days)} days",
                events=[e for e in by_type[AnomalyType.AP_OVERLOAD]
                        if e.day in overload_days] or by_type[AnomalyType.AP_OVERLOAD])

    out = []
    for (target, action), (rationale, events) in sorted(
            proposals.items(), key=lambda kv: (kv[0][0] or "", kv[0][1].value)):
        deduped = list({id(e): e for e in events}.values())
        if target is None and not deduped:
            continue  # network-wide actions need at least one linked event
        out.append(Recommendation(
            action=action,
            target=target,
            rationale=rationale,
            linked_events=tuple(deduped),
        ))
    return out


def _overload_excess_days(aggregates: Sequence[DailyAggregate],
                          baseline: Optional[BaselineProfile], k: float) -> set:
    """Days whose overload_pct sits more than k sigma above its baseline."""
    if baseline is None:
        return set()
    days = set()
    for agg in aggregates:
        mean, std = baseline.stats(agg.day.weekday(), "overload_pct")
        if agg.overload_pct - mean > k * max(std, STD_FLOOR):
            days.add(agg.day)
    return days
