"""Daily feature vectors: z-scores of the day's metrics against the
baseline slot for its day of week."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Sequence

from ..domain import STD_FLOOR, BaselineProfile, DailyAggregate

# Fixed feature order; every consumer indexes by this tuple.
FEATURE_METRICS = (
    "connections",
    "mean_session_minutes",
    "auth_failures",
    "traffic_gb",
    "overload_pct",
    "proto_share_dns",
    "duplicate_device_events",
)


@dataclass(frozen=True)
class FeatureVector:
    day: date
    values: tuple  # len(FEATURE_METRICS) z-scores

    def __post_init__(self):
        if len(self.values) != len(FEATURE_METRICS):
            raise ValueError(f"expected {len(FEATURE_METRICS)} features, got {len(self.values)}")


def build_features(aggregates: Sequence[DailyAggregate],
                   baseline: BaselineProfile) -> list[FeatureVector]:
    out = []
    for agg in aggregates:
        slot = agg.day.weekday()
        values = []
        for metric in FEATURE_METRICS:
            mean, std = baseline.stats(slot, metric)
            values.append((agg.metric(metric) - mean) / max(std, STD_FLOOR))
        out.append(FeatureVector(day=agg.day, values=tuple(values)))
    return out
