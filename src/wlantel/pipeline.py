"""Orchestration: ingest -> descriptive -> detection -> prescriptive, sealed
into one immutable AnalysisRun, plus the precision/recall evaluation of a
run against simulator ground truth.

A run is reproducible: identical (input digest, config, seeds) produce
identical artifacts; only the run id and wall-clock fields differ.
"""

from __future__ import annotations

import hashlib
import json
import time
import uuid
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

from . import descriptive
from .descriptive import DEFAULT_OVERLOAD_THRESHOLD, ApStats, InsufficientData
from .detection.classify import classify
from .detection.dbscan import NOISE, dbscan
from .detection.features import build_features
from .detection.iforest import fit_isolation_forest, iforest_score
from .detection.rules import DEFAULT_MAX_CONCURRENT, detect_duplicate_devices, protocol_anomaly
from .detection.thresholds import DEFAULT_K, DEFAULT_WINDOW, dynamic_threshold_alerts
from .domain import (
    AnomalyEvent,
    AnomalyType,
    BaselineProfile,
    DailyAggregate,
    Detector,
    EventKind,
    SessionRecord,
)
from .ingest import Salt, anonymize_device
from .simulator import GroundTruth

DIGEST_ALGORITHM = "sha256 over newline-joined canonical record JSON"

# Which daily series each threshold alert type watches.
THRESHOLD_SERIES = (
    ("auth_failures", AnomalyType.AUTH_BURST),
    ("traffic_gb", AnomalyType.TRAFFIC_SPIKE),
    ("overload_pct", AnomalyType.AP_OVERLOAD),
)


@dataclass(frozen=True)
class PipelineConfig:
    overload_threshold: int = DEFAULT_OVERLOAD_THRESHOLD
    window: int = DEFAULT_WINDOW
    k: float = DEFAULT_K
    max_concurrent: int = DEFAULT_MAX_CONCURRENT
    seed: int = 0
    flag_rule: str = "all"

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class AnalysisRun:
    run_id: str
    created: str
    input_digest: str
    config: PipelineConfig
    aggregates: tuple
    baseline: BaselineProfile
    ap_stats: tuple
    hourly_profile: tuple
    anomalies: tuple
    recommendations: tuple
    timings: dict

    def daily_anomaly_counts(self) -> dict:
        counts: dict = defaultdict(int)
        for e in self.anomalies:
            counts[e.day] += 1
        return {a.day: counts.get(a.day, 0) for a in self.aggregates}


def _canonical_line(r: SessionRecord) -> str:
    """The bytes of json.dumps(r.to_json_dict(), sort_keys=True) plus a
    newline, with one format per kind: ids and enum values need no
    escaping, and a float's repr is what json writes for it."""
    ts = r.ts.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")
    kind = r.kind
    if kind is EventKind.TRAFFIC:
        return (f'{{"ap": "{r.ap.value}", "bytes_down": {r.bytes_down}, "bytes_up": {r.bytes_up}, '
                f'"device": "{r.device.value}", "kind": "traffic", "proto": "{r.proto.value}", '
                f'"ts": "{ts}"}}\n')
    if kind is EventKind.DISASSOC:
        return (f'{{"ap": "{r.ap.value}", "device": "{r.device.value}", "kind": "disassoc", '
                f'"session_minutes": {r.session_minutes!r}, "ts": "{ts}"}}\n')
    if kind is EventKind.AP_HEALTH:
        return (f'{{"ap": "{r.ap.value}", "device": "{r.device.value}", "kind": "ap_health", '
                f'"latency_ms": {r.latency_ms!r}, "loss_pct": {r.loss_pct!r}, "ts": "{ts}"}}\n')
    return (f'{{"ap": "{r.ap.value}", "device": "{r.device.value}", "kind": "{kind.value}", '
            f'"ts": "{ts}"}}\n')


def input_digest(records: Sequence[SessionRecord]) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(_canonical_line(r).encode())
    return h.hexdigest()


def run_pipeline(records: Sequence[SessionRecord],
                 config: PipelineConfig = PipelineConfig()) -> AnalysisRun:
    timings: dict = {}

    def staged(name, fn):
        t0 = time.perf_counter()
        result = fn()
        timings[name] = round(time.perf_counter() - t0, 4)
        return result

    digest = staged("digest", lambda: input_digest(records))

    def _descriptive():
        desc = descriptive.describe(records, config.overload_threshold)
        if len(desc.aggregates) < 7:
            raise InsufficientData(
                f"need >= 7 days of records, got {len(desc.aggregates)}")
        return desc

    desc = staged("descriptive", _descriptive)
    aggregates, baseline = desc.aggregates, desc.baseline

    def _detection():
        events: list[AnomalyEvent] = []
        for metric, etype in THRESHOLD_SERIES:
            series = [(a.day, a.metric(metric)) for a in aggregates]
            events.extend(dynamic_threshold_alerts(
                series, etype, window=config.window, k=config.k, metric=metric))
        # Protocol-share z-tests compare each day against a profile built
        # without that day: a day skewed enough to alert would otherwise
        # inflate its own slot's variance and mask itself.
        for i, agg in enumerate(aggregates):
            others = aggregates[:i] + aggregates[i + 1:]
            stats, _ = descriptive.slot_stats(others, agg.day.weekday())
            events.extend(protocol_anomaly(agg, stats, k=config.k))
        events.extend(detect_duplicate_devices(desc.device_days, config.max_concurrent))

        features = build_features(aggregates, baseline)
        points = [f.values for f in features]
        model = fit_isolation_forest(points, seed=config.seed)
        for f in features:
            score = iforest_score(model, f.values)
            events.append(AnomalyEvent(
                day=f.day, type=AnomalyType.MULTIVARIATE_OUTLIER,
                detector=Detector.ISOLATION_FOREST, score=score,
                evidence={"features": list(f.values),
                          "text": f"isolation forest score {score:.3f}"},
            ))
        for f, label in zip(features, dbscan(points)):
            if label == NOISE:
                events.append(AnomalyEvent(
                    day=f.day, type=AnomalyType.MULTIVARIATE_OUTLIER,
                    detector=Detector.DBSCAN, score=1.0,
                    evidence={"features": list(f.values),
                              "text": "day is density noise in feature space"},
                ))
        return classify(events, k=config.k)

    anomalies = staged("detection", _detection)

    def _prescriptive():
        from .prescriptive import recommend
        return recommend(anomalies, desc.ap_stats, aggregates, baseline,
                         flag_rule=config.flag_rule, k=config.k)

    recommendations = staged("prescriptive", _prescriptive)

    return AnalysisRun(
        run_id=str(uuid.uuid4()),
        created=datetime.now(timezone.utc).isoformat(),
        input_digest=digest,
        config=config,
        aggregates=aggregates,
        baseline=baseline,
        ap_stats=desc.ap_stats,
        hourly_profile=desc.hourly.buckets,
        anomalies=tuple(sorted(anomalies, key=lambda e: (
            e.day, e.type.value, e.detector.value, e.device or "", e.ap or ""))),
        recommendations=tuple(recommendations),
        timings=timings,
    )


def save_run(run: AnalysisRun, rundir: str, ingest: Optional[dict] = None) -> None:
    """Persist a run as a directory of JSON artifacts plus a manifest.

    Every file except the manifest is a pure function of (input, config),
    so reruns byte-match; run id, creation time, timings, and the ingest's
    accept/skip counts (``ingest``, `IngestStats.to_json_dict`) live only
    in the manifest.
    """
    out = Path(rundir)
    out.mkdir(parents=True, exist_ok=True)

    event_index = {id(e): i for i, e in enumerate(run.anomalies)}
    artifacts = {
        **descriptive_artifacts(run.aggregates, run.baseline, run.ap_stats,
                                run.hourly_profile),
        "anomalies.json": [e.to_json_dict() for e in run.anomalies],
        "recommendations.json": [r.to_json_dict(event_index) for r in run.recommendations],
        "daily_anomaly_counts.json": {d.isoformat(): c
                                      for d, c in run.daily_anomaly_counts().items()},
    }
    for name, payload in artifacts.items():
        _write_json(out / name, payload)
    _write_json(out / "manifest.json", {
        "run_id": run.run_id,
        "created": run.created,
        "input_digest": run.input_digest,
        "digest_algorithm": DIGEST_ALGORITHM,
        "config": run.config.to_json_dict(),
        "timings": run.timings,
        "ingest": ingest,
        "artifacts": sorted(artifacts),
    })


def descriptive_artifacts(aggregates: Sequence[DailyAggregate],
                          baseline: BaselineProfile, ap_stats: Sequence[ApStats],
                          hourly_profile: Sequence[float]) -> dict:
    """The descriptive stage's artifacts by file name, as both `run` and
    `analyze` write them."""
    return {
        "aggregates.json": [a.to_json_dict() for a in aggregates],
        "baseline.json": baseline.to_json_dict(),
        "ap_stats.json": [s.to_json_dict() for s in ap_stats],
        "hourly_profile.json": list(hourly_profile),
    }


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


@dataclass(frozen=True)
class StoredRun:
    """Read-back view of a persisted run directory (plain JSON payloads)."""

    manifest: dict
    aggregates: list
    baseline: dict
    ap_stats: list
    hourly_profile: list
    anomalies: list
    recommendations: list
    daily_anomaly_counts: dict


def load_run(rundir: str) -> StoredRun:
    out = Path(rundir)

    def read(name):
        with open(out / name, "r", encoding="utf-8") as fh:
            return json.load(fh)

    return StoredRun(
        manifest=read("manifest.json"),
        aggregates=read("aggregates.json"),
        baseline=read("baseline.json"),
        ap_stats=read("ap_stats.json"),
        hourly_profile=read("hourly_profile.json"),
        anomalies=read("anomalies.json"),
        recommendations=read("recommendations.json"),
        daily_anomaly_counts=read("daily_anomaly_counts.json"),
    )


@dataclass(frozen=True)
class TypeQuality:
    injected: int
    detected: int
    true_positive_events: int
    false_positive_events: int

    @property
    def recall(self) -> Optional[float]:
        return self.detected / self.injected if self.injected else None

    @property
    def precision(self) -> Optional[float]:
        total = self.true_positive_events + self.false_positive_events
        return self.true_positive_events / total if total else None

    def to_json_dict(self) -> dict:
        return {
            "injected": self.injected,
            "detected": self.detected,
            "true_positive_events": self.true_positive_events,
            "false_positive_events": self.false_positive_events,
            "recall": self.recall,
            "precision": self.precision,
        }


def evaluate(anomalies: Sequence[AnomalyEvent], ground_truth: GroundTruth,
             salt: Optional[Salt] = None) -> dict:
    """Precision/recall per anomaly type at day granularity.

    An injection counts detected iff some event of its type falls on the
    same day; device/AP-scoped events must additionally name an injected
    device/AP.  Ground-truth devices are raw MACs, so the ingest salt maps
    them onto event device ids.
    """
    by_type_truth: dict = defaultdict(list)  # type -> [(injection, its device ids)]
    for inj in ground_truth.injections:
        devices = (set(inj.devices) if salt is None
                   else {anonymize_device(m, salt).value for m in inj.devices})
        by_type_truth[inj.type].append((inj, devices))
    by_type_events: dict = defaultdict(list)
    for e in anomalies:
        by_type_events[e.type].append(e)

    def matches(event, truth):
        inj, devices = truth
        if event.day != inj.day:
            return False
        if event.device is not None and event.device not in devices:
            return False
        if event.ap is not None and inj.aps and event.ap not in inj.aps:
            return False
        return True

    report: dict = {}
    all_types = sorted(set(by_type_truth) | set(by_type_events),
                       key=lambda t: t.value)
    total_injected = total_detected = 0
    for etype in all_types:
        injections = by_type_truth.get(etype, [])
        events = by_type_events.get(etype, [])
        detected = sum(1 for truth in injections
                       if any(matches(e, truth) for e in events))
        tp_events = sum(1 for e in events
                        if any(matches(e, truth) for truth in injections))
        report[etype] = TypeQuality(
            injected=len(injections),
            detected=detected,
            true_positive_events=tp_events,
            false_positive_events=len(events) - tp_events,
        )
        total_injected += len(injections)
        total_detected += detected

    report["overall_recall"] = (total_detected / total_injected
                                if total_injected else None)
    return report
