"""Orchestration: ingest -> descriptive -> detection -> prescriptive, into
one Run that holds the run directory's payloads as they are written, plus
the precision/recall evaluation of a run against simulator ground truth.

A run is reproducible: identical (input digest, config, seeds) produce
identical artifacts; only the run id and wall-clock fields differ.
"""

from __future__ import annotations

import hashlib
import json
import time
import uuid
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

from . import __version__, descriptive
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
    InputError,
    as_table,
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
class Run:
    """A run as its directory holds it: the manifest and each artifact's
    JSON payload, field ``name`` being the file ``name.json``.
    `run_pipeline` builds one and `load_run` reads one back."""

    manifest: dict
    aggregates: list
    baseline: dict
    ap_stats: list
    hourly_profile: list
    anomalies: list
    recommendations: list
    daily_anomaly_counts: dict


# Each run file and the Run field holding its payload.
RUN_FILES = {f"{f.name}.json": f.name for f in fields(Run)}


def input_digest(records) -> str:
    """DIGEST_ALGORITHM over ``records``, a RecordTable or anything
    `as_table` takes."""
    h = hashlib.sha256()
    for lines in as_table(records).canonical_lines():
        h.update(lines.encode())
    return h.hexdigest()


def run_pipeline(records, config: PipelineConfig = PipelineConfig()) -> Run:
    """The whole analysis of ``records``: a RecordTable or anything
    `as_table` takes.  Given ingest's chunks as they are read, the "ingest"
    stage times the whole ingest; given a table, only the joining."""
    timings: dict = {}

    def staged(name, fn):
        t0 = time.perf_counter()
        result = fn()
        timings[name] = round(time.perf_counter() - t0, 4)
        return result

    table = staged("ingest", lambda: as_table(records))
    digest = staged("digest", lambda: input_digest(table))

    def _descriptive():
        desc = descriptive.describe(table, config.overload_threshold)
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

    del table  # build the payloads with the record table released
    anomalies = sorted(anomalies, key=lambda e: (
        e.day, e.type.value, e.detector.value, e.device or "", e.ap or ""))
    event_index = {id(e): i for i, e in enumerate(anomalies)}
    counts = Counter(e.day for e in anomalies)
    artifacts = {
        **descriptive_artifacts(aggregates, baseline, desc.ap_stats, desc.hourly.buckets),
        "anomalies.json": [e.to_json_dict() for e in anomalies],
        "recommendations.json": [r.to_json_dict(event_index) for r in recommendations],
        "daily_anomaly_counts.json": {a.day.isoformat(): counts[a.day] for a in aggregates},
    }
    return Run(**{RUN_FILES[name]: payload for name, payload in artifacts.items()}, manifest={
        "run_id": str(uuid.uuid4()),
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "input_digest": digest,
        "digest_algorithm": DIGEST_ALGORITHM,
        "config": config.to_json_dict(),
        "timings": timings,
        "ingest": None,
        "artifacts": sorted(artifacts),
    })


def save_run(run: Run, rundir: str, ingest: Optional[dict] = None) -> None:
    """Write ``run`` into ``rundir``, one file per `RUN_FILES` entry, with
    ``ingest`` (the ingest's accept/skip counts, `IngestStats.to_json_dict`)
    in the manifest.

    Every file except the manifest is a pure function of (input, config),
    so reruns byte-match; run id, creation time, timings, and the ingest
    counts live only in the manifest.
    """
    payloads = {name: getattr(run, field) for name, field in RUN_FILES.items()}
    write_artifacts(rundir, {**payloads, "manifest.json": {**run.manifest, "ingest": ingest}})


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


def write_artifacts(rundir: str, artifacts: dict) -> None:
    """Write each payload of ``artifacts`` (file name -> JSON value) into
    ``rundir``, creating it, as indented key-sorted JSON."""
    out = Path(rundir)
    out.mkdir(parents=True, exist_ok=True)
    for name, payload in artifacts.items():
        with open(out / name, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, ensure_ascii=False)
            fh.write("\n")


def load_run(rundir: str) -> Run:
    out = Path(rundir)

    def read(name):
        with open(out / name, "r", encoding="utf-8") as fh:
            return json.load(fh)

    return Run(**{field: read(name) for name, field in RUN_FILES.items()})


def evaluate(anomalies: Sequence[dict], ground_truth: GroundTruth,
             salt: Optional[Salt] = None) -> dict:
    """Precision/recall per anomaly type at day granularity, as the document
    `wlantel evaluate` prints: ``{"per_type": {type: row}, "overall_recall"}``.

    ``anomalies`` are a run's anomalies.json rows (`Run.anomalies`).
    An injection counts detected iff some event of its type falls on the
    same day; device/AP-scoped events must additionally name an injected
    device/AP.  Ground-truth devices are raw MACs, so labels that name
    devices need the ingest salt to map them onto event device ids; without
    it they raise InputError.
    """
    by_type_truth: dict = defaultdict(list)  # type -> [(day, device ids, aps)]
    for inj in ground_truth.injections:
        if inj.devices and salt is None:
            raise InputError(f"labels name devices ({inj.type.value} on {inj.day}); "
                             "matching them needs the salt the run was ingested with")
        devices = {anonymize_device(m, salt).value for m in inj.devices}
        by_type_truth[inj.type.value].append((inj.day.isoformat(), devices, inj.aps))
    by_type_events: dict = defaultdict(list)
    for e in anomalies:
        by_type_events[e["type"]].append(e)

    def matches(event, truth):
        day, devices, aps = truth
        if event["day"] != day:
            return False
        device, ap = event.get("device"), event.get("ap")
        if device is not None and device not in devices:
            return False
        if ap is not None and aps and ap not in aps:
            return False
        return True

    per_type: dict = {}
    total_injected = total_detected = 0
    for etype in sorted(set(by_type_truth) | set(by_type_events)):
        injections = by_type_truth.get(etype, [])
        events = by_type_events.get(etype, [])
        detected = sum(1 for truth in injections
                       if any(matches(e, truth) for e in events))
        tp_events = sum(1 for e in events
                        if any(matches(e, truth) for truth in injections))
        per_type[etype] = {
            "injected": len(injections),
            "detected": detected,
            "true_positive_events": tp_events,
            "false_positive_events": len(events) - tp_events,
            "recall": detected / len(injections) if injections else None,
            "precision": tp_events / len(events) if events else None,
        }
        total_injected += len(injections)
        total_detected += detected

    return {"per_type": per_type,
            "overall_recall": (total_detected / total_injected
                               if total_injected else None)}
