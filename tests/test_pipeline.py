"""End-to-end orchestration: staging, persistence, rerun determinism, and
the evaluation harness."""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

import pytest

import wlantel
from conftest import TEST_SALT_HEX
from wlantel import descriptive
from wlantel.cli import main
from wlantel.descriptive import InsufficientData
from wlantel.domain import (
    AnomalyEvent,
    AnomalyType,
    Detector,
    EventKind,
    Severity,
    validate,
)
from wlantel.ingest import Salt, anonymize_device, ingest_stream
from wlantel.pipeline import (
    PipelineConfig,
    evaluate,
    input_digest,
    load_run,
    run_pipeline,
    save_run,
)
from wlantel.report import render_report
from wlantel.simulator import GroundTruth, Injection, SimConfig, generate_month

DAY = date(2025, 3, 10)


class TestRunPipeline:
    def test_produces_all_artifacts(self, month_run):
        assert len(month_run.aggregates) == 30
        assert len(month_run.hourly_profile) == 24
        assert month_run.ap_stats
        assert month_run.anomalies
        assert month_run.recommendations
        assert set(month_run.manifest["timings"]) == {"ingest", "digest", "descriptive",
                                                      "detection", "prescriptive"}

    def test_anomalies_sorted_and_classified(self, month_run):
        keys = [(e["day"], e["type"], e["detector"], e["device"] or "", e["ap"] or "")
                for e in month_run.anomalies]
        assert keys == sorted(keys)
        assert all(e["severity"] is not None for e in month_run.anomalies)

    def test_daily_counts_cover_every_day(self, month_run):
        counts = month_run.daily_anomaly_counts
        assert len(counts) == 30
        assert sum(counts.values()) == len(month_run.anomalies)

    def test_rerun_identical_except_run_id_and_timing(self, month_records):
        a = run_pipeline(month_records, PipelineConfig())
        b = run_pipeline(month_records, PipelineConfig())
        assert a.manifest["run_id"] != b.manifest["run_id"]
        wall_clock = ("run_id", "created", "timings")
        assert replace(a, manifest={k: v for k, v in a.manifest.items() if k not in wall_clock}) \
            == replace(b, manifest={k: v for k, v in b.manifest.items() if k not in wall_clock})

    def test_requires_seven_days(self, salt):
        trace, _ = generate_month(
            SimConfig(days=7, weekday_users=200.0, weekend_users=150.0,
                      device_pool=600, ap_count=15, auth_fail_mean=10.0),
            seed=1)
        records = list(ingest_stream(io.StringIO(trace), salt)[0])
        short = [r for r in records
                 if r.local_day() < min(x.local_day() for x in records)
                 + timedelta(days=5)]
        with pytest.raises(InsufficientData):
            run_pipeline(short, PipelineConfig())

    def test_input_digest_changes_with_input(self, month_records):
        assert input_digest(month_records) \
            != input_digest(month_records.take(slice(0, len(month_records) - 1)))


def _json_digest(records) -> str:
    """The digest's definition, DIGEST_ALGORITHM: sha256 over the records'
    sorted-key JSON, one per line."""
    h = hashlib.sha256()
    for r in records:
        h.update(json.dumps(r.to_json_dict(), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_input_digest_writes_the_canonical_json_of_every_kind():
    dev, ap = "0f" * 16, "AP-7"
    base = {"device": dev, "ap": ap}
    raws = [
        dict(base, ts="2025-03-03T15:00:00Z", kind="assoc"),
        dict(base, ts="2025-03-03T15:00:01+02:00", kind="auth_fail"),
        *(dict(base, ts="2025-03-03T16:00:00Z", kind="disassoc", session_minutes=m)
          for m in (1e-05, 0.1, 1440.0, 0, 47.33)),
        *(dict(base, ts="2025-03-03T16:00:00Z", kind="traffic", bytes_up=up,
               bytes_down=down, proto=p)
          for up, down, p in ((0, 10**30, "dns"), (147_000_000, 2**63, "https"))),
        *(dict(base, ts="2025-03-03T17:00:00Z", kind="ap_health", latency_ms=lat,
               loss_pct=loss)
          for lat, loss in ((1e-05, 100.0), (0.1, 0.0), (1e300, 33.333333333333336))),
    ]
    records = [validate(r) for r in raws]
    assert {r.kind for r in records} == set(EventKind)
    for r in records:
        assert input_digest([r]) == _json_digest([r]), r
    assert input_digest(records) == _json_digest(records)


class TestSaveLoad:
    def test_round_trip(self, month_run, tmp_path):
        rundir = tmp_path / "run"
        ingest = {"lines_read": 3, "accepted": 2, "skipped": 1, "errors": {"blank_line": 1}}
        save_run(month_run, str(rundir), ingest=ingest)
        stored = load_run(str(rundir))
        assert stored == replace(month_run, manifest={**month_run.manifest, "ingest": ingest})
        assert stored.manifest["version"] == wlantel.__version__
        assert len(stored.aggregates) == 30

    def test_report_from_memory_matches_report_from_disk(self, month_run, tmp_path):
        save_run(month_run, str(tmp_path / "run"))
        written = render_report(month_run, str(tmp_path / "memory"))
        render_report(load_run(str(tmp_path / "run")), str(tmp_path / "disk"))
        assert len(written) == 4
        for path in map(Path, written):
            assert path.read_bytes() == (tmp_path / "disk" / path.name).read_bytes(), path.name

    def test_artifacts_byte_identical_across_reruns(self, month_records,
                                                    tmp_path):
        a = run_pipeline(month_records, PipelineConfig())
        b = run_pipeline(month_records, PipelineConfig())
        save_run(a, str(tmp_path / "a"))
        save_run(b, str(tmp_path / "b"))
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            if name == "manifest.json":
                continue  # run id / timings live here by design
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_linked_events_stored_as_indices(self, month_run, tmp_path):
        save_run(month_run, str(tmp_path / "run"))
        stored = load_run(str(tmp_path / "run"))
        n = len(stored.anomalies)
        for rec in stored.recommendations:
            assert all(isinstance(i, int) and 0 <= i < n
                       for i in rec["linked_events"])


# SHA-256 of every artifact but the manifest for GOLDEN_CONFIG at seed 3.
# Any change to them is an artifact change that CHANGES.md must explain.
GOLDEN_CONFIG = SimConfig(days=14, weekday_users=300, weekend_users=200,
                          device_pool=600)
GOLDEN_DIGESTS = {
    "aggregates.json": "ecacebd2ae5ee7d3a675f879484f5ed137e296bd1c326c5a40cb0c559f339010",
    "anomalies.json": "d4971f38fd85782f07896cd5cc99002872e1eec36e0552de317228e246d6da40",
    "ap_stats.json": "83e788508ed8d30934414dc98013691146b248a07ec5d52c2010d089506b7e1c",
    "baseline.json": "70e3c13933c4abe59301f346e881fdc4511c05cfe1bc582655cd084e05ffd660",
    "daily_anomaly_counts.json": "e50665ed9e186d085920a03b0901f612b70423be43fdd44a04f20466a1070e47",
    "hourly_profile.json": "daea811cd7ecb136a39123d505ab3c366e767088217081425f7d77a438b72fc2",
    "recommendations.json": "121ffcd4700d3849b5a320382c382c44312a96311daad32c7881eab84c690246",
}
# The same for the report rendered from that run, and the manifest's digest
# of the ingested records.
GOLDEN_REPORT_DIGESTS = {
    "ap_table.csv": "ab8a247505af0f98c6d47370d21d6f007913c63631f58504c8f0672245ce4f7a",
    "metrics_table.csv": "ec613a2aeb1a50596f1551cf7f95ad43c30200e398a4a20f546c2b84237e7775",
    "report.html": "3675a86e80e27e36e60ea092466f560a4499f66a026a6c14d52f20478974b753",
    "report.json": "0b29665801f55dc2d7e81d2a85f89b9a56f338eb51abe64e79e59e39a4bb9fb8",
}
GOLDEN_INPUT_DIGEST = "22ea1d06ebb8c8a0a0e8292c5455b31e4f9ae26c8ee2afc32f5dcbaef3e1f1f9"
# And of what `wlantel evaluate` prints for that run against its labels.
GOLDEN_EVALUATE_DIGEST = "a9c2b031e8cedb13afbfb48138119c405067d65e4a1227e7a89281b031172a0b"


def test_artifacts_match_golden_digests(salt, tmp_path, capsys):
    trace, truth = generate_month(GOLDEN_CONFIG, seed=3)
    records, _ = ingest_stream(io.StringIO(trace), salt)
    rundir, reportdir = tmp_path / "run", tmp_path / "report"
    save_run(run_pipeline(records, PipelineConfig()), str(rundir))
    stored = load_run(str(rundir))
    render_report(stored, str(reportdir))
    labels, salt_file = tmp_path / "labels.json", tmp_path / "salt.hex"
    labels.write_text(json.dumps(truth.to_json_dict()), encoding="utf-8")
    salt_file.write_text(TEST_SALT_HEX, encoding="utf-8")
    assert main(["--quiet", "evaluate", "--run", str(rundir), "--labels", str(labels),
                 "--salt-file", str(salt_file)]) == 0
    evaluated = capsys.readouterr().out

    def digests(path):
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in path.iterdir() if p.name != "manifest.json"}

    assert digests(rundir) == GOLDEN_DIGESTS
    assert digests(reportdir) == GOLDEN_REPORT_DIGESTS
    assert stored.manifest["input_digest"] == GOLDEN_INPUT_DIGEST
    assert hashlib.sha256(evaluated.encode()).hexdigest() == GOLDEN_EVALUATE_DIGEST


def test_rerun_into_the_same_directory_leaves_identical_files(salt, tmp_path):
    """Writing a run and its report over the files of an earlier run gives
    the same bytes as the first write, all but the manifest's run id and
    timings."""
    trace, _ = generate_month(GOLDEN_CONFIG, seed=3)
    records, _ = ingest_stream(io.StringIO(trace), salt)
    rundir, reportdir = tmp_path / "run", tmp_path / "report"

    def rerun():
        run = run_pipeline(records, PipelineConfig())
        save_run(run, str(rundir))
        render_report(run, str(reportdir))
        return {path: path.read_bytes() for path in [*rundir.iterdir(), *reportdir.iterdir()]}

    first = rerun()
    second = rerun()
    assert second.keys() == first.keys()
    for path, data in first.items():
        if path.name != "manifest.json":
            assert second[path] == data, path.name


def test_baseline_built_once_per_run(salt, monkeypatch):
    # Protocol-share tests take their leave-one-out statistics from
    # descriptive.leave_one_out_stats; the whole profile is built once, in
    # describe.
    trace, _ = generate_month(SimConfig(days=36, weekday_users=64, weekend_users=44,
                                        device_pool=120), seed=5)
    records, _ = ingest_stream(io.StringIO(trace), salt)
    calls = []
    build_baseline = descriptive.build_baseline

    def counted(aggregates):
        calls.append(len(aggregates))
        return build_baseline(aggregates)

    monkeypatch.setattr(descriptive, "build_baseline", counted)
    run = run_pipeline(records, PipelineConfig())
    assert len(run.aggregates) == 36
    assert calls == [36]


def truth_of(*injections):
    return GroundTruth(injections=tuple(injections))


def det(etype, day=DAY, device=None, ap=None):
    return AnomalyEvent(day=day, type=etype, detector=Detector.RULE, score=1.0,
                        severity=Severity.MEDIUM, device=device,
                        ap=ap).to_json_dict()


class TestEvaluate:
    SALT = Salt(b"0123456789abcdef")
    MAC = "06:00:00:00:00:01"

    def test_perfect_detection(self):
        inj = Injection(day=DAY, type=AnomalyType.AUTH_BURST)
        report = evaluate([det(AnomalyType.AUTH_BURST)], truth_of(inj))
        q = report["per_type"]["auth_burst"]
        assert q["recall"] == 1.0
        assert q["precision"] == 1.0
        assert report["overall_recall"] == 1.0

    def test_nothing_detected(self):
        inj = Injection(day=DAY, type=AnomalyType.AUTH_BURST)
        report = evaluate([], truth_of(inj))
        q = report["per_type"]["auth_burst"]
        assert q["recall"] == 0.0
        assert q["precision"] is None  # undefined, reported as absent
        assert report["overall_recall"] == 0.0

    def test_two_of_three_with_one_spurious(self):
        injections = [Injection(day=DAY + timedelta(days=i),
                                type=AnomalyType.DNS_ANOMALY) for i in range(3)]
        events = [det(AnomalyType.DNS_ANOMALY, day=DAY),
                  det(AnomalyType.DNS_ANOMALY, day=DAY + timedelta(days=1)),
                  det(AnomalyType.DNS_ANOMALY, day=DAY + timedelta(days=20))]
        q = evaluate(events, truth_of(*injections))["per_type"]["dns_anomaly"]
        assert q["recall"] == pytest.approx(2 / 3)
        assert q["precision"] == pytest.approx(2 / 3)

    def test_type_must_match(self):
        inj = Injection(day=DAY, type=AnomalyType.AUTH_BURST)
        report = evaluate([det(AnomalyType.TRAFFIC_SPIKE)], truth_of(inj))
        assert report["per_type"]["auth_burst"]["recall"] == 0.0
        assert report["per_type"]["traffic_spike"]["false_positive_events"] == 1

    def test_device_scoped_events_must_name_injected_device(self):
        device_id = anonymize_device(self.MAC, self.SALT).value
        inj = Injection(day=DAY, type=AnomalyType.DUPLICATE_DEVICE,
                        devices=(self.MAC,))
        hit = det(AnomalyType.DUPLICATE_DEVICE, device=device_id)
        miss = det(AnomalyType.DUPLICATE_DEVICE, device="f" * 32)
        report = evaluate([hit, miss], truth_of(inj), salt=self.SALT)
        q = report["per_type"]["duplicate_device"]
        assert q["recall"] == 1.0
        assert q["true_positive_events"] == 1
        assert q["false_positive_events"] == 1

    def test_ap_scoped_match(self):
        inj = Injection(day=DAY, type=AnomalyType.AP_OVERLOAD, aps=("AP-101",))
        hit = det(AnomalyType.AP_OVERLOAD, ap="AP-101")
        miss = det(AnomalyType.AP_OVERLOAD, ap="AP-109")
        report = evaluate([hit, miss], truth_of(inj))
        assert report["per_type"]["ap_overload"]["detected"] == 1
        assert report["per_type"]["ap_overload"]["false_positive_events"] == 1

    def test_order_of_events_within_day_irrelevant(self):
        inj = Injection(day=DAY, type=AnomalyType.AUTH_BURST)
        events = [det(AnomalyType.AUTH_BURST), det(AnomalyType.AUTH_BURST)]
        forward = evaluate(events, truth_of(inj))
        backward = evaluate(list(reversed(events)), truth_of(inj))
        assert forward["per_type"]["auth_burst"] == backward["per_type"]["auth_burst"]

    def test_empty_truth_has_no_overall_recall(self):
        report = evaluate([det(AnomalyType.AUTH_BURST)], truth_of())
        assert report["overall_recall"] is None
