"""Acceptance gate: statistical reproduction of the published monthly
tables on simulator output, algorithm oracle checks, detection quality,
privacy, and artifact determinism.

Each criterion is one test that prints a single PASS line on success; a
failing criterion shows up as the corresponding failing test.
"""

from __future__ import annotations

import io
import json
import random
import re
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from test_dbscan import naive_dbscan, partition, random_instance
from test_prescriptive import REFERENCE_AP_ROWS, ap_stats_rows

from wlantel import descriptive
from wlantel.detection.dbscan import dbscan
from wlantel.detection.iforest import (
    average_path_length,
    expected_path_length,
    fit_isolation_forest,
    iforest_score,
)
from wlantel.domain import AnomalyType
from wlantel.ingest import ingest_stream
from wlantel.pipeline import evaluate
from wlantel.prescriptive import flag_aps
from wlantel.simulator import SimConfig, generate_month

SEEDS = tuple(range(10))
RAW_MAC = re.compile(r"([0-9A-Fa-f]{2}:){5}[0-9A-Fa-f]{2}")


@dataclass(frozen=True)
class SeedSummary:
    seed: int
    mean_connections: float
    min_daily_connections: int
    max_daily_connections: int
    mean_session_minutes: float
    mean_auth_failures: float
    mean_traffic_gb: float
    mean_overload_pct: float
    peak_hour: int
    user_traffic_correlation: float
    seconds: float
    mac_leaks: int


@pytest.fixture(scope="session")
def seed_summaries(salt):
    """Default simulator month for ten seeds, reduced to the statistics the
    monthly-summary criteria need, plus a raw-MAC scan of everything that
    exists downstream of ingest."""
    summaries = []
    for seed in SEEDS:
        t0 = time.perf_counter()
        trace, _ = generate_month(SimConfig(), seed=seed)
        records, _ = ingest_stream(io.StringIO(trace), salt)
        desc = descriptive.describe(records)
        aggregates, hourly = desc.aggregates, desc.hourly
        seconds = time.perf_counter() - t0

        conns = [a.connections for a in aggregates]
        gbs = [a.traffic_gb for a in aggregates]
        # Every record's JSON, as the input digest reads it, and every
        # descriptive product.
        downstream = "".join(records.canonical_lines()) + json.dumps(
            [a.to_json_dict() for a in aggregates]
            + [s.to_json_dict() for s in desc.ap_stats]
            + [desc.baseline.to_json_dict(), list(hourly.buckets)])
        summaries.append(SeedSummary(
            seed=seed,
            mean_connections=statistics.fmean(conns),
            min_daily_connections=min(conns),
            max_daily_connections=max(conns),
            mean_session_minutes=statistics.fmean(
                a.mean_session_minutes for a in aggregates),
            mean_auth_failures=statistics.fmean(
                a.auth_failures for a in aggregates),
            mean_traffic_gb=statistics.fmean(gbs),
            mean_overload_pct=statistics.fmean(
                a.overload_pct for a in aggregates),
            peak_hour=max(range(24), key=hourly.buckets.__getitem__),
            user_traffic_correlation=statistics.correlation(conns, gbs),
            seconds=seconds,
            mac_leaks=len(RAW_MAC.findall(downstream)),
        ))
    return summaries


def test_a1_monthly_summary_reproduction(seed_summaries):
    mean_conn = statistics.fmean(s.mean_connections for s in seed_summaries)
    mean_sess = statistics.fmean(s.mean_session_minutes for s in seed_summaries)
    mean_auth = statistics.fmean(s.mean_auth_failures for s in seed_summaries)
    mean_gb = statistics.fmean(s.mean_traffic_gb for s in seed_summaries)
    mean_ovl = statistics.fmean(s.mean_overload_pct for s in seed_summaries)

    assert 5800 * 0.95 <= mean_conn <= 5800 * 1.05
    assert 47 * 0.90 <= mean_sess <= 47 * 1.10
    assert 210 * 0.85 <= mean_auth <= 210 * 1.15
    assert 890 * 0.90 <= mean_gb <= 890 * 1.10
    assert 11.8 - 3.0 <= mean_ovl <= 11.8 + 3.0
    for s in seed_summaries:
        assert 3600 <= s.min_daily_connections, s.seed
        assert s.max_daily_connections <= 7800, s.seed
        assert s.seconds < 60.0, s.seed
    print(f"\nA1 monthly summary reproduction over {len(SEEDS)} seeds: PASS "
          f"(connections {mean_conn:.0f}, session {mean_sess:.1f} min, "
          f"auth failures {mean_auth:.0f}, traffic {mean_gb:.0f} GB, "
          f"overload {mean_ovl:.1f} %)")


def test_a2_peak_usage_window(seed_summaries):
    for s in seed_summaries:
        assert s.peak_hour in {10, 11, 12, 13}, s.seed
    hours = sorted({s.peak_hour for s in seed_summaries})
    print(f"\nA2 peak usage window: PASS (argmax hours {hours})")


def test_a3_detected_anomaly_volume(month_run):
    counts = list(month_run.daily_anomaly_counts.values())
    mean = statistics.fmean(counts)
    assert 3.0 <= mean <= 9.0
    assert max(counts) <= 20
    print(f"\nA3 detected anomaly volume: PASS (per-day mean {mean:.1f}, "
          f"max {max(counts)})")


def test_a4_ap_flagging_exact():
    stats = ap_stats_rows(REFERENCE_AP_ROWS)
    assert {ap.value for ap in flag_aps(stats, rule="all")} == {"AP-105"}
    assert {ap.value for ap in flag_aps(stats, rule="any")} == \
        {"AP-105", "AP-109"}
    print("\nA4 AP flagging on the reference rows: PASS "
          "(all -> {AP-105}, any -> {AP-105, AP-109})")


def test_a5_user_traffic_correlation(seed_summaries):
    for s in seed_summaries:
        assert s.user_traffic_correlation >= 0.8, \
            f"seed {s.seed}: r={s.user_traffic_correlation:.3f}"
    worst = min(s.user_traffic_correlation for s in seed_summaries)
    print(f"\nA5 user/traffic correlation: PASS (worst r {worst:.3f})")


def test_a6_detector_oracles():
    # Density clustering equals the brute-force reference exactly.
    rng = random.Random(777)
    for _ in range(200):
        points, eps, min_pts = random_instance(rng)
        assert partition(dbscan(points, eps, min_pts)) == \
            partition(naive_dbscan(points, eps, min_pts))

    # Path-length normalizer closed forms.
    assert expected_path_length(2) == 1.0
    identical = [(1.0, 1.0)] * 8
    model = fit_isolation_forest(identical, n_trees=10, subsample_size=8, seed=0)
    assert abs(average_path_length(model, (1.0, 1.0))
               - expected_path_length(model.subsample_size)) < 1e-9
    assert iforest_score(model, (1.0, 1.0)) == pytest.approx(0.5, abs=1e-12)

    # Planted far outlier beats the 95th inlier percentile in >= 95 % of
    # 100 seeded trials.
    wins = 0
    for trial in range(100):
        trial_rng = random.Random(5000 + trial)
        inliers = [(trial_rng.gauss(0, 1), trial_rng.gauss(0, 1))
                   for _ in range(128)]
        outlier = (15.0, 15.0)
        forest = fit_isolation_forest(inliers + [outlier], n_trees=100,
                                      subsample_size=64, seed=trial)
        scores = sorted(iforest_score(forest, p) for p in inliers)
        if iforest_score(forest, outlier) > scores[int(0.95 * len(scores))]:
            wins += 1
    assert wins >= 95
    print(f"\nA6 detector oracles: PASS (200/200 clustering matches, "
          f"outlier wins {wins}/100 trials)")


def test_a7_detection_quality(month_run, month_truth, salt):
    report = evaluate(month_run.anomalies, month_truth, salt=salt)
    recall = report["overall_recall"]
    assert recall is not None and recall >= 0.8

    details = []
    for etype in (AnomalyType.AUTH_BURST, AnomalyType.DNS_ANOMALY):
        precision = report["per_type"][etype.value]["precision"]
        assert precision is not None, f"{etype.value}: no detections to score"
        assert precision >= 0.6, f"{etype.value}: precision {precision:.2f}"
        details.append(f"{etype.value} precision {precision:.2f}")
    print(f"\nA7 detection quality: PASS (overall recall {recall:.2f}, "
          + ", ".join(details) + ")")


def test_a8_no_raw_mac_downstream_of_ingest(seed_summaries, month_run,
                                            tmp_path):
    for s in seed_summaries:
        assert s.mac_leaks == 0, f"seed {s.seed}: {s.mac_leaks} raw MACs"
    # Persisted run artifacts of the fully analyzed month as well.
    from wlantel.pipeline import save_run
    rundir = tmp_path / "run"
    save_run(month_run, str(rundir))
    for path in rundir.iterdir():
        assert not RAW_MAC.search(path.read_text(encoding="utf-8")), path
    print(f"\nA8 privacy: PASS (zero raw MACs across {len(SEEDS)} seed "
          "artifact sets and the persisted run)")


def test_a9_byte_identical_reruns(tmp_path):
    from wlantel.cli import main

    trace = tmp_path / "trace.jsonl"
    salt_file = tmp_path / "salt.hex"
    salt_file.write_text("00112233445566778899aabbccddeeff")
    assert main(["--quiet", "simulate", "--days", "8", "--seed", "11",
                 "--out", str(trace),
                 "--set", "weekday_users=400", "--set", "weekend_users=250",
                 "--set", "device_pool=1500", "--set", "ap_count=20",
                 "--set", "auth_fail_mean=25"]) == 0

    for name in ("one", "two"):
        assert main(["--quiet", "run", "--in", str(trace),
                     "--salt-file", str(salt_file),
                     "--out", str(tmp_path / name)]) == 0

    names = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "two").iterdir())
    compared = []
    for name in names:
        if name == "manifest.json":
            continue  # run id and timestamps differ by design
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b, name
        compared.append(name)
    print(f"\nA9 determinism: PASS ({len(compared)} artifacts byte-identical "
          "across reruns)")
