"""Whole-pipeline benchmark of wlantel, driven through its CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each step is its own fresh process, run from the source tree of this
checkout: ``wlantel simulate`` makes the workload's trace (the set-up),
then ``run``, ``evaluate``, ``report`` and ``serve``.  A closed loop with
one client and one connection at a time drives ``serve`` for S seconds,
and for at least 1 002 requests, cycling /metrics, /alerts and /healthz.
Every output is checked against figures recounted from the raw trace by
``bench/check.py``.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 every step runs under
``bench/tracer.py`` and the object holds the per-layer metrics instead.
The traced run also makes one untraced ``run`` of the same trace, whose
artifacts must byte-match the traced ones apart from manifest.json.
Traces and run directories go to bench/.work/, which git ignores.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse
import hashlib
import http.client
import json
import math
import os
import re
import shutil
import socket
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

DEADLINE_S = 170.0
MIN_REQUESTS = 1002           # so that ten samples lie beyond the 99th percentile
PATHS = ("/metrics", "/alerts", "/healthz")

# SimConfig overrides per workload; the default SimConfig is 30 days at
# 6 400 weekday / 4 400 weekend users over a pool of 12 000 devices.  The
# sizes keep one run near 20 s on two cores, so that the 70 runs a full
# comparison makes fit in under an hour even when the host is slow (see
# README.md).  dense_week has four times month's users per day.
WORKLOADS = {
    "month": {"days": 30, "set": {"weekday_users": 1920, "weekend_users": 1320,
                                  "device_pool": 3600}},
    "campus_year": {"days": 365, "set": {"weekday_users": 64, "weekend_users": 44,
                                         "device_pool": 120}},
    "dense_week": {"days": 8, "set": {"weekday_users": 7680, "weekend_users": 5280,
                                      "device_pool": 14400}},
}


class BenchError(Exception):
    pass


@dataclass(frozen=True)
class Step:
    """One finished CLI process: wall time, its own peak RSS, its output."""

    wall_s: float
    maxrss_kb: int
    stdout: str
    stderr: str


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = WORK / workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def remaining(self) -> float:
        left = DEADLINE_S - (time.perf_counter() - START)
        if left <= 0:
            raise BenchError("out of time")
        return left

    def command(self, args: list[str], spans: str | None) -> list[str]:
        if spans is None:
            return [sys.executable, "-m", "wlantel.cli", *args]
        return [sys.executable, str(BENCH / "tracer.py"), "--spans",
                str(self.dir / spans), "--", *args]

    def start(self, name: str, args: list[str], spans: str | None) -> subprocess.Popen:
        out = open(self.dir / f"{name}.out", "w", encoding="utf-8")
        err = open(self.dir / f"{name}.err", "w", encoding="utf-8")
        with out, err:
            return subprocess.Popen(self.command(args, spans), cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)

    def reap(self, proc: subprocess.Popen, timeout: float):
        """Wait for proc, killing it after timeout; its own rusage.  Reading
        rusage per pid keeps one step's peak RSS apart from the others'."""
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage

    def cli(self, name: str, args: list[str], spans: str | None = None) -> Step:
        self.attempted += 1
        timeout = self.remaining()
        t0 = time.perf_counter()
        proc = self.start(name, args, spans)
        code, usage = self.reap(proc, timeout)
        wall = time.perf_counter() - t0
        stdout = (self.dir / f"{name}.out").read_text(encoding="utf-8")
        stderr = (self.dir / f"{name}.err").read_text(encoding="utf-8")
        if code != 0:
            raise BenchError(f"wlantel {args[0]} exited {code}: {stderr.strip()[-500:]}")
        print(f"bench: {name} {wall:.2f} s, peak RSS {usage.ru_maxrss / 1024:.0f} MB",
              file=sys.stderr)
        return Step(wall, usage.ru_maxrss, stdout, stderr)

    # -- the steps ----------------------------------------------------------

    def simulate(self) -> Step:
        spec = WORKLOADS[self.workload]
        args = ["simulate", "--days", str(spec["days"]), "--seed", str(self.seed),
                "--out", str(self.dir / "trace.jsonl"),
                "--labels", str(self.dir / "labels.json")]
        for key, value in spec["set"].items():
            args += ["--set", f"{key}={value}"]
        return self.cli("simulate", args, "simulate.spans.json" if self.trace else None)

    def run(self, rundir: str, spans: str | None) -> tuple[Step, int]:
        step = self.cli(rundir, ["run", "--in", str(self.dir / "trace.jsonl"),
                                 "--salt-file", str(self.dir / "salt.hex"),
                                 "--out", str(self.dir / rundir)], spans)
        m = re.search(r": (\d+) records,", step.stderr)
        if m is None:
            raise BenchError(f"wlantel run printed no record count: {step.stderr!r}")
        return step, int(m.group(1))

    def evaluate(self, rundir: str) -> dict:
        step = self.cli("evaluate", ["evaluate", "--run", str(self.dir / rundir),
                                     "--labels", str(self.dir / "labels.json"),
                                     "--salt-file", str(self.dir / "salt.hex")],
                        "evaluate.spans.json" if self.trace else None)
        return json.loads(step.stdout)

    def report(self, rundir: str) -> None:
        self.cli("report", ["report", "--run", str(self.dir / rundir),
                            "--out", str(self.dir / "report")],
                 "report.spans.json" if self.trace else None)

    def serve(self, rundir: str) -> dict:
        """Start the service on a free port, wait for /healthz untimed,
        drive the closed loop, then stop and reap the server."""
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        self.attempted += 1
        proc = self.start("serve", ["serve", "--run", str(self.dir / rundir),
                                    "--addr", f"127.0.0.1:{port}"],
                          "serve.spans.json" if self.trace else None)
        # Client and server share one CPU: a reply then wakes the client
        # without a cross-CPU wake-up, whose cost on a virtual machine
        # depends on the host's load and made latency bimodal.
        own = os.sched_getaffinity(0)
        cpu = max(own)
        try:
            os.sched_setaffinity(proc.pid, {cpu})
            os.sched_setaffinity(0, {cpu})
            self.wait_ready(proc, port)
            return self.closed_loop(port)
        finally:
            os.sched_setaffinity(0, own)
            if proc.poll() is None:
                proc.terminate()  # a traced server writes its spans first
                self.reap(proc, 20.0)

    def wait_ready(self, proc: subprocess.Popen, port: int) -> None:
        deadline = time.perf_counter() + min(60.0, self.remaining())
        while time.perf_counter() < deadline:
            if proc.poll() is not None:
                raise BenchError(f"wlantel serve exited {proc.returncode}")
            try:
                if get(port, "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.02)
        raise BenchError("wlantel serve did not answer /healthz")

    def closed_loop(self, port: int) -> dict:
        latencies: dict = {p: [] for p in PATHS}
        bodies: dict = {}
        sent = 0
        t0 = time.perf_counter()
        while sent < MIN_REQUESTS or time.perf_counter() - t0 < self.seconds:
            for path in PATHS:
                sent += 1
                started = time.perf_counter()
                try:
                    status, body = get(port, path)
                except OSError as e:
                    status, body = str(e), b""
                elapsed = time.perf_counter() - started
                if status != 200:
                    self.failed += 1
                    print(f"bench: GET {path} failed: {status}", file=sys.stderr)
                    continue
                if body != bodies.setdefault(path, body):
                    self.fail(f"GET {path}: the reply changed between requests")
                latencies[path].append(elapsed)
            self.remaining()
        wall = time.perf_counter() - t0
        self.attempted += sent
        return {"wall_s": wall, "sent": sent, "latencies": latencies, "bodies": bodies}

    # -- checks -------------------------------------------------------------

    def check_outputs(self, rundir: str, accepted: int, evaluation: dict,
                      served: dict) -> None:
        rc = check.recount_trace(self.dir / "trace.jsonl")
        if accepted != rc.lines:
            self.fail(f"run accepted {accepted} records, the trace has {rc.lines} lines")
        art = check.load_artifacts(self.dir / rundir)
        check.check_artifacts(rc, art, self.fail)
        check.check_evaluation(evaluation, self.fail)
        check.check_report(self.dir / "report", self.fail)
        bodies = served["bodies"]
        if set(bodies) != set(PATHS):
            self.fail(f"no good reply from {sorted(set(PATHS) - set(bodies))}")
            return
        check.check_alerts(bodies["/alerts"], art, self.fail)
        check.check_metrics(bodies["/metrics"], art, self.fail)
        if bodies["/healthz"] != b"ok\n":
            self.fail(f"/healthz replied {bodies['/healthz']!r}")

    def check_same_artifacts(self, a: str, b: str) -> None:
        names_a = sorted(p.name for p in (self.dir / a).iterdir())
        names_b = sorted(p.name for p in (self.dir / b).iterdir())
        if names_a != names_b:
            self.fail(f"{a} holds {names_a}, {b} holds {names_b}")
            return
        for name in names_a:
            if name != "manifest.json" and \
                    (self.dir / a / name).read_bytes() != (self.dir / b / name).read_bytes():
                self.fail(f"{name} differs between {a} and {b}")

    # -- the two modes ------------------------------------------------------

    def prepare(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        salt = hashlib.sha256(f"wlantel-bench-{self.seed}".encode()).hexdigest()[:32]
        (self.dir / "salt.hex").write_text(salt + "\n", encoding="utf-8")

    def end_to_end(self) -> dict:
        self.simulate()
        setup_s = time.perf_counter() - START
        run, accepted = self.run("rundir", None)
        evaluation = self.evaluate("rundir")
        self.report("rundir")
        served = self.serve("rundir")
        self.check_outputs("rundir", accepted, evaluation, served)
        every = sorted(x for lat in served["latencies"].values() for x in lat)
        return {
            "setup_s": (setup_s, "s"),
            "run_records_per_s": (accepted / run.wall_s, "records/s"),
            "run_peak_rss_mb": (run.maxrss_kb / 1024.0, "MB"),
            "serve_p90_ms": (1000.0 * percentile(every, 0.90), "ms"),
        }

    def per_layer(self) -> dict:
        self.simulate()
        untraced, accepted = self.run("rundir_untraced", None)
        traced, traced_accepted = self.run("rundir", "run.spans.json")
        if traced_accepted != accepted:
            self.fail(f"traced run accepted {traced_accepted}, untraced {accepted}")
        self.check_same_artifacts("rundir_untraced", "rundir")
        evaluation = self.evaluate("rundir")
        self.report("rundir")
        served = self.serve("rundir")
        self.check_outputs("rundir", accepted, evaluation, served)

        totals: dict = {}
        counts: dict = {}
        for name in ("simulate", "run", "evaluate", "report", "serve"):
            spans = json.loads((self.dir / f"{name}.spans.json").read_text(encoding="utf-8"))
            for fn, t in spans["totals"].items():
                acc = totals.setdefault(fn, {"calls": 0, "self_s": 0.0})
                acc["calls"] += t["calls"]
                acc["self_s"] += t["self_s"]
            for key, n in spans["counts"].items():
                counts[key] = counts.get(key, 0) + n

        def self_s(fn):
            return (totals.get(fn, {"self_s": 0.0})["self_s"], "s")

        def calls(fn):
            return (totals.get(fn, {"calls": 0})["calls"], "count")

        anonymize_calls = calls("ingest.anonymize_device")[0]
        raised = counts.get("detection.events_raised", 0)
        kept = counts.get("detection.events_kept", 0)
        exposition = totals.get("service.metrics_exposition", {"calls": 0, "self_s": 0.0})
        metrics = {
            "simulator.generate_month_s": self_s("simulator.generate_month"),
            "ingest.parse_s": self_s("ingest.parse"),
            "ingest.anonymize_validate_s": self_s("ingest.anonymize_validate"),
            "domain.validate_s": self_s("domain.validate"),
            "ingest.records_accepted": (counts.get("ingest.anonymize_validate.items", 0), "count"),
            "ingest.anonymize_device_s": self_s("ingest.anonymize_device"),
            "ingest.anonymize_device_calls": (anonymize_calls, "count"),
            "ingest.distinct_macs_per_call": (
                counts.get("ingest.distinct_macs", 0) / anonymize_calls if anonymize_calls else 0.0,
                "ratio"),
            "pipeline.input_digest_s": self_s("pipeline.input_digest"),
            "pipeline.run_pipeline_self_s": self_s("pipeline.run_pipeline"),
            "descriptive.aggregate_daily_s": self_s("descriptive.aggregate_daily"),
            "descriptive.aggregate_daily_calls": calls("descriptive.aggregate_daily"),
            "descriptive.pair_sessions_s": self_s("descriptive.pair_sessions"),
            "descriptive.pair_sessions_calls": calls("descriptive.pair_sessions"),
            "descriptive.ap_load_stats_s": self_s("descriptive.ap_load_stats"),
            "descriptive.hourly_profile_s": self_s("descriptive.hourly_profile"),
            "descriptive.observed_days_calls": calls("descriptive.observed_days"),
            "descriptive.build_baseline_s": self_s("descriptive.build_baseline"),
            "descriptive.build_baseline_calls": calls("descriptive.build_baseline"),
            "detection.protocol_anomaly_s": self_s("detection.protocol_anomaly"),
            "detection.dynamic_threshold_alerts_s": self_s("detection.dynamic_threshold_alerts"),
            "detection.detect_duplicate_devices_s": self_s("detection.detect_duplicate_devices"),
            "detection.build_features_s": self_s("detection.build_features"),
            "detection.fit_isolation_forest_s": self_s("detection.fit_isolation_forest"),
            "detection.iforest_score_s": self_s("detection.iforest_score"),
            "detection.dbscan_s": self_s("detection.dbscan"),
            "detection.classify_s": self_s("detection.classify"),
            "detection.events_raised": (raised, "count"),
            "detection.events_kept": (kept, "count"),
            "detection.kept_per_raised": (kept / raised if raised else 0.0, "ratio"),
            "prescriptive.recommend_s": self_s("prescriptive.recommend"),
            "prescriptive.recommendations": (counts.get("prescriptive.recommendations", 0), "count"),
            "pipeline.save_run_s": self_s("pipeline.save_run"),
            "pipeline.load_run_s": self_s("pipeline.load_run"),
            "pipeline.evaluate_s": self_s("pipeline.evaluate"),
            "report.render_report_s": self_s("report.render_report"),
            "service.metrics_exposition_s": (
                exposition["self_s"] / exposition["calls"] if exposition["calls"] else 0.0, "s"),
            "trace.run_overhead_pct": (100.0 * (traced.wall_s / untraced.wall_s - 1.0), "%"),
        }
        every = sorted(x for lat in served["latencies"].values() for x in lat)
        metrics["service.requests_per_s"] = (served["sent"] / served["wall_s"], "req/s")
        metrics["service.p99_ms"] = (1000.0 * percentile(every, 0.99), "ms")
        for path in PATHS:
            metrics[f"service.p50_ms.{path.strip('/')}"] = (
                1000.0 * statistics.median(served["latencies"][path]), "ms")
        return metrics


def get(port: int, path: str) -> tuple[int, bytes]:
    """One GET on a fresh connection; the body is read in full."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of sorted values."""
    return values[max(0, math.ceil(q * len(values)) - 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wlantel whole-pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "wlantel" / "cli.py").is_file():
        print(f"bench: no wlantel source tree at {SRC}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        bench.prepare()
        metrics = bench.per_layer() if bench.trace else bench.end_to_end()
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"bench: {args.workload} seed {args.seed}: {e}", file=sys.stderr)
        return 1
    for message in bench.failures:
        print(f"bench: check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
