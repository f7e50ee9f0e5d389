"""Command-line interface, report rendering, and the read-only metrics
service."""

from __future__ import annotations

import csv
import json
import os
import re
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import wlantel
from wlantel.cli import main
from wlantel.pipeline import save_run
from wlantel.report import AP_CSV_HEADER, METRICS_CSV_HEADER, render_report
from wlantel.service import start_background

TEST_SALT_HEX = "00112233445566778899aabbccddeeff"

EXPOSITION_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-0-9.eE+]+$')


@pytest.fixture(scope="module")
def saved_run(month_run, tmp_path_factory):
    rundir = tmp_path_factory.mktemp("cli") / "run"
    save_run(month_run, str(rundir))
    return rundir


@pytest.fixture()
def salt_file(tmp_path):
    path = tmp_path / "salt.hex"
    path.write_text(TEST_SALT_HEX)
    return str(path)


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    """A small simulated trace written through the CLI itself."""
    out = tmp_path_factory.mktemp("trace")
    trace = out / "trace.jsonl"
    labels = out / "labels.json"
    code = main(["--quiet", "simulate", "--days", "8", "--seed", "3",
                 "--out", str(trace), "--labels", str(labels),
                 "--set", "weekday_users=400", "--set", "weekend_users=250",
                 "--set", "device_pool=1500", "--set", "ap_count=20",
                 "--set", "auth_fail_mean=25"])
    assert code == 0
    return trace, labels


class TestCliBasics:
    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_required_flag_exits_1(self, capsys):
        assert main(["simulate"]) == 1

    def test_missing_input_file_exits_1(self, salt_file, capsys):
        assert main(["ingest", "--in", "/nonexistent.jsonl",
                     "--salt-file", salt_file]) == 1

    def test_diagnostics_go_to_stderr(self, small_trace, salt_file, tmp_path,
                                      capsys):
        trace, _ = small_trace
        code = main(["run", "--in", str(trace), "--salt-file", salt_file,
                     "--out", str(tmp_path / "run")])
        assert code == 0
        captured = capsys.readouterr()
        assert "anomalies" in captured.err
        assert captured.out == ""


class TestCliPipeline:
    def test_ingest_reports_stats_json(self, small_trace, salt_file, capsys):
        trace, _ = small_trace
        assert main(["ingest", "--in", str(trace),
                     "--salt-file", salt_file]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["accepted"] > 0
        assert stats["accepted"] + stats["skipped"] == stats["lines_read"]

    def test_ingest_without_salt_fails(self, small_trace, capsys,
                                       monkeypatch):
        monkeypatch.delenv("WLC_SALT_HEX", raising=False)
        trace, _ = small_trace
        assert main(["ingest", "--in", str(trace)]) == 1

    def test_salt_env_var_accepted(self, small_trace, capsys, monkeypatch):
        monkeypatch.setenv("WLC_SALT_HEX", TEST_SALT_HEX)
        trace, _ = small_trace
        assert main(["ingest", "--in", str(trace)]) == 0

    def test_analyze_writes_artifacts(self, small_trace, salt_file, tmp_path):
        trace, _ = small_trace
        out = tmp_path / "analysis"
        assert main(["--quiet", "analyze", "--in", str(trace),
                     "--salt-file", salt_file, "--out", str(out)]) == 0
        for name in ("aggregates.json", "baseline.json", "ap_stats.json",
                     "hourly_profile.json"):
            assert (out / name).is_file()
        aggregates = json.loads((out / "aggregates.json").read_text())
        assert len(aggregates) == 8

    def test_analyze_artifacts_match_run(self, small_trace, salt_file, tmp_path):
        trace, _ = small_trace
        for command in ("analyze", "run"):
            assert main(["--quiet", command, "--in", str(trace),
                         "--salt-file", salt_file,
                         "--out", str(tmp_path / command)]) == 0
        for name in ("aggregates.json", "baseline.json", "ap_stats.json",
                     "hourly_profile.json"):
            assert (tmp_path / "analyze" / name).read_bytes() == \
                (tmp_path / "run" / name).read_bytes(), name

    def test_detect_prints_anomalies(self, small_trace, salt_file, capsys):
        trace, _ = small_trace
        assert main(["detect", "--in", str(trace),
                     "--salt-file", salt_file]) == 0
        events = json.loads(capsys.readouterr().out)
        assert isinstance(events, list)
        assert all({"day", "type", "detector", "score"} <= set(e) for e in events)

    def test_run_then_recommend_and_evaluate(self, small_trace, salt_file,
                                             tmp_path, capsys):
        trace, labels = small_trace
        rundir = tmp_path / "run"
        assert main(["--quiet", "run", "--in", str(trace),
                     "--salt-file", salt_file, "--out", str(rundir)]) == 0
        assert (rundir / "manifest.json").is_file()

        assert main(["recommend", "--run", str(rundir)]) == 0
        recs = json.loads(capsys.readouterr().out)
        assert isinstance(recs, list)

        assert main(["evaluate", "--run", str(rundir), "--labels", str(labels),
                     "--salt-file", salt_file]) == 0
        quality = json.loads(capsys.readouterr().out)
        assert "per_type" in quality
        assert quality["overall_recall"] is None or \
            0.0 <= quality["overall_recall"] <= 1.0

    def test_run_on_corrupt_input_exits_1(self, tmp_path, salt_file, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json at all\n")
        code = main(["run", "--in", str(bad), "--salt-file", salt_file,
                     "--out", str(tmp_path / "run"), "--strict"])
        assert code == 1


class TestReport:
    def test_renders_all_documents(self, saved_run, tmp_path):
        from wlantel.pipeline import load_run
        written = render_report(load_run(str(saved_run)), str(tmp_path / "rep"))
        names = {Path(p).name for p in written}
        assert names == {"report.json", "metrics_table.csv", "ap_table.csv",
                         "report.html"}

    def test_metrics_csv_header_and_rows(self, saved_run, tmp_path):
        assert main(["--quiet", "report", "--run", str(saved_run),
                     "--out", str(tmp_path / "rep")]) == 0
        with open(tmp_path / "rep" / "metrics_table.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == METRICS_CSV_HEADER
        labels = [r[0] for r in rows[1:]]
        assert labels[0].startswith("Usuarios activos")
        assert any("Anomalías" in label for label in labels)
        for row in rows[1:]:  # mean between min and max
            _, mean, lo, hi = row
            assert float(lo) <= float(mean) <= float(hi)

    def test_ap_csv_sorted_desc(self, saved_run, tmp_path):
        assert main(["--quiet", "report", "--run", str(saved_run),
                     "--out", str(tmp_path / "rep")]) == 0
        with open(tmp_path / "rep" / "ap_table.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == AP_CSV_HEADER
        connections = [int(r[1]) for r in rows[1:]]
        assert connections == sorted(connections, reverse=True)

    def test_html_is_self_contained(self, saved_run, tmp_path):
        assert main(["--quiet", "report", "--run", str(saved_run),
                     "--out", str(tmp_path / "rep")]) == 0
        html = (tmp_path / "rep" / "report.html").read_text(encoding="utf-8")
        assert html.startswith("<!doctype html>")
        assert "src=" not in html and "href=" not in html


@pytest.fixture(scope="module")
def server(saved_run):
    httpd, _thread = start_background(str(saved_run), "127.0.0.1:0")
    host, port = httpd.server_address[:2]
    yield f"http://{host}:{port}"
    httpd.shutdown()
    httpd.server_close()


class TestService:
    def fetch(self, url):
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.read().decode("utf-8")

    def test_healthz(self, server):
        status, body = self.fetch(server + "/healthz")
        assert status == 200
        assert body == "ok\n"

    def test_metrics_exposition_format(self, server):
        status, body = self.fetch(server + "/metrics")
        assert status == 200
        lines = body.strip().split("\n")
        assert lines
        for line in lines:
            assert EXPOSITION_LINE.match(line), line
        assert any(line.startswith("wlantel_daily_connections") for line in lines)
        assert any(line.startswith("wlantel_anomalies_count") for line in lines)

    def test_alerts_json(self, server, month_run):
        status, body = self.fetch(server + "/alerts")
        assert status == 200
        assert len(json.loads(body)) == len(month_run.anomalies)

    def test_query_string_ignored(self, server):
        for path in ("/metrics", "/alerts", "/healthz"):
            assert self.fetch(server + path + "?x=1") == self.fetch(server + path)

    def test_unknown_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            self.fetch(server + "/nope")
        assert exc.value.code == 404

    def test_writes_rejected_405(self, server):
        req = urllib.request.Request(server + "/metrics", data=b"x",
                                     method="POST")
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=5)
        assert exc.value.code == 405


def test_serve_prints_the_bound_port(saved_run):
    env = dict(os.environ,
               PYTHONPATH=str(Path(wlantel.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "wlantel.cli", "serve", "--run", str(saved_run),
         "--addr", "127.0.0.1:0"],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)
    watchdog = threading.Timer(60, proc.kill)
    watchdog.start()
    try:
        line = proc.stderr.readline()
        match = re.search(r" on 127\.0\.0\.1:(\d+)$", line.strip())
        assert match, line
        port = int(match.group(1))
        assert port != 0
        url = f"http://127.0.0.1:{port}/healthz"
        with urllib.request.urlopen(url, timeout=5) as resp:
            assert (resp.status, resp.read()) == (200, b"ok\n")
    finally:
        watchdog.cancel()
        proc.terminate()
        proc.wait(timeout=10)
        proc.stderr.close()
