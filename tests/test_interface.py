"""Command-line interface, report rendering, and the read-only metrics
service."""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import re
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path
from types import SimpleNamespace

import pytest

import wlantel
from wlantel import descriptive
from wlantel.cli import _build_parser, main
from wlantel.ingest import SALT_ENV_VAR
from wlantel.pipeline import load_run, save_run
from wlantel.report import AP_CSV_HEADER, METRICS_CSV_HEADER, render_report
from wlantel.service import make_server

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

    def test_subcommands_pinned_and_documented(self):
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == {"simulate", "ingest", "analyze", "run",
                                    "evaluate", "report", "serve"}
        readme = (Path(wlantel.__file__).resolve().parents[2] / "README.md").read_text(
            encoding="utf-8")
        for name in sub.choices:
            assert re.search(rf"\bwlantel {name}\b|`{name}`", readme), name

    def test_simulate_without_injections(self, tmp_path, capsys):
        labels = tmp_path / "labels.json"
        args = ["--quiet", "simulate", "--days", "7", "--out", str(tmp_path / "t.jsonl"),
                "--labels", str(labels), "--set", "weekday_users=20",
                "--set", "weekend_users=20", "--set", "device_pool=50"]
        assert main([*args, "--set", "inject=false"]) == 0
        assert json.loads(labels.read_text()) == {"injections": []}
        assert main([*args, "--no-inject"]) == 1  # the option is gone

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

    def test_run_then_evaluate(self, small_trace, salt_file, tmp_path, capsys):
        trace, labels = small_trace
        rundir = tmp_path / "run"
        assert main(["--quiet", "run", "--in", str(trace),
                     "--salt-file", salt_file, "--out", str(rundir)]) == 0
        assert (rundir / "manifest.json").is_file()

        assert main(["evaluate", "--run", str(rundir), "--labels", str(labels),
                     "--salt-file", salt_file]) == 0
        quality = json.loads(capsys.readouterr().out)
        assert "per_type" in quality
        assert quality["overall_recall"] is None or \
            0.0 <= quality["overall_recall"] <= 1.0

    def test_run_records_ingest_counts_in_manifest(self, small_trace, salt_file,
                                                   tmp_path):
        trace = _with_bad_lines(SimpleNamespace(trace=small_trace[0], tmp=tmp_path),
                                "session-minutes-abc", "latency-list")
        rundir = tmp_path / "run"
        assert main(["--quiet", "run", "--in", trace, "--salt-file", salt_file,
                     "--out", str(rundir)]) == 0
        ingest = json.loads((rundir / "manifest.json").read_text(encoding="utf-8"))["ingest"]
        assert ingest["errors"] == {"FieldOutOfRange": 2}
        assert ingest["accepted"] + ingest["skipped"] == ingest["lines_read"]

    def test_run_on_corrupt_input_exits_1(self, tmp_path, salt_file, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json at all\n")
        code = main(["run", "--in", str(bad), "--salt-file", salt_file,
                     "--out", str(tmp_path / "run"), "--strict"])
        assert code == 1


BASE_LINE = {"ts": "2025-03-05T15:00:00Z", "device": "aa:bb:cc:dd:ee:ff",
             "ap": "AP-101", "kind": "assoc"}

# Lines a non-strict ingest skips as FieldOutOfRange and a strict one rejects.
BAD_LINES = {
    "session-minutes-abc": {"kind": "disassoc", "session_minutes": "abc"},
    "latency-list": {"kind": "ap_health", "latency_ms": [1], "loss_pct": 1.0},
    "ts-year-1-plus-5h": {"ts": "0001-01-01T00:00:00+05:00"},
    "ts-year-1-local": {"ts": "0001-01-01T01:00:00Z"},
    "ts-year-9999": {"ts": "9999-12-31T23:59:59Z"},
}


def _file(t, name: str, content) -> str:
    path = t.tmp / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    return str(path)


def _with_bad_lines(t, *names) -> str:
    """The small trace with the named BAD_LINES appended."""
    lines = "".join(json.dumps(dict(BASE_LINE, **BAD_LINES[n])) + "\n" for n in names)
    return _file(t, "in.jsonl", t.trace.read_text(encoding="utf-8") + lines)


def _first_six_days(t) -> str:
    # The trace starts on local day 2025-03-03 (UTC-5).
    with open(t.trace, encoding="utf-8") as fh:
        kept = [line for line in fh if json.loads(line)["ts"] < "2025-03-09T05:00:00Z"]
    return _file(t, "six_days.jsonl", "".join(kept))


def _ingest(t, trace=None, *extra):
    return ["ingest", "--in", trace or str(t.trace), "--salt-file", t.salt, *extra]


def _run(t, trace=None, *extra):
    return ["run", "--in", trace or str(t.trace), "--salt-file", t.salt,
            "--out", str(t.tmp / "run"), *extra]


def _taken_port(t) -> str:
    taken = t.stack.enter_context(socket.socket())
    taken.bind(("127.0.0.1", 0))
    taken.listen()
    return f"127.0.0.1:{taken.getsockname()[1]}"


def _bug_in_stage(t):
    def broken(*args, **kwargs):
        raise ValueError("a bug, not bad input")
    t.monkeypatch.setattr(descriptive, "describe", broken)
    return _run(t)


def _ingest_skipped_one(t, captured):
    stats = json.loads(captured.out)
    assert stats["errors"] == {"FieldOutOfRange": 1}
    assert stats["accepted"] + stats["skipped"] == stats["lines_read"]


def _run_skipped_one(t, captured):
    manifest = json.loads((t.tmp / "run" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["ingest"]["errors"] == {"FieldOutOfRange": 1}


def _internal_error(t, captured):
    assert "wlantel run: internal error: a bug, not bad input" in captured.err


def _devices_without_salt(t):
    # Labels hold raw MACs, which only the ingest salt maps onto device ids.
    t.monkeypatch.delenv(SALT_ENV_VAR, raising=False)
    labels = {"injections": [{"day": "2025-03-04", "type": "duplicate_device",
                              "devices": ["06:00:00:00:00:01"]}]}
    return ["evaluate", "--run", t.run, "--labels",
            _file(t, "labels.json", json.dumps(labels))]


def _names_line_after_trace(t, captured):
    n_lines = len(t.trace.read_text(encoding="utf-8").splitlines())
    assert f"line {n_lines + 1}: not UTF-8: byte 0xe9" in captured.err


def _devices_not_strings(t, captured):
    assert "devices must be a list of strings" in captured.err


# case -> (argv builder, expected exit code, check on the output or None)
EXIT_CASES = {
    **{f"ingest-{n}": (lambda t, n=n: _ingest(t, _with_bad_lines(t, n)), 0, _ingest_skipped_one)
       for n in ("session-minutes-abc", "latency-list")},
    **{f"run-{n}": (lambda t, n=n: _run(t, _with_bad_lines(t, n)), 0, _run_skipped_one)
       for n in BAD_LINES if n.startswith("ts-")},
    **{f"strict-{n}": (lambda t, n=n: _ingest(t, _with_bad_lines(t, n), "--strict"), 1, None)
       for n in BAD_LINES},
    "serve-port-99999": (lambda t: ["serve", "--run", t.run, "--addr", "127.0.0.1:99999"], 1, None),
    "serve-port-abc": (lambda t: ["serve", "--run", t.run, "--addr", "127.0.0.1:abc"], 1, None),
    "labels-empty": (
        lambda t: ["evaluate", "--run", t.run, "--labels", _file(t, "labels.json", "{}")],
        1, None),
    "labels-bad-day": (
        lambda t: ["evaluate", "--run", t.run, "--labels", _file(
            t, "labels.json", '{"injections": [{"day": "nope", "type": "auth_burst"}]}')],
        1, None),
    "labels-devices-no-salt": (_devices_without_salt, 1, None),
    **{f"labels-devices-{name}": (
        lambda t, devices=devices: ["evaluate", "--run", t.run, "--salt-file", t.salt,
                                    "--labels", _file(t, "labels.json", json.dumps(
                                        {"injections": [{"day": "2025-03-04",
                                                         "type": "duplicate_device",
                                                         "devices": devices}]}))],
        1, _devices_not_strings)
       for name, devices in (("not-strings", [5]), ("a-string", "06:00:00:00:00:01"))},
    "bug-in-stage": (_bug_in_stage, 2, _internal_error),
    "salt-not-hex": (
        lambda t: ["ingest", "--in", str(t.trace), "--salt-file", _file(t, "zz.hex", "zz")],
        1, None),
    "window-3": (lambda t: _run(t, None, "--window", "3"), 1, None),
    "k-0": (lambda t: _run(t, None, "--k", "0"), 1, None),
    "max-concurrent-0": (lambda t: _run(t, None, "--max-concurrent", "0"), 1, None),
    "set-days-abc": (
        lambda t: ["simulate", "--out", str(t.tmp / "sim.jsonl"), "--set", "days=abc"], 1, None),
    "set-start-day-past-calendar": (
        lambda t: ["simulate", "--out", str(t.tmp / "sim.jsonl"),
                   "--set", "start_day=9999-12-25"], 1, None),
    "non-utf8-line": (
        lambda t: _ingest(t, _file(t, "latin1.jsonl",
                                   t.trace.read_bytes() + b'{"ap": "AP-\xe9"}\n')),
        1, _names_line_after_trace),
    "missing-in": (lambda t: _ingest(t, str(t.tmp / "missing.jsonl")), 1, None),
    "in-directory": (lambda t: _ingest(t, str(t.tmp)), 1, None),
    "run-not-a-directory": (
        lambda t: ["report", "--run", str(t.trace), "--out", str(t.tmp / "rep")], 1, None),
    "missing-run": (
        lambda t: ["report", "--run", str(t.tmp / "missing"), "--out", str(t.tmp / "rep")],
        1, None),
    "fewer-than-7-days": (lambda t: _run(t, _first_six_days(t)), 1, None),
    "bind-failure": (lambda t: ["serve", "--run", t.run, "--addr", _taken_port(t)], 2, None),
}


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_exit_codes(case, small_trace, salt_file, saved_run, tmp_path,
                    monkeypatch, capsys):
    """0 success, 1 input error, 2 internal error, one row per input."""
    build, expected, check = EXIT_CASES[case]
    with contextlib.ExitStack() as stack:
        t = SimpleNamespace(trace=small_trace[0], salt=salt_file, run=str(saved_run),
                            tmp=tmp_path, monkeypatch=monkeypatch, stack=stack)
        code = main(["--quiet", *build(t)])
    captured = capsys.readouterr()
    assert code == expected, captured.err
    if expected == 1:
        assert "internal error" not in captured.err
    if case.startswith("strict-"):
        n_lines = len(small_trace[0].read_text(encoding="utf-8").splitlines())
        assert f"line {n_lines + 1}:" in captured.err
    if check is not None:
        check(t, captured)


class TestReport:
    def test_renders_all_documents(self, saved_run, tmp_path):
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
    httpd = make_server(load_run(str(saved_run)), "127.0.0.1:0")
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
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


def test_serve_missing_run_exits_1(tmp_path, capsys):
    code = main(["serve", "--run", str(tmp_path / "missing"), "--addr", "127.0.0.1:0"])
    assert code == 1
    assert "bind failed" not in capsys.readouterr().err


def test_serve_bind_failure_exits_2(saved_run, capsys):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        code = main(["serve", "--run", str(saved_run), "--addr", f"127.0.0.1:{port}"])
    assert code == 2
    assert "bind failed" in capsys.readouterr().err


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
