"""Independent checks of a wlantel run directory against its raw trace.

Nothing here imports wlantel: the trace is read with this file's own
parser and every daily and per-AP figure is recounted from it.  Integers
must match exactly and floats within 1e-9 relative.

    python3 bench/check.py --trace TRACE.jsonl --run RUNDIR

checks the artifacts of RUNDIR alone, prints each failure and exits 1 if
there is any.  ``bench/run.py`` calls the same functions on every run and
adds the checks on ``evaluate``, ``report`` and ``serve`` outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import defaultdict
from datetime import date, timedelta
from pathlib import Path

REL_TOL = 1e-9
PROTOCOLS = ("dns", "http", "https", "other", "udp")
SEVERITIES = ("low", "medium", "high")
RULE_TYPES = ("duplicate_device", "simultaneous_connections")
ARTIFACTS = ("aggregates.json", "anomalies.json", "ap_stats.json", "baseline.json",
             "daily_anomaly_counts.json", "hourly_profile.json", "recommendations.json")


def close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


class Recount:
    """Per local day (UTC-5) and per AP figures, counted from raw lines."""

    def __init__(self):
        self.lines = 0
        self.days: dict = defaultdict(lambda: {
            "connections": 0, "auth_failures": 0, "sessions_ended": 0,
            "minutes": [], "proto_bytes": dict.fromkeys(PROTOCOLS, 0),
            "devices": set(), "aps": set()})
        self.ap_connections: dict = defaultdict(int)
        self.ap_latency: dict = defaultdict(list)
        self.ap_loss: dict = defaultdict(list)


def _local_day(ts: str, cache: dict) -> date:
    # "YYYY-MM-DDTHH:MM:SS[.ffffff]Z": local time is UTC-5 with no DST, so
    # the local day is the UTC date, minus one before 05:00 UTC.
    if not ts.endswith("Z") or ts[10] != "T":
        raise ValueError(f"unexpected timestamp {ts!r}")
    key = ts[:13]
    day = cache.get(key)
    if day is None:
        day = date.fromisoformat(ts[:10])
        if int(ts[11:13]) < 5:
            day -= timedelta(days=1)
        cache[key] = day
    return day


def recount_trace(path: Path) -> Recount:
    rc = Recount()
    cache: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            rc.lines += 1
            r = json.loads(line)
            kind = r["kind"]
            ap = r["ap"]
            d = rc.days[_local_day(r["ts"], cache)]
            d["aps"].add(ap)
            if kind == "ap_health":
                rc.ap_latency[ap].append(float(r["latency_ms"]))
                rc.ap_loss[ap].append(float(r["loss_pct"]))
                continue
            d["devices"].add(r["device"].lower())
            if kind == "assoc":
                d["connections"] += 1
                rc.ap_connections[ap] += 1
            elif kind == "auth_fail":
                d["auth_failures"] += 1
            elif kind == "disassoc":
                d["sessions_ended"] += 1
                d["minutes"].append(float(r["session_minutes"]))
            elif kind == "traffic":
                d["proto_bytes"][r["proto"]] += r["bytes_up"] + r["bytes_down"]
            else:
                raise ValueError(f"unexpected kind {kind!r}")
    return rc


def load_artifacts(rundir: Path) -> dict:
    return {name: json.loads((rundir / name).read_text(encoding="utf-8"))
            for name in ARTIFACTS}


def check_artifacts(rc: Recount, art: dict, fail) -> None:
    """Recount every daily aggregate and per-AP figure, then the
    properties every run must have."""
    aggregates = art["aggregates.json"]
    first, last = min(rc.days), max(rc.days)
    expected_days = [(first + timedelta(days=i)).isoformat()
                     for i in range((last - first).days + 1)]
    got_days = [a["day"] for a in aggregates]
    if got_days != expected_days:
        fail(f"aggregate days {got_days[:2]}..({len(got_days)}) != "
             f"{expected_days[:2]}..({len(expected_days)})")
    for a in aggregates:
        day = date.fromisoformat(a["day"])
        d = rc.days.get(day)
        if d is None:
            fail(f"{a['day']}: aggregate for a day with no records")
            continue
        total_bytes = sum(d["proto_bytes"].values())
        ended = d["sessions_ended"]
        exact = {
            "connections": d["connections"],
            "auth_failures": d["auth_failures"],
            "sessions_ended": ended,
            "distinct_devices": len(d["devices"]),
            "aps_seen": len(d["aps"]),
        }
        approx = {
            "mean_session_minutes": math.fsum(d["minutes"]) / ended if ended else 0.0,
            "traffic_gb": total_bytes / 10**9,
        }
        for key, want in exact.items():
            if a[key] != want:
                fail(f"{a['day']}: {key} {a[key]} != recount {want}")
        for key, want in approx.items():
            if not close(a[key], want):
                fail(f"{a['day']}: {key} {a[key]!r} != recount {want!r}")
        shares = a["proto_share"]
        if sorted(shares) != sorted(PROTOCOLS):
            fail(f"{a['day']}: protocols {sorted(shares)}")
        elif total_bytes > 0:
            if not close(math.fsum(shares.values()), 1.0):
                fail(f"{a['day']}: protocol shares sum to {math.fsum(shares.values())!r}")
            for p in PROTOCOLS:
                if not close(shares[p], d["proto_bytes"][p] / total_bytes):
                    fail(f"{a['day']}: {p} share {shares[p]!r} != recount")

    ap_stats = {s["ap"]: s for s in art["ap_stats.json"]}
    all_aps = set().union(*(d["aps"] for d in rc.days.values()))
    if set(ap_stats) != all_aps:
        fail(f"ap_stats lists {len(ap_stats)} APs, trace has {len(all_aps)}")
    for ap in sorted(all_aps & set(ap_stats)):
        s = ap_stats[ap]
        if s["monthly_connections"] != rc.ap_connections.get(ap, 0):
            fail(f"{ap}: monthly_connections {s['monthly_connections']} != "
                 f"recount {rc.ap_connections.get(ap, 0)}")
        for key, samples in (("mean_latency_ms", rc.ap_latency.get(ap)),
                             ("mean_loss_pct", rc.ap_loss.get(ap))):
            want = math.fsum(samples) / len(samples) if samples else None
            got = s[key]
            if (got is None) != (want is None) or (want is not None and not close(got, want)):
                fail(f"{ap}: {key} {got!r} != recount {want!r}")

    anomalies = art["anomalies.json"]
    day_set = set(got_days)
    per_day: dict = defaultdict(int)
    for i, e in enumerate(anomalies):
        per_day[e["day"]] += 1
        if e["day"] not in day_set:
            fail(f"anomaly {i} on unobserved day {e['day']}")
        if e.get("severity") not in SEVERITIES:
            fail(f"anomaly {i} has severity {e.get('severity')!r}")
    counts = art["daily_anomaly_counts.json"]
    if counts != {d: per_day.get(d, 0) for d in got_days}:
        fail("daily_anomaly_counts.json disagrees with anomalies.json")
    for i, rec in enumerate(art["recommendations.json"]):
        for idx in rec["linked_events"]:
            if not (isinstance(idx, int) and 0 <= idx < len(anomalies)):
                fail(f"recommendation {i} links event {idx!r} of {len(anomalies)}")


def check_evaluation(evaluation: dict, fail) -> None:
    """Every injected device-rule anomaly must be detected.  Precision is
    not asserted: the simulator can plant a benign overlap (see CHANGES.md)."""
    for etype in RULE_TYPES:
        row = evaluation["per_type"].get(etype)
        if row is None or row["injected"] == 0:
            fail(f"evaluate: no injected {etype}")
        elif row["recall"] != 1.0:
            fail(f"evaluate: {etype} recall {row['recall']} "
                 f"({row['detected']}/{row['injected']})")


def check_report(reportdir: Path, fail) -> None:
    for name in ("report.json", "metrics_table.csv", "ap_table.csv", "report.html"):
        path = reportdir / name
        if not path.is_file() or path.stat().st_size == 0:
            fail(f"report: {name} missing or empty")


def check_alerts(body: bytes, art: dict, fail) -> None:
    if json.loads(body) != art["anomalies.json"]:
        fail("/alerts does not parse to anomalies.json")


def check_metrics(body: bytes, art: dict, fail) -> None:
    lines = body.decode("utf-8").splitlines()
    days = [a["day"] for a in art["aggregates.json"]]
    per_day: dict = defaultdict(int)
    count = None
    for line in lines:
        if line.startswith("wlantel_daily_"):
            per_day[line.split('day="', 1)[1].split('"', 1)[0]] += 1
        elif line.startswith("wlantel_anomalies_count "):
            count = int(line.split()[1])
    if per_day != {d: 5 for d in days}:
        fail(f"/metrics: daily lines per day are not 5 for each of {len(days)} days")
    if count != len(art["anomalies.json"]):
        fail(f"/metrics: wlantel_anomalies_count {count} != {len(art['anomalies.json'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="recount a run directory from its trace")
    parser.add_argument("--trace", required=True, type=Path)
    parser.add_argument("--run", required=True, type=Path)
    args = parser.parse_args(argv)
    failures: list[str] = []
    check_artifacts(recount_trace(args.trace), load_artifacts(args.run), failures.append)
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
