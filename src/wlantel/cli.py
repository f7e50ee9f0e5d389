"""Command-line entry points.

Exit codes: 0 success, 1 input/usage error, 2 internal error.  Requested
artifacts go to files or stdout; diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import descriptive, report, service
from .descriptive import DEFAULT_OVERLOAD_THRESHOLD
from .detection.rules import DEFAULT_MAX_CONCURRENT
from .detection.thresholds import DEFAULT_K, DEFAULT_WINDOW
from .domain import InputError, as_table
from .ingest import SALT_ENV_VAR, IngestStats, Salt, ingest_file
from .pipeline import (
    PipelineConfig,
    descriptive_artifacts,
    evaluate,
    load_run,
    run_pipeline,
    save_run,
    write_artifacts,
)
from .simulator import GroundTruth, InvalidConfig, SimConfig, generate_month


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are input errors, exit 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="wlantel",
                     description="Campus WLAN telemetry analytics")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a labeled synthetic month")
    p.add_argument("--days", type=int, default=30)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True, help="output trace JSONL path")
    p.add_argument("--labels", help="ground-truth labels JSON path")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a SimConfig field")

    p = sub.add_parser("ingest", help="parse, anonymize, and validate a trace")
    _add_ingest_args(p)
    p.add_argument("--out", help="write validated records as JSONL, "
                                 "the lines the run's input_digest hashes")

    p = sub.add_parser("analyze", help="descriptive stage only")
    _add_ingest_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--overload-threshold", type=int, default=DEFAULT_OVERLOAD_THRESHOLD)

    p = sub.add_parser("run", help="full pipeline into a run directory")
    _add_ingest_args(p)
    _add_pipeline_args(p)
    p.add_argument("--out", required=True, help="run directory")

    p = sub.add_parser("evaluate", help="precision/recall against labels")
    p.add_argument("--run", required=True, help="run directory")
    p.add_argument("--labels", required=True, help="ground-truth labels JSON")
    p.add_argument("--salt-file")

    p = sub.add_parser("report", help="render report files for a run")
    p.add_argument("--run", required=True, help="run directory")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("serve", help="read-only metrics/alerts service")
    p.add_argument("--run", required=True, help="run directory")
    p.add_argument("--addr", default="127.0.0.1:8080")

    return parser


def _add_ingest_args(p):
    p.add_argument("--in", dest="input", required=True, help="trace file")
    p.add_argument("--salt-file", help="file holding the 16-byte salt as hex")
    p.add_argument("--pre-anonymized", action="store_true",
                   help="device field already holds 32-hex ids")
    p.add_argument("--strict", action="store_true",
                   help="abort on the first malformed line")
    p.add_argument("--format", choices=["jsonl", "csv"],
                   help="input format (default: by extension)")


def _add_pipeline_args(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--overload-threshold", type=int, default=DEFAULT_OVERLOAD_THRESHOLD)
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--k", type=float, default=DEFAULT_K)
    p.add_argument("--max-concurrent", type=int, default=DEFAULT_MAX_CONCURRENT)
    p.add_argument("--flag-rule", choices=["all", "any"], default="all")


def _load_salt(args) -> Salt | None:
    if getattr(args, "pre_anonymized", False):
        return None
    if getattr(args, "salt_file", None):
        return Salt.from_hex(Path(args.salt_file).read_text())
    if os.environ.get(SALT_ENV_VAR):
        return Salt.from_env()
    return None


def _ingest(args, stats: IngestStats):
    """The input's record chunks, read as they are consumed; ``stats``
    counts its lines."""
    salt = _load_salt(args)
    return ingest_file(args.input, salt, strict=args.strict,
                       pre_anonymized=args.pre_anonymized, format=args.format,
                       stats=stats)


def _pipeline_config(args) -> PipelineConfig:
    return PipelineConfig(
        overload_threshold=args.overload_threshold,
        window=args.window,
        k=args.k,
        max_concurrent=args.max_concurrent,
        seed=args.seed,
        flag_rule=args.flag_rule,
    )


def _cmd_simulate(args) -> int:
    overrides = {}
    for item in args.set:
        key, _, value = item.partition("=")
        if not _:
            raise InvalidConfig(f"--set needs KEY=VALUE, got {item!r}")
        overrides[key] = value
    config = SimConfig(days=args.days).with_overrides(overrides)
    trace, truth = generate_month(config, seed=args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(trace)
    if args.labels:
        with open(args.labels, "w", encoding="utf-8") as fh:
            json.dump(truth.to_json_dict(), fh, indent=2)
            fh.write("\n")
    if not args.quiet:
        records = trace.count("\n")
        print(f"wrote {records} records, "
              f"{len(truth.injections)} injected anomalies", file=sys.stderr)
    return 0


def _cmd_ingest(args) -> int:
    stats = IngestStats()
    records = as_table(_ingest(args, stats))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(records.canonical_lines())
    print(json.dumps(stats.to_json_dict(), indent=2))
    return 0


def _cmd_analyze(args) -> int:
    desc = descriptive.describe(_ingest(args, IngestStats()),
                                overload_threshold=args.overload_threshold)
    artifacts = descriptive_artifacts(desc.aggregates, desc.baseline, desc.ap_stats,
                                      desc.hourly.buckets)
    write_artifacts(args.out, artifacts)
    if not args.quiet:
        print(f"wrote {len(artifacts)} artifacts to {args.out}", file=sys.stderr)
    return 0


def _cmd_run(args) -> int:
    stats = IngestStats()
    run = run_pipeline(_ingest(args, stats), _pipeline_config(args))
    save_run(run, args.out, ingest=stats.to_json_dict())
    if not args.quiet:
        print(f"run {run.manifest['run_id']}: {stats.accepted} records, "
              f"{len(run.anomalies)} anomalies, "
              f"{len(run.recommendations)} recommendations -> {args.out}",
              file=sys.stderr)
    return 0


def _cmd_evaluate(args) -> int:
    run = load_run(args.run)
    with open(args.labels, "r", encoding="utf-8") as fh:
        truth = GroundTruth.from_json_dict(json.load(fh))
    print(json.dumps(evaluate(run.anomalies, truth, salt=_load_salt(args)),
                     indent=2, sort_keys=True))
    return 0


def _cmd_report(args) -> int:
    written = report.render_report(load_run(args.run), args.out)
    if not args.quiet:
        for path in written:
            print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_serve(args) -> int:
    snapshot = load_run(args.run)  # a missing run is an input error, not a bind failure
    try:
        server = service.make_server(snapshot, args.addr)
    except OSError as e:
        print(f"bind failed: {e}", file=sys.stderr)
        return 2
    if not args.quiet:
        host, port = server.server_address[:2]
        print(f"serving {args.run} on {host}:{port}", file=sys.stderr)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "ingest": _cmd_ingest,
    "analyze": _cmd_analyze,
    "run": _cmd_run,
    "evaluate": _cmd_evaluate,
    "report": _cmd_report,
    "serve": _cmd_serve,
}

# Every file the CLI decodes is outside input, hence UnicodeDecodeError; a
# path that names a directory where a file belongs, or the reverse, is too.
_INPUT_ERRORS = (InputError, FileNotFoundError, IsADirectoryError,
                 NotADirectoryError, json.JSONDecodeError, UnicodeDecodeError)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except _INPUT_ERRORS as e:
        print(f"wlantel {args.command}: {e}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 1
    except Exception as e:  # anything else is an internal error
        print(f"wlantel {args.command}: internal error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
