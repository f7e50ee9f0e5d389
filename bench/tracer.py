"""Run one wlantel CLI command with its layers traced from outside.

    python3 bench/tracer.py --spans SPANS.json -- <wlantel arguments>

The program is not edited: this script wraps the public functions of each
layer by replacing them in every module namespace that refers to them
(``pipeline.py`` and ``detection/rules.py`` import several of them by name),
then calls ``wlantel.cli.main``.  Spans are kept in memory and written to
SPANS.json when the command returns, also when it ends by SIGTERM, which is
how a traced ``serve`` is stopped.

Each span records name, start, end, parent and self time (its duration
minus the time its child spans cover).  Functions called once per record
(``anonymize_device``, ``validate``) and the per-item resumptions of the
two ingest generators are folded into per-name totals instead of one span
per call, so tracing a month costs seconds, not gigabytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import signal
import sys
import threading
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self.spans: list[dict] = []
        self.totals: dict = {}   # name -> {"calls", "total_s", "self_s"}
        self.counts: dict = {}   # name -> number
        self.distinct: dict = {}  # name -> set of distinct first arguments
        self.origin = time.perf_counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> list:
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        parent = stack[-1][4] if stack else None
        # [name, start, time covered by children, parent id, id]
        frame = [name, time.perf_counter(), 0.0, parent, span_id]
        stack.append(frame)
        return frame

    def exit(self, frame: list, keep_span: bool) -> float:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        self_s = duration - frame[2]
        with self._lock:
            t = self.totals.setdefault(frame[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["total_s"] += duration
            t["self_s"] += self_s
            if keep_span:
                self.spans.append({"id": frame[4], "name": frame[0], "parent": frame[3],
                                   "start": frame[1] - self.origin, "end": end - self.origin,
                                   "self_s": self_s})
        return duration

    def count(self, name: str, n) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def note_distinct(self, name: str, key) -> None:
        with self._lock:
            self.distinct.setdefault(name, set()).add(key)

    def wrap(self, name: str, fn, keep_span: bool = True, on_call=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame, keep_span)
            if on_call is not None:
                on_call(self, args, result)
            return result
        return traced

    def wrap_generator(self, name: str, fn):
        """Trace a generator function: each resumption is timed as a call
        of ``name``; one span covers the generator from its first to its
        last resumption, with the busy time as its self time."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            first = None
            busy = 0.0
            items = 0
            try:
                while True:
                    frame = self.enter(name)
                    if first is None:
                        first = frame[1]
                    try:
                        item = next(gen)
                    except StopIteration:
                        busy += self.exit(frame, keep_span=False)
                        break
                    except BaseException:
                        busy += self.exit(frame, keep_span=False)
                        raise
                    busy += self.exit(frame, keep_span=False)
                    items += 1
                    yield item
            finally:
                gen.close()
                self.count(name + ".items", items)
                if first is not None:
                    with self._lock:
                        self.spans.append({"id": None, "name": name, "parent": None,
                                           "start": first - self.origin,
                                           "end": time.perf_counter() - self.origin,
                                           "busy_s": busy, "items": items})
        return traced

    def to_json_dict(self) -> dict:
        with self._lock:
            counts = dict(self.counts)
            counts.update({name: len(keys) for name, keys in self.distinct.items()})
            return {"totals": dict(self.totals), "counts": counts,
                    "spans": list(self.spans)}


def _count_distinct_macs(tracer: Tracer, args, result) -> None:
    tracer.note_distinct("ingest.distinct_macs", args[0])


def _count_classify(tracer: Tracer, args, result) -> None:
    tracer.count("detection.events_raised", len(args[0]))
    tracer.count("detection.events_kept", len(result))


def _count_recommend(tracer: Tracer, args, result) -> None:
    tracer.count("prescriptive.recommendations", len(result))


def install(tracer: Tracer) -> None:
    """Replace each traced function in every module that refers to it."""
    from wlantel import cli, descriptive, domain, ingest, pipeline, prescriptive, report, service, simulator
    from wlantel.detection import rules

    # (span name, defining module, attribute, other modules holding the name,
    #  keep one span per call, count hook)
    targets = [
        ("simulator.generate_month", simulator, "generate_month", [cli], True, None),
        ("ingest.ingest_file", ingest, "ingest_file", [cli], True, None),
        ("ingest.anonymize_device", ingest, "anonymize_device", [], False, _count_distinct_macs),
        ("domain.validate", domain, "validate", [ingest], False, None),
        ("pipeline.run_pipeline", pipeline, "run_pipeline", [cli], True, None),
        ("pipeline.input_digest", pipeline, "input_digest", [], True, None),
        ("descriptive.observed_days", descriptive, "observed_days", [], True, None),
        ("descriptive.aggregate_daily", descriptive, "aggregate_daily", [], True, None),
        ("descriptive.pair_sessions", descriptive, "pair_sessions", [rules], True, None),
        ("descriptive.build_baseline", descriptive, "build_baseline", [], True, None),
        ("descriptive.ap_load_stats", descriptive, "ap_load_stats", [], True, None),
        ("descriptive.hourly_profile", descriptive, "hourly_profile", [], True, None),
        ("detection.dynamic_threshold_alerts", pipeline, "dynamic_threshold_alerts", [], True, None),
        ("detection.protocol_anomaly", pipeline, "protocol_anomaly", [], True, None),
        ("detection.detect_duplicate_devices", pipeline, "detect_duplicate_devices", [], True, None),
        ("detection.build_features", pipeline, "build_features", [], True, None),
        ("detection.fit_isolation_forest", pipeline, "fit_isolation_forest", [], True, None),
        ("detection.iforest_score", pipeline, "iforest_score", [], True, None),
        ("detection.dbscan", pipeline, "dbscan", [], True, None),
        ("detection.classify", pipeline, "classify", [], True, _count_classify),
        ("prescriptive.recommend", prescriptive, "recommend", [], True, _count_recommend),
        ("pipeline.save_run", pipeline, "save_run", [cli], True, None),
        ("pipeline.load_run", pipeline, "load_run", [cli, service], True, None),
        ("pipeline.evaluate", pipeline, "evaluate", [cli], True, None),
        ("report.render_report", report, "render_report", [], True, None),
        ("service.metrics_exposition", service, "metrics_exposition", [], True, None),
    ]
    for name, home, attr, others, keep_span, on_call in targets:
        fn = getattr(home, attr)
        wrapped = tracer.wrap(name, fn, keep_span=keep_span, on_call=on_call)
        for module in [home, *others]:
            if getattr(module, attr) is not fn:
                raise RuntimeError(f"{module.__name__}.{attr} is not the traced function")
            setattr(module, attr, wrapped)
    # The two ingest stages are generators chained by ingest_stream.
    ingest.parse_session_log = tracer.wrap_generator("ingest.parse", ingest.parse_session_log)
    ingest.ingest_records = tracer.wrap_generator("ingest.anonymize_validate",
                                                  ingest.ingest_records)


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans JSON")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="wlantel arguments, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    from wlantel import cli
    tracer = Tracer()
    install(tracer)
    # SIGTERM ends a traced server the way Ctrl-C does, so cli.main returns
    # and the spans are written.
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        code = cli.main(command)
    finally:
        Path(args.spans).write_text(json.dumps(tracer.to_json_dict()) + "\n",
                                    encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
