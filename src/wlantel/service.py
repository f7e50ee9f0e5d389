"""Read-only metrics/alerts service over a sealed run directory.

Endpoints: /metrics (line-oriented text exposition), /alerts (anomaly list
as JSON), /healthz (liveness), matched without their query string.  The
snapshot is loaded and every reply body rendered once at startup; concurrent
readers are served from threads.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from .domain import InputError
# bench/tracer.py patches load_run here as well, so the name must stay.
from .pipeline import Run, load_run  # noqa: F401


def metrics_exposition(run: Run) -> str:
    """`name{label="v"} value` lines for the current aggregates and
    anomaly counters."""
    lines = []
    for agg in run.aggregates:
        day = agg["day"]
        lines.append(f'wlantel_daily_connections{{day="{day}"}} {agg["connections"]}')
        lines.append(f'wlantel_daily_traffic_gb{{day="{day}"}} {agg["traffic_gb"]:.6g}')
        lines.append(f'wlantel_daily_auth_failures{{day="{day}"}} {agg["auth_failures"]}')
        lines.append(f'wlantel_daily_overload_pct{{day="{day}"}} {agg["overload_pct"]:.6g}')
        lines.append(f'wlantel_daily_anomalies{{day="{day}"}} {run.daily_anomaly_counts[day]}')
    by_type: dict = {}
    for e in run.anomalies:
        by_type[e["type"]] = by_type.get(e["type"], 0) + 1
    for etype, count in sorted(by_type.items()):
        lines.append(f'wlantel_anomalies_total{{type="{etype}"}} {count}')
    lines.append(f"wlantel_anomalies_count {len(run.anomalies)}")
    lines.append(f"wlantel_recommendations_count {len(run.recommendations)}")
    return "\n".join(lines) + "\n"


class _Handler(BaseHTTPRequestHandler):
    routes: dict = {}  # path -> (content type, body bytes); set by make_server

    def do_GET(self):  # noqa: N802 (http.server API)
        route = self.routes.get(urlsplit(self.path).path)
        if route is None:
            self._reply(404, "text/plain; charset=utf-8", b"not found\n")
        else:
            self._reply(200, *route)

    def do_POST(self):  # noqa: N802
        self._reply(405, "text/plain; charset=utf-8", b"read-only service\n")

    do_PUT = do_DELETE = do_PATCH = do_POST

    def _reply(self, status: int, content_type: str, payload: bytes):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, fmt, *args):
        pass  # keep the data/diagnostic streams clean


def make_server(snapshot: Run, addr: str = "127.0.0.1:8080") -> ThreadingHTTPServer:
    host, _, port_text = addr.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not 0 <= port <= 65535:
        raise InputError(f"port must be a number in 0-65535, got {port_text!r}")
    text = "text/plain; charset=utf-8"
    routes = {
        "/healthz": (text, b"ok\n"),
        "/metrics": (text, metrics_exposition(snapshot).encode("utf-8")),
        "/alerts": ("application/json",
                    (json.dumps(snapshot.anomalies) + "\n").encode("utf-8")),
    }
    handler = type("RunHandler", (_Handler,), {"routes": routes})
    return ThreadingHTTPServer((host or "127.0.0.1", port), handler)
