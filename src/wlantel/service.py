"""Read-only metrics/alerts service over a sealed run directory.

Endpoints: /metrics (Prometheus text format 0.0.4), /alerts (the run's
anomalies as one JSON line) and /healthz (liveness), matched on the path
without its query string.

The server is plain `socket` and `threading`.  `serve_forever` runs a
fixed pool of POOL_SIZE threads, its caller among them.  Each thread loops:
accept a connection, read the request head, send one reply, close.  Every
reply's status line, headers and body are rendered once at start-up; the
Date header, cached per second, is the only per-request work.

A pool thread gives one connection PATIENCE_S.  A connection that needs
longer (an idle or slow client, a reply the client reads slowly, or a
request body to read and discard after the reply) moves to a spare thread
of its own, so it holds no pool thread.  At most SPARE_LIMIT connections
are in spare threads at once; past that, such a connection is closed.  A
client has TIMEOUT_S from its connection's accept for the whole exchange;
one that stalls is closed, without a reply if its head never ended.  A
head may be HEAD_LIMIT bytes at most.

Replies: GET on an endpoint is 200 and on any other path 404; POST, PUT,
DELETE and PATCH are 405; any other method, HEAD included, is 501; a
malformed request line, or a GET target that does not parse as a URL, is
400; a head past HEAD_LIMIT is 431.  Request lines may end in CRLF or a
bare LF.  Every reply closes its connection.  An unexpected fault in one
exchange is printed to stderr and closes that connection only.
"""

from __future__ import annotations

import json
import re
import socket
import sys
import threading
import time
from urllib.parse import urlsplit

from .domain import InputError
# bench/tracer.py patches load_run here as well, so the name must stay.
from .pipeline import Run, load_run  # noqa: F401

POOL_SIZE = 8
HEAD_LIMIT = 64 * 1024
TIMEOUT_S = 5.0
PATIENCE_S = 0.05
SPARE_LIMIT = 64

TEXT = "text/plain; charset=utf-8"

# Each daily gauge: the aggregate field it shows, the value's format spec,
# and its help text.  "anomalies" comes from daily_anomaly_counts.
DAILY_FAMILIES = (
    ("connections", "", "Connections opened on the day."),
    ("traffic_gb", ".6g", "Traffic on the day, in GB."),
    ("auth_failures", "", "Authentication failures on the day."),
    ("overload_pct", ".6g", "Percent of the day's access points that were overloaded."),
    ("anomalies", "", "Anomalies the run kept on the day."),
)

# method SP request-target SP HTTP-version, each part as RFC 9112 allows.
REQUEST_LINE = re.compile(rb"([!#$%&'*+.^_`|~0-9A-Za-z-]+) ([\x21-\x7e]+) HTTP/1\.[0-9]")
# The blank line that ends a request head, its line ends CRLF or bare LF.
END_OF_HEAD = re.compile(rb"\n\r?\n")
WRITE_METHODS = frozenset((b"POST", b"PUT", b"DELETE", b"PATCH"))

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 431: "Request Header Fields Too Large",
            501: "Not Implemented"}
_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _label(value) -> str:
    """A label value escaped as text format 0.0.4 requires."""
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _family(lines: list, name: str, kind: str, help_text: str, samples) -> None:
    """Append one metric family: its # HELP and # TYPE lines, then each
    (label set, value) sample."""
    lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {kind}")
    lines.extend(f"{name}{labels} {value}" for labels, value in samples)


def metrics_exposition(run: Run) -> str:
    """The run as Prometheus text format 0.0.4: one contiguous group per
    metric family, each opened by its # HELP and # TYPE lines."""
    manifest = run.manifest
    lines: list = []
    _family(lines, "wlantel_run_info", "gauge",
            "The run's id and the wlantel version that made it.",
            [(f'{{run_id="{_label(manifest["run_id"])}",'
              f'version="{_label(manifest["version"])}"}}', 1)])
    _family(lines, "wlantel_stage_seconds", "gauge",
            "Wall-clock seconds of each pipeline stage of the run.",
            [(f'{{stage="{_label(stage)}"}}', repr(float(seconds)))
             for stage, seconds in sorted(manifest["timings"].items())])
    days = [(_label(agg["day"]), {**agg, "anomalies": run.daily_anomaly_counts[agg["day"]]})
            for agg in run.aggregates]
    for field, spec, help_text in DAILY_FAMILIES:
        _family(lines, f"wlantel_daily_{field}", "gauge", help_text,
                [(f'{{day="{day}"}}', format(values[field], spec)) for day, values in days])
    by_type: dict = {}
    for e in run.anomalies:
        by_type[e["type"]] = by_type.get(e["type"], 0) + 1
    _family(lines, "wlantel_anomalies_total", "counter", "Anomalies the run kept, by type.",
            [(f'{{type="{_label(etype)}"}}', count) for etype, count in sorted(by_type.items())])
    _family(lines, "wlantel_anomalies_count", "gauge", "Anomalies the run kept.",
            [("", len(run.anomalies))])
    _family(lines, "wlantel_recommendations_count", "gauge", "Recommendations the run made.",
            [("", len(run.recommendations))])
    return "\n".join(lines) + "\n"


def _reply(status: int, content_type: str, body: bytes, extra: str = "") -> tuple:
    """A reply as (its status line and headers up to the Date header, body)."""
    return (f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}Connection: close\r\n").encode("ascii"), body


NOT_FOUND = _reply(404, TEXT, b"not found\n")
READ_ONLY = _reply(405, TEXT, b"read-only service\n", "Allow: GET\r\n")
NOT_IMPLEMENTED = _reply(501, TEXT, b"not implemented\n")
BAD_REQUEST = _reply(400, TEXT, b"malformed request line\n")
HEAD_TOO_LARGE = _reply(431, TEXT, b"request head too large\n")


def _http_date(now: int) -> bytes:
    t = time.gmtime(now)
    return (f"{_WEEKDAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} "
            f"{t.tm_year} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT").encode("ascii")


def _unsent(buffers: list, sent: int) -> list:
    """What is left of ``buffers`` once their first ``sent`` bytes have gone."""
    for i, buf in enumerate(buffers):
        if sent < len(buf):
            return [memoryview(buf)[sent:], *buffers[i + 1:]]
        sent -= len(buf)
    return []


def _wait(conn: socket.socket, until: float) -> bool:
    """Let ``conn``'s next call block until ``until``; False if that has passed."""
    remaining = until - time.monotonic()
    if remaining <= 0:
        return False
    conn.settimeout(remaining)
    return True


class _Exchange:
    """One connection's progress, so that a spare thread can take it over:
    the head read so far, then the reply still to send, then whether the
    request's leftover bytes are still to be read."""

    __slots__ = ("conn", "deadline", "data", "out", "drain")

    def __init__(self, conn: socket.socket):
        self.conn = conn
        self.deadline = time.monotonic() + TIMEOUT_S
        self.data = b""
        self.out = None  # the buffers still to send, once the head is read
        self.drain = False


class Server:
    """One listening socket and the pool of threads that serve it."""

    def __init__(self, routes: dict, host: str, port: int):
        self._routes = routes  # path -> (head up to Date, body)
        self.socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self.socket.bind((host, port))
            self.socket.listen()
        except OSError:
            self.socket.close()
            raise
        self.server_address = self.socket.getsockname()
        self._stopping = False
        self._stopped = threading.Event()  # set whenever serve_forever is not running
        self._stopped.set()
        self._spares = threading.BoundedSemaphore(SPARE_LIMIT)
        self._date = (0, b"")

    def serve_forever(self) -> None:
        """Serve until `shutdown`, from this thread and POOL_SIZE - 1 more."""
        self._stopped.clear()
        workers = [threading.Thread(target=self._work, name=f"wlantel-serve-{i}", daemon=True)
                   for i in range(1, POOL_SIZE)]
        try:
            for worker in workers:
                worker.start()
            self._work()
        finally:
            self._stop()
            for worker in workers:
                if worker.is_alive():
                    worker.join()
            self._stopped.set()

    def shutdown(self) -> None:
        """Make `serve_forever` return, and wait until it has."""
        self._stop()
        self._stopped.wait()

    def server_close(self) -> None:
        self.socket.close()

    def _stop(self) -> None:
        """Set the stop flag and shut the listening socket down, which on
        Linux fails every accept that is blocked on it."""
        self._stopping = True
        try:
            self.socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already shut down, or closed

    def _work(self) -> None:
        while not self._stopping:
            try:
                conn, _ = self.socket.accept()
            except OSError:
                if self.socket.fileno() < 0:
                    return
                continue
            exchange = _Exchange(conn)
            if self._advance(exchange, time.monotonic() + PATIENCE_S) or \
                    not self._to_spare(exchange):
                conn.close()

    def _to_spare(self, exchange: _Exchange) -> bool:
        """Finish ``exchange`` in a thread of its own, unless SPARE_LIMIT
        such threads are running."""
        if not self._spares.acquire(blocking=False):
            return False
        try:
            threading.Thread(target=self._finish, args=(exchange,), daemon=True).start()
        except RuntimeError:  # the system has no thread to give
            self._spares.release()
            return False
        return True

    def _finish(self, exchange: _Exchange) -> None:
        try:
            self._advance(exchange, exchange.deadline)
        finally:
            exchange.conn.close()
            self._spares.release()

    def _advance(self, exchange: _Exchange, until: float) -> bool:
        """Carry ``exchange`` on until it is over (True) or until ``until``
        comes first (False).  Reading the head, sending the reply and
        draining each stop at ``until``."""
        conn = exchange.conn
        try:
            while exchange.out is None:
                blank = END_OF_HEAD.search(exchange.data)
                if blank is not None or len(exchange.data) > HEAD_LIMIT:
                    exchange.out, exchange.drain = self._reply(exchange.data, blank)
                elif not _wait(conn, until):
                    return False
                elif chunk := conn.recv(8192):
                    exchange.data += chunk
                else:
                    return True  # the client closed before its head ended
            while exchange.out:
                if not _wait(conn, until):
                    return False
                exchange.out = _unsent(exchange.out, conn.sendmsg(exchange.out))
                if not exchange.out and exchange.drain:
                    # Close our side, then read what the client still sends:
                    # closing with unread bytes would reset the connection and
                    # could discard the reply before the client reads it.
                    conn.shutdown(socket.SHUT_WR)
            while exchange.drain:
                if not _wait(conn, until):
                    return False
                exchange.drain = bool(conn.recv(65536))
        except TimeoutError:
            return False
        except OSError:
            pass  # a reset: the exchange is over
        except Exception:  # a fault costs its own connection, not a thread
            import traceback  # here, so that the CLI's imports leave it out
            print("wlantel serve: internal error on a request:", file=sys.stderr)
            traceback.print_exc()
        return True

    def _reply(self, data: bytes, blank) -> tuple:
        """The buffers of the reply to request head ``data``, and whether
        bytes past the head (a body, say) may follow and must be drained."""
        end = blank.end() if blank else len(data)
        if end > HEAD_LIMIT:
            reply, method = HEAD_TOO_LARGE, None
        else:
            reply, method = self._reply_to(data[:data.index(b"\n")].removesuffix(b"\r"))
        now = int(time.time())
        second, date = self._date  # one read: another thread may replace it
        if second != now:
            date = b"Date: " + _http_date(now) + b"\r\n\r\n"
            self._date = (now, date)
        head, body = reply
        return [head, date, body], method != b"GET" or len(data) > end

    def _reply_to(self, line: bytes) -> tuple:
        """The reply to a request line, and its method (None if malformed)."""
        request = REQUEST_LINE.fullmatch(line)
        if request is None:
            return BAD_REQUEST, None
        method, target = request.groups()
        if method != b"GET":
            return (READ_ONLY if method in WRITE_METHODS else NOT_IMPLEMENTED), method
        try:
            path = urlsplit(target.decode("ascii")).path
        except ValueError:  # e.g. "//[", an unterminated IPv6 host
            return BAD_REQUEST, None
        return self._routes.get(path, NOT_FOUND), method


def make_server(snapshot: Run, addr: str = "127.0.0.1:8080") -> Server:
    host, _, port_text = addr.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not 0 <= port <= 65535:
        raise InputError(f"port must be a number in 0-65535, got {port_text!r}")
    routes = {
        "/healthz": _reply(200, TEXT, b"ok\n"),
        "/metrics": _reply(200, TEXT, metrics_exposition(snapshot).encode("utf-8")),
        "/alerts": _reply(200, "application/json",
                          (json.dumps(snapshot.anomalies) + "\n").encode("utf-8")),
    }
    return Server(routes, host or "127.0.0.1", port)
