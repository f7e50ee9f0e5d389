"""Parsing, anonymization, and validation of controller log exports.

Canonical input is JSONL, one record per line; CSV is accepted with columns
mapped by header name.  Device identifiers are anonymized with a keyed
one-way digest before anything downstream sees them, so no raw MAC ever
leaves this module.
"""

from __future__ import annotations

import csv
import hashlib
import hmac
import io
import json
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, TextIO

from .domain import (
    MAC_RE,
    DEVICE_ID_RE,
    DeviceId,
    InputError,
    SessionRecord,
    ValidationError,
    validate,
)

SALT_ENV_VAR = "WLC_SALT_HEX"

_CSV_COLUMNS = ("ts", "device", "ap", "kind", "session_minutes", "bytes_up",
                "bytes_down", "proto", "latency_ms", "loss_pct")
_INT_FIELDS = ("bytes_up", "bytes_down")
_FLOAT_FIELDS = ("session_minutes", "latency_ms", "loss_pct")


class IngestError(InputError):
    pass


class InvalidMacFormat(IngestError):
    pass


class MalformedLine(IngestError):
    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


@dataclass(frozen=True)
class Salt:
    """16-byte anonymization secret.  Never serialized; repr is redacted."""

    value: bytes

    def __post_init__(self):
        if len(self.value) != 16:
            raise IngestError("salt must be exactly 16 bytes")

    def __repr__(self):
        return "Salt(<redacted>)"

    @classmethod
    def from_hex(cls, hex_str: str) -> "Salt":
        try:
            return cls(bytes.fromhex(hex_str.strip()))
        except ValueError:
            raise IngestError("salt must be 32 hex digits") from None

    @classmethod
    def from_env(cls, environ=os.environ) -> "Salt":
        hex_str = environ.get(SALT_ENV_VAR)
        if not hex_str:
            raise IngestError(f"no salt: set {SALT_ENV_VAR} or pass --salt-file")
        return cls.from_hex(hex_str)


@dataclass
class IngestStats:
    lines_read: int = 0
    accepted: int = 0
    skipped: int = 0
    errors: dict = field(default_factory=dict)  # reason class -> count

    def record_error(self, kind: str):
        self.skipped += 1
        self.errors[kind] = self.errors.get(kind, 0) + 1

    def to_json_dict(self) -> dict:
        return {
            "lines_read": self.lines_read,
            "accepted": self.accepted,
            "skipped": self.skipped,
            "errors": dict(sorted(self.errors.items())),
        }


def anonymize_device(mac: str, salt: Salt) -> DeviceId:
    """Keyed one-way digest of a MAC, truncated to 16 bytes of hex.

    Deterministic per (mac, salt); MACs are lowercased first because
    controllers emit inconsistent case.
    """
    if not MAC_RE.match(mac):
        raise InvalidMacFormat(f"not a MAC address: {mac!r}")
    digest = hmac.new(salt.value, mac.lower().encode("ascii"), hashlib.sha256).digest()
    return DeviceId(digest[:16].hex())


def parse_session_log(stream: TextIO, format: str = "jsonl",
                      strict: bool = False,
                      stats: Optional[IngestStats] = None) -> Iterator[tuple[int, dict]]:
    """Stream (line_no, raw record dict) pairs from a log export.

    Malformed lines raise MalformedLine when strict, otherwise they are
    counted in ``stats`` and skipped.  Memory use is bounded regardless of
    file size.
    """
    stats = IngestStats() if stats is None else stats
    if format == "jsonl":
        yield from _parse_jsonl(stream, strict, stats)
    elif format == "csv":
        yield from _parse_csv(stream, strict, stats)
    else:
        raise IngestError(f"unknown format {format!r} (expected jsonl or csv)")


def _reject(stats: IngestStats, strict: bool, line_no: int, reason: str,
            message: str) -> None:
    """The one reject path for a bad line: raise MalformedLine naming it
    when strict, otherwise count it under ``reason`` for the caller to skip."""
    if strict:
        raise MalformedLine(line_no, message)
    stats.record_error(reason)


def _parse_jsonl(stream, strict, stats):
    for line_no, line in enumerate(stream, start=1):
        stats.lines_read += 1
        line = line.strip()
        if not line:
            stats.record_error("blank_line")
            continue
        try:
            raw = json.loads(line)
        # JSONDecodeError, an int past the digit limit, or nesting too deep
        except (ValueError, RecursionError) as e:
            _reject(stats, strict, line_no, "invalid_json", f"invalid JSON: {e}")
            continue
        if not isinstance(raw, dict):
            _reject(stats, strict, line_no, "not_an_object", "line is not a JSON object")
            continue
        yield line_no, raw


def _csv_rows(reader):
    """Each row of ``reader``, or in its place the csv.Error that reading it
    raised (a cell past the field size limit), with the physical line the
    row starts on: a quoted cell may span lines.  The reader goes on with
    the next line after an error.  The count is the csv reader's own, as
    the DictReader's is not updated by a row that fails."""
    while True:
        line_no = reader.reader.line_num + 1
        try:
            yield line_no, next(reader)
        except StopIteration:
            return
        except csv.Error as e:
            yield line_no, e


def _parse_csv(stream, strict, stats):
    reader = csv.DictReader(stream)
    try:
        reader.fieldnames
    except csv.Error as e:  # without its header no row can be read
        raise MalformedLine(1, f"bad CSV header: {e}") from None
    for line_no, row in _csv_rows(reader):
        stats.lines_read += 1
        if isinstance(row, csv.Error):
            _reject(stats, strict, line_no, "bad_cell", f"bad cell: {row}")
            continue
        raw: dict = {}
        try:
            for col in _CSV_COLUMNS:
                val = row.get(col)
                if val is None or val == "":
                    continue
                if col in _INT_FIELDS:
                    raw[col] = int(val)
                elif col in _FLOAT_FIELDS:
                    raw[col] = float(val)
                else:
                    raw[col] = val
        except ValueError as e:
            _reject(stats, strict, line_no, "bad_cell", f"bad cell value: {e}")
            continue
        yield line_no, raw


def ingest_records(raw_records: Iterable[tuple[int, dict]], salt: Optional[Salt],
                   strict: bool = False, pre_anonymized: bool = False,
                   stats: Optional[IngestStats] = None) -> Iterator[SessionRecord]:
    """Anonymize + validate a stream of (line_no, raw dict) pairs.

    A bad line goes through `_reject`; a missing salt stops the whole ingest.
    Each distinct MAC is anonymized once: the memo maps raw MACs under this
    call's salt, so it lives only as long as the call.
    """
    stats = IngestStats() if stats is None else stats
    anonymized: dict[str, DeviceId] = {}
    for line_no, raw in raw_records:
        device = raw.get("device")
        raw_mac = isinstance(device, str) and not DEVICE_ID_RE.match(device)
        if raw_mac and pre_anonymized:
            _reject(stats, strict, line_no, "bad_device_id",
                    f"expected pre-anonymized device id, got {device!r}")
            continue
        try:
            if raw_mac:
                if salt is None:
                    raise IngestError("a salt is required to anonymize raw MACs")
                device_id = anonymized.get(device)
                if device_id is None:
                    device_id = anonymized[device] = anonymize_device(device, salt)
                raw = dict(raw, device=device_id)
            record = validate(raw)
        except (InvalidMacFormat, ValidationError) as e:
            reason = "invalid_mac" if isinstance(e, InvalidMacFormat) else type(e).__name__
            _reject(stats, strict, line_no, reason, str(e))
            continue
        stats.accepted += 1
        yield record


def ingest_stream(stream: TextIO, salt: Optional[Salt], format: str = "jsonl",
                  strict: bool = False, pre_anonymized: bool = False) -> tuple[list[SessionRecord], IngestStats]:
    stats = IngestStats()
    parsed = parse_session_log(stream, format=format, strict=strict, stats=stats)
    records = list(ingest_records(parsed, salt, strict=strict,
                                  pre_anonymized=pre_anonymized, stats=stats))
    return records, stats


def ingest_file(path: str, salt: Optional[Salt], strict: bool = False,
                pre_anonymized: bool = False,
                format: Optional[str] = None) -> tuple[list[SessionRecord], IngestStats]:
    """parse -> anonymize -> validate for one export file.

    Format is inferred from the extension unless given explicitly.
    """
    if format is None:
        format = "csv" if str(path).endswith(".csv") else "jsonl"
    with open(path, "r", encoding="utf-8") as fh:
        return ingest_stream(fh, salt, format=format, strict=strict,
                             pre_anonymized=pre_anonymized)
