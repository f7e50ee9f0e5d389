"""Parsing, anonymization, and validation of controller log exports.

Canonical input is JSONL, one record per line; CSV is accepted with columns
mapped by header name.  Device identifiers are anonymized with a keyed
one-way digest before anything downstream sees them, so no raw MAC ever
leaves this module.

Ingest reads a file in chunks of CHUNK_LINES lines and turns each chunk into
one RecordTable.  A row whose every field has the plain JSON type and form
that `validate` accepts unchanged is checked a column at a time; any other
row goes through `validate` itself, so it is accepted or rejected exactly as
it would be on its own.
"""

from __future__ import annotations

import csv
import hashlib
import hmac
import json
import math
import os
import re
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Optional, TextIO

import numpy as np

from .domain import (
    AP_ID_RE,
    DEVICE_ID_RE,
    KINDS,
    MAC_RE,
    PAYLOAD_FIELDS,
    PROTOCOLS,
    TS_MAX,
    TS_MIN,
    DeviceId,
    InputError,
    Protocol,
    RecordTable,
    SessionRecord,
    ValidationError,
    epoch_seconds,
    intern_ap,
    intern_device,
    payload_columns,
    validate,
)

SALT_ENV_VAR = "WLC_SALT_HEX"

# Lines decoded by one json.loads, and rows per RecordTable chunk.
CHUNK_LINES = 4096

# The type of each CSV column's cells: its field's JSON type, so a Protocol
# stays the string `validate` reads it from, as in JSONL.
_CSV_TYPES = {**dict.fromkeys(("ts", "device", "ap", "kind"), str),
              **{name: str if t is Protocol else t
                 for fields in PAYLOAD_FIELDS.values() for name, t, _ in fields}}


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
    counted in ``stats`` and skipped.  A line holding a byte that is not
    UTF-8, which ``errors="surrogateescape"`` reads as a lone surrogate,
    raises MalformedLine in either mode.  Memory use is bounded regardless
    of file size.
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
    line_no = 0
    for block in _blocks(stream):
        stats.lines_read += len(block)
        stripped = [line.strip() for line in block]
        texts = [text for text in stripped if text]
        numbers = [line_no + i for i, text in enumerate(stripped, start=1) if text]
        for _ in range(len(block) - len(texts)):
            stats.record_error("blank_line")
        line_no += len(block)
        rows = _decode_block(texts)
        if rows is not None:
            yield from zip(numbers, rows)
        else:
            yield from _decode_lines(numbers, texts, strict, stats)


# What surrogateescape decoding makes of a byte that is not UTF-8.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _blocks(stream) -> Iterator[list]:
    """The lines of ``stream`` in blocks of CHUNK_LINES.  A line holding a
    byte that is not UTF-8 ends them: the lines before it come as one more
    block, and then MalformedLine names it."""
    line_no = 0
    while True:
        block = list(islice(stream, CHUNK_LINES))
        if not all(map(str.isascii, block)):
            for i, line in enumerate(block):
                escaped = _ESCAPED_BYTE.search(line)
                if escaped is not None:
                    yield block[:i]
                    raise MalformedLine(line_no + i + 1, "not UTF-8: byte "
                                        f"0x{ord(escaped.group()) - 0xDC00:02x}")
        yield block
        if len(block) < CHUNK_LINES:
            return
        line_no += len(block)


def _decode_block(texts: list) -> Optional[list]:
    """The objects of the stripped non-blank lines ``texts``, decoded by one
    json.loads of the lines joined into an array; None when that decode
    cannot be shown to give each line's own object.

    The lines are joined by ",\n".  A JSON string holds no raw newline, so
    no separator can fall inside a string, only inside a value that spans
    lines.  Each object here has its one "{" and no "[", so it holds no
    container, and a separator inside it would follow a scalar; but every
    line ends in "}".  So each separator sits between two lines' values, and
    one object per line means each line is exactly one object.
    """
    if not texts:
        return []
    joined = ",\n".join(texts)
    if ("[" in joined or joined.count("{") != len(texts)
            or joined.count("},\n") != len(texts) - 1 or not joined.endswith("}")):
        return None
    try:
        rows = json.loads("[" + joined + "]")
    except ValueError:
        return None
    if len(rows) != len(texts) or set(map(type, rows)) != {dict}:
        return None
    return rows


def _decode_lines(numbers, texts, strict, stats):
    for line_no, text in zip(numbers, texts):
        try:
            raw = json.loads(text)
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
    the next line after an error."""
    while True:
        line_no = reader.line_num + 1
        try:
            yield line_no, next(reader)
        except StopIteration:
            return
        except csv.Error as e:
            yield line_no, e


def _parse_csv(stream, strict, stats):
    reader = csv.reader(chain.from_iterable(_blocks(stream)))
    try:
        header = next(reader, [])
    except csv.Error as e:  # without its header no row can be read
        raise MalformedLine(1, f"bad CSV header: {e}") from None
    # A repeated column name maps to its last column, as in a dict.
    index = {name: i for i, name in enumerate(header)}
    columns = [(name, index[name], t) for name, t in _CSV_TYPES.items() if name in index]
    for line_no, row in _csv_rows(reader):
        stats.lines_read += 1
        if isinstance(row, csv.Error):
            _reject(stats, strict, line_no, "bad_cell", f"bad cell: {row}")
            continue
        if not row or (len(row) == 1 and not row[0].strip()):
            stats.record_error("blank_line")
            continue
        raw: dict = {}
        try:
            for name, i, t in columns:
                if i < len(row) and row[i] != "":
                    raw[name] = t(row[i])
        except ValueError as e:
            _reject(stats, strict, line_no, "bad_cell", f"bad cell value: {e}")
            continue
        yield line_no, raw


def ingest_records(raw_records: Iterable[tuple[int, dict]], salt: Optional[Salt],
                   strict: bool = False, pre_anonymized: bool = False,
                   stats: Optional[IngestStats] = None) -> Iterator[RecordTable]:
    """Anonymize + validate a stream of (line_no, raw dict) pairs into one
    RecordTable per CHUNK_LINES rows, in input order.

    A bad line goes through `_reject`, in line order; a missing salt stops
    the whole ingest.  Each distinct MAC is anonymized once: the memo maps
    raw MACs under this call's salt, so it lives only as long as the call.
    """
    rows = iter(raw_records)
    chunks = _Chunks(salt, strict, pre_anonymized, IngestStats() if stats is None else stats)
    while True:
        batch: list = []
        try:
            batch.extend(islice(rows, CHUNK_LINES))
        except MalformedLine:
            chunks.table(batch)  # a bad line before the one parsing stopped at comes first
            raise
        if batch:
            yield chunks.table(batch)
        if len(batch) < CHUNK_LINES:
            return


class _Chunks:
    """One ingest call's options, its counts, and its memo of the raw MACs
    anonymized under its salt, which lives only as long as the call."""

    def __init__(self, salt: Optional[Salt], strict: bool, pre_anonymized: bool,
                 stats: IngestStats):
        self.salt = salt
        self.strict = strict
        self.pre_anonymized = pre_anonymized
        self.stats = stats
        self.memo: dict[str, DeviceId] = {}
        self.device_ids: dict = {}  # device value -> its id on the column path, or None

    def table(self, batch: list) -> RecordTable:
        """The accepted rows of ``batch``: the plain ones by columns, the
        others one at a time through `validated`."""
        lines = np.array([line_no for line_no, _ in batch], np.int64)
        rows = [raw for _, raw in batch]
        plain, columns, devices, aps = _plain_columns(rows, self.plain_device)
        table = RecordTable(**{name: column[plain] for name, column in columns.items()},
                            line=lines[plain], devices=devices, aps=aps)
        checked = [(i, self.validated(int(lines[i]), rows[i]))
                   for i in np.flatnonzero(~plain).tolist()]
        checked = [(i, record) for i, record in checked if record is not None]
        self.stats.accepted += len(table) + len(checked)
        if not checked:
            return table
        at = [i for i, _ in checked]
        table = RecordTable.concat([table, RecordTable.from_records(
            [record for _, record in checked], lines[at])])
        return table.take(np.argsort(np.concatenate([np.flatnonzero(plain), at]), kind="stable"))

    def validated(self, line_no: int, raw: dict) -> Optional[SessionRecord]:
        """One row through `validate`, or None after `_reject` when it is bad."""
        device = raw.get("device")
        raw_mac = isinstance(device, str) and not DEVICE_ID_RE.match(device)
        if raw_mac and self.pre_anonymized:
            _reject(self.stats, self.strict, line_no, "bad_device_id",
                    f"expected pre-anonymized device id, got {device!r}")
            return None
        try:
            if raw_mac:
                raw = dict(raw, device=self.anonymized(device))
            return validate(raw)
        except (InvalidMacFormat, ValidationError) as e:
            reason = "invalid_mac" if isinstance(e, InvalidMacFormat) else type(e).__name__
            _reject(self.stats, self.strict, line_no, reason, str(e))
            return None

    def anonymized(self, mac: str) -> DeviceId:
        if self.salt is None:
            raise IngestError("a salt is required to anonymize raw MACs")
        device_id = self.memo.get(mac)
        if device_id is None:
            device_id = self.memo[mac] = anonymize_device(mac, self.salt)
        return device_id

    def plain_device(self, value) -> Optional[DeviceId]:
        """The id a device value stands for on the column path, or None when
        its row must go through `validated`."""
        if value in self.device_ids:
            return self.device_ids[value]
        device_id = None
        if type(value) is str:
            if DEVICE_ID_RE.match(value):
                device_id = intern_device(value)
            elif self.salt is not None and not self.pre_anonymized and MAC_RE.match(value):
                device_id = self.anonymized(value)
        self.device_ids[value] = device_id
        return device_id


# -- the column path ---------------------------------------------------------

_KIND_CODES = {kind.value: i for i, kind in enumerate(KINDS)}
_PROTO_CODES = {proto.value: i for i, proto in enumerate(PROTOCOLS)}
# A plain row has exactly its kind's keys: the four every record has and
# its payload fields.
_ROW_WIDTHS = np.array([4 + len(PAYLOAD_FIELDS[kind]) for kind in KINDS])
# The timestamp forms wlantel writes, "D" a digit and "\0" the padding of
# the shorter form in a fixed-width numpy string.
_TS_FORMS = {20: "DDDD-DD-DDTDD:DD:DDZ\0\0\0\0\0\0\0", 27: "DDDD-DD-DDTDD:DD:DD.DDDDDDZ"}
_TS_TEMPLATES = {size: np.array([-1 if c == "D" else ord(c) for c in form])
                 for size, form in _TS_FORMS.items()}
_TS_RANGE = (epoch_seconds(TS_MIN), epoch_seconds(TS_MAX))
_MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
_INT64_MAX = int(np.iinfo(np.int64).max)


def _plain_columns(rows: list, device_of: Callable) -> tuple:
    """Which rows are plain, and the RecordTable columns of every row, which
    hold a value wherever the row is plain.  ``device_of`` gives the id a
    device value stands for, or None when it must go through `validate`."""
    n = len(rows)
    kind = np.array(_codes_of(_KIND_CODES, [r.get("kind") for r in rows]), np.int8)
    plain = (kind >= 0) & (np.fromiter(map(len, rows), np.int64, n) == _ROW_WIDTHS[kind])
    ts, ok = _ts_column([r.get("ts") for r in rows])
    plain &= ok
    devices, device = _id_column([r.get("device") for r in rows], device_of)
    aps, ap = _id_column([r.get("ap") for r in rows], _plain_ap)
    plain &= (device >= 0) & (ap >= 0)
    columns = {"ts": ts, "kind": kind, "device": device, "ap": ap, **payload_columns(n)}
    for code, kind_ in enumerate(KINDS):
        at = np.flatnonzero(plain & (kind == code)) if PAYLOAD_FIELDS[kind_] else ()
        if not len(at):
            continue
        sub = [rows[i] for i in at.tolist()]
        for name, t, high in PAYLOAD_FIELDS[kind_]:
            values, ok = _payload_column([r.get(name) for r in sub], t, high)
            columns[name][at] = values
            plain[at[~ok]] = False
    return plain, columns, devices, aps


def _codes_of(codes: dict, values: list) -> list:
    """Each value's code in ``codes``, -1 for any other value."""
    try:
        return [codes[v] for v in values]
    except (KeyError, TypeError):
        return [codes.get(v, -1) if type(v) is str else -1 for v in values]


def _ts_column(values: list) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds of each timestamp in one of `_TS_FORMS`, truncated to
    the second, and which ones are such a timestamp, a real instant and in
    [TS_MIN, TS_MAX], as `validate` would read them."""
    n = len(values)
    if set(map(type, values)) - {str}:
        values = [v if type(v) is str else "" for v in values]
    size = np.fromiter(map(len, values), np.int64, n)
    c = np.array(values, dtype="U27").view(np.uint32).reshape(n, 27).astype(np.int64)
    long = size == 27
    template = np.where(long[:, None], _TS_TEMPLATES[27], _TS_TEMPLATES[20])
    ok = (long | (size == 20)) & np.where(
        template < 0, (c >= ord("0")) & (c <= ord("9")), c == template).all(axis=1)
    d = c - ord("0")
    year = d[:, 0] * 1000 + d[:, 1] * 100 + d[:, 2] * 10 + d[:, 3]
    month, day, hour, minute, second = (d[:, i] * 10 + d[:, i + 1] for i in (5, 8, 11, 14, 17))
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(month, 1, 12) - 1] + (leap & (month == 2))
    ok &= ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
           & (hour <= 23) & (minute <= 59) & (second <= 59))
    epoch = _days_from_civil(year, month, day) * 86400 + hour * 3600 + minute * 60 + second
    ok &= (epoch >= _TS_RANGE[0]) & (epoch <= _TS_RANGE[1])
    return epoch, ok


def _days_from_civil(year, month, day):
    """Days since 1970-01-01 of proleptic Gregorian dates (H. Hinnant's
    days_from_civil), for arrays."""
    year = year - (month <= 2)
    era = year // 400
    year_of_era = year - era * 400
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    day_of_era = year_of_era * 365 + year_of_era // 4 - year_of_era // 100 + day_of_year
    return era * 146097 + day_of_era - 719468


def _id_column(values: list, id_of: Callable) -> tuple[tuple, np.ndarray]:
    """The distinct ids ``values`` stand for and each row's code among
    them, -1 where ``id_of`` gives None.  ``id_of`` runs once per distinct
    value."""
    index: dict = {}
    try:
        keys = [index.setdefault(v, len(index)) for v in values]
    except TypeError:  # an unhashable value, which is no id
        index = {}
        keys = [index.setdefault(v if type(v) is str else None, len(index)) for v in values]
    ids: dict = {}
    codes = []
    for value in index:
        i = id_of(value)
        codes.append(-1 if i is None else ids.setdefault(i.value, (len(ids), i))[0])
    return (tuple(i for _, i in ids.values()),
            np.array(codes, np.int32)[np.array(keys, np.intp)])


def _plain_ap(value):
    return intern_ap(value) if type(value) is str and AP_ID_RE.match(value) else None


def _payload_column(values: list, t: type, high) -> tuple[np.ndarray, np.ndarray]:
    """A payload field's column values and which are plain: of its JSON type
    and within its range, so `validate` would keep them as they are."""
    if t is Protocol:
        codes = np.array(_codes_of(_PROTO_CODES, values), np.int8)
        return codes, codes >= 0
    if t is int:
        column = _exact_column(values, {int}, np.int64)
        if column is None:
            column = np.array([v if type(v) is int and 0 <= v <= _INT64_MAX else -1
                               for v in values], np.int64)
        return column, column >= 0
    column = _exact_column(values, {int, float}, np.float64)
    if column is None:
        column = np.array([_as_float(v) for v in values], np.float64)
    return column, np.isfinite(column) & (column >= 0) & (column <= high)


def _exact_column(values: list, types: set, dtype) -> Optional[np.ndarray]:
    """``values`` as a ``dtype`` array if every one has a type in ``types``
    and converts, else None."""
    if not set(map(type, values)) <= types:
        return None
    try:
        return np.array(values, dtype)
    except OverflowError:
        return None


def _as_float(value) -> float:
    """A float field's value if it is a JSON number that converts, else NaN,
    which no range admits."""
    if type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:
            pass
    return math.nan


def ingest_stream(stream: TextIO, salt: Optional[Salt], format: str = "jsonl",
                  strict: bool = False, pre_anonymized: bool = False) -> tuple[RecordTable, IngestStats]:
    stats = IngestStats()
    parsed = parse_session_log(stream, format=format, strict=strict, stats=stats)
    table = RecordTable.concat(ingest_records(parsed, salt, strict=strict,
                                              pre_anonymized=pre_anonymized, stats=stats))
    return table, stats


def ingest_file(path: str, salt: Optional[Salt], strict: bool = False,
                pre_anonymized: bool = False, format: Optional[str] = None,
                stats: Optional[IngestStats] = None) -> Iterator[RecordTable]:
    """parse -> anonymize -> validate for one export file, streamed: the
    file is read as the chunk tables are consumed, and ``stats`` counts its
    lines.

    Format is inferred from the extension unless given explicitly.
    """
    if format is None:
        format = "csv" if str(path).endswith(".csv") else "jsonl"
    stats = IngestStats() if stats is None else stats
    # A byte that is not UTF-8 is read as a lone surrogate, so that parsing
    # can name its line.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        yield from ingest_records(parse_session_log(fh, format=format, strict=strict, stats=stats),
                                  salt, strict=strict, pre_anonymized=pre_anonymized, stats=stats)
