"""Parsing, anonymization, and validation of log exports."""

from __future__ import annotations

import csv
import io
import json
from datetime import datetime
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import RAW_MAC

from wlantel import ingest
from wlantel.domain import (
    DEVICE_ID_RE,
    MAC_RE,
    PAYLOAD_FIELDS,
    EventKind,
    Protocol,
    ValidationError,
    as_table,
    validate,
)
from wlantel.ingest import (
    SALT_ENV_VAR,
    IngestError,
    IngestStats,
    InvalidMacFormat,
    MalformedLine,
    Salt,
    anonymize_device,
    ingest_file,
    ingest_stream,
    parse_session_log,
)

MAC = "aa:bb:cc:dd:ee:ff"


@pytest.fixture
def salt():
    return Salt.from_hex("000102030405060708090a0b0c0d0e0f")


def jsonl(*records):
    return io.StringIO("\n".join(json.dumps(r) for r in records) + "\n")


def assoc(mac=MAC, ts="2025-03-03T15:00:00Z", ap="AP-101"):
    return {"ts": ts, "device": mac, "ap": ap, "kind": "assoc"}


class TestSalt:
    def test_requires_16_bytes(self):
        with pytest.raises(ValueError):
            Salt(b"short")

    def test_repr_never_leaks_value(self):
        s = Salt(b"0123456789abcdef")
        assert "0123456789abcdef" not in repr(s)
        assert "redacted" in repr(s)

    def test_from_env(self):
        env = {SALT_ENV_VAR: "00" * 16}
        assert Salt.from_env(environ=env).value == b"\x00" * 16
        with pytest.raises(IngestError):
            Salt.from_env(environ={})

    @pytest.mark.parametrize("text", ["zz", "00" * 8, "00" * 17])
    def test_from_hex_rejects_bad_text(self, text):
        with pytest.raises(IngestError):
            Salt.from_hex(text)


class TestAnonymizeDevice:
    def test_output_is_device_id_not_mac(self, salt):
        device = anonymize_device(MAC, salt)
        assert DEVICE_ID_RE.match(device.value)
        assert not MAC_RE.match(device.value)

    def test_deterministic_and_case_insensitive(self, salt):
        assert anonymize_device(MAC, salt) == anonymize_device(MAC.upper(), salt)

    def test_different_macs_differ(self, salt):
        assert anonymize_device(MAC, salt) != \
            anonymize_device("aa:bb:cc:dd:ee:fe", salt)

    def test_different_salts_differ(self, salt):
        other = Salt.from_hex("ff" * 16)
        assert anonymize_device(MAC, salt) != anonymize_device(MAC, other)

    @pytest.mark.parametrize("bad", ["", "aabbccddeeff", "aa:bb:cc:dd:ee",
                                     "gg:bb:cc:dd:ee:ff", "a" * 32, MAC + "\n"])
    def test_rejects_non_mac(self, bad, salt):
        with pytest.raises(InvalidMacFormat):
            anonymize_device(bad, salt)


class TestParseJsonl:
    def test_happy_path(self):
        rows = list(parse_session_log(jsonl(assoc(), assoc())))
        assert [n for n, _ in rows] == [1, 2]

    def test_malformed_line_skipped_and_counted(self):
        stats = IngestStats()
        stream = io.StringIO('{"ok": 1}\nnot json\n[1, 2]\n')
        rows = list(parse_session_log(stream, stats=stats))
        assert len(rows) == 1
        assert stats.lines_read == 3
        assert stats.errors["invalid_json"] == 1
        assert stats.errors["not_an_object"] == 1

    def test_unparseable_json_values_counted(self):
        stats = IngestStats()
        stream = io.StringIO('{"n": ' + "1" * 5000 + '}\n' + "[" * 100000 + "\n")
        assert list(parse_session_log(stream, stats=stats)) == []
        assert stats.errors == {"invalid_json": 2}

    def test_strict_raises_with_line_number(self):
        stream = io.StringIO('{"ok": 1}\nnot json\n')
        with pytest.raises(MalformedLine) as exc:
            list(parse_session_log(stream, strict=True))
        assert exc.value.line_no == 2

    def test_blank_lines_counted_as_skipped(self):
        stats = IngestStats()
        stream = io.StringIO('\n{"ok": 1}\n\n')
        rows = list(parse_session_log(stream, stats=stats))
        assert len(rows) == 1
        assert stats.lines_read == 3
        assert stats.errors["blank_line"] == 2

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            list(parse_session_log(io.StringIO(""), format="xml"))


class TestParseCsv:
    CSV = ("ts,device,ap,kind,session_minutes,bytes_up,bytes_down,proto,"
           "latency_ms,loss_pct\n"
           "2025-03-03T15:00:00Z,aa:bb:cc:dd:ee:ff,AP-101,assoc,,,,,,\n"
           "2025-03-03T16:00:00Z,aa:bb:cc:dd:ee:ff,AP-101,disassoc,60,,,,,\n")

    def test_columns_mapped_and_typed(self):
        rows = list(parse_session_log(io.StringIO(self.CSV), format="csv"))
        assert len(rows) == 2
        _, disassoc = rows[1]
        assert disassoc["session_minutes"] == 60.0
        assert "bytes_up" not in disassoc  # empty cells stay absent

    def test_bad_cell_skipped_unless_strict(self):
        bad = self.CSV + "2025-03-03T17:00:00Z,aa:bb:cc:dd:ee:ff,AP-101,disassoc,sixty,,,,,\n"
        stats = IngestStats()
        rows = list(parse_session_log(io.StringIO(bad), format="csv", stats=stats))
        assert len(rows) == 2
        assert stats.errors["bad_cell"] == 1
        with pytest.raises(MalformedLine):
            list(parse_session_log(io.StringIO(bad), format="csv", strict=True))

    def test_cell_over_field_limit_is_one_bad_cell(self):
        header, good = self.CSV.splitlines(keepends=True)[:2]
        huge = f"2025-03-03T15:00:00Z,{MAC},AP-101,{'x' * 200_000},,,,,,\n"
        stats = IngestStats()
        rows = list(parse_session_log(io.StringIO(header + huge + good),
                                      format="csv", stats=stats))
        assert [n for n, _ in rows] == [3]
        assert stats.lines_read == 2
        assert stats.errors == {"bad_cell": 1}
        with pytest.raises(MalformedLine) as exc:
            list(parse_session_log(io.StringIO(header + huge + good),
                                   format="csv", strict=True))
        assert exc.value.line_no == 2

    def test_line_numbers_count_physical_lines(self):
        # A quoted cell that spans two lines: the next row starts on line 4.
        text = ("ts,device,ap,kind,session_minutes,note\n"
                f'2025-03-03T15:00:00Z,{MAC},AP-101,assoc,,"a\nb"\n'
                f"2025-03-03T16:00:00Z,{MAC},AP-101,disassoc,sixty,\n")
        stats = IngestStats()
        rows = list(parse_session_log(io.StringIO(text), format="csv", stats=stats))
        assert [n for n, _ in rows] == [2]
        assert stats.lines_read == 2
        with pytest.raises(MalformedLine) as exc:
            list(parse_session_log(io.StringIO(text), format="csv", strict=True))
        assert exc.value.line_no == 4
        assert "line 4: bad cell value" in str(exc.value)

    def test_blank_line_counted_and_later_rows_keep_their_line(self):
        text = ("ts,device,ap,kind,session_minutes\n"
                "\n"
                f"2025-03-03T16:00:00Z,{MAC},AP-101,disassoc,sixty\n")
        stats = IngestStats()
        assert list(parse_session_log(io.StringIO(text), format="csv", stats=stats)) == []
        assert stats.lines_read == 2
        assert stats.errors == {"bad_cell": 1, "blank_line": 1}
        with pytest.raises(MalformedLine) as exc:
            list(parse_session_log(io.StringIO(text), format="csv", strict=True))
        assert "line 3: bad cell value" in str(exc.value)

    def test_space_only_line_is_blank_as_in_jsonl(self, salt):
        text = f"ts,device,ap,kind\n   \n2025-03-03T15:00:00Z,{MAC},AP-101,assoc\n"
        twin = "   \n" + json.dumps(assoc()) + "\n"
        from_jsonl, jsonl_stats = ingest_stream(io.StringIO(twin), salt)
        from_csv, stats = ingest_stream(io.StringIO(text), salt, format="csv")
        assert stats.errors == jsonl_stats.errors == {"blank_line": 1}
        assert list(from_csv) == list(from_jsonl) and len(from_csv) == 1
        strict_csv, _ = ingest_stream(io.StringIO(text), salt, format="csv", strict=True)
        assert list(strict_csv) == list(from_jsonl)

    def test_every_kind_ingests_as_its_jsonl_twin(self, salt):
        rows = [
            assoc(),
            dict(assoc(ts="2025-03-03T16:00:00Z"), kind="disassoc", session_minutes=60),
            dict(assoc(ts="2025-03-03T16:05:00Z"), kind="auth_fail"),
            dict(assoc(ts="2025-03-03T16:10:00Z"), kind="traffic", bytes_up=1200,
                 bytes_down=3_400_000_000, proto="https"),
            dict(assoc(ts="2025-03-03T16:15:00Z", mac="11:22:33:44:55:66"),
                 kind="ap_health", latency_ms=12.5, loss_pct=0.25),
        ]
        # Columns in another order than the JSON keys: cells map by header.
        columns = ["kind", "loss_pct", "proto", "bytes_down", "ts", "latency_ms",
                   "session_minutes", "device", "bytes_up", "ap"]
        text = io.StringIO()
        writer = csv.DictWriter(text, fieldnames=columns, restval="")
        writer.writeheader()
        writer.writerows(rows)
        from_csv, stats = ingest_stream(io.StringIO(text.getvalue()), salt, format="csv")
        from_jsonl, _ = ingest_stream(jsonl(*rows), salt)
        assert stats.accepted == 5
        assert {r.kind.value for r in from_csv} == {r["kind"] for r in rows}
        assert list(from_csv) == list(from_jsonl)


class TestIngestStream:
    def test_anonymizes_raw_macs(self, salt):
        records, stats = ingest_stream(jsonl(assoc()), salt)
        assert stats.accepted == 1
        assert records[0].device == anonymize_device(MAC, salt)

    def test_requires_salt_for_raw_macs(self):
        with pytest.raises(IngestError):
            ingest_stream(jsonl(assoc()), salt=None)

    def test_pre_anonymized_passthrough(self):
        dev = "ab" * 16
        records, stats = ingest_stream(jsonl(assoc(mac=dev)), salt=None,
                                       pre_anonymized=True)
        assert records[0].device.value == dev

    def test_pre_anonymized_rejects_raw_mac(self, salt):
        _, stats = ingest_stream(jsonl(assoc()), salt, pre_anonymized=True)
        assert stats.accepted == 0
        assert stats.errors["bad_device_id"] == 1

    def test_invalid_mac_counted(self, salt):
        _, stats = ingest_stream(jsonl(assoc(mac="zz:zz")), salt)
        assert stats.accepted == 0
        assert stats.errors["invalid_mac"] == 1

    def test_mac_with_trailing_newline_is_invalid(self, salt):
        _, stats = ingest_stream(jsonl(assoc(mac="02:00:00:00:00:01\n")), salt)
        assert stats.accepted == 0
        assert stats.errors == {"invalid_mac": 1}

    def test_anonymizes_each_distinct_mac_once(self, salt, monkeypatch):
        calls = []

        def counting(mac, salt):
            calls.append(mac)
            return anonymize_device(mac, salt)

        monkeypatch.setattr(ingest, "anonymize_device", counting)
        other = "11:22:33:44:55:66"
        records, _ = ingest_stream(
            jsonl(assoc(), assoc(mac=other), assoc(), assoc(mac=other), assoc()), salt)
        assert sorted(calls) == sorted([MAC, other])
        assert [r.device for r in records] == [anonymize_device(m, salt)
                                               for m in (MAC, other, MAC, other, MAC)]

    def test_records_share_one_id_object_per_device_and_ap(self, salt):
        records, _ = ingest_stream(jsonl(
            assoc(), assoc(ap="AP-102"), assoc(mac="11:22:33:44:55:66"), assoc()), salt)
        first, other_ap, other_mac, last = records
        assert first.device is other_ap.device is last.device
        assert first.ap is other_mac.ap is last.ap
        assert other_mac.device is not first.device
        assert other_ap.ap is not first.ap

    def test_pre_anonymized_records_share_id_objects(self):
        dev = "ab" * 16
        records, _ = ingest_stream(jsonl(assoc(mac=dev), assoc(mac=dev)), salt=None,
                                   pre_anonymized=True)
        assert records[0].device is records[1].device
        assert records[0].ap is records[1].ap

    def test_memo_is_bound_to_one_ingest_and_its_salt(self, salt):
        other = Salt.from_hex("ff" * 16)
        first, _ = ingest_stream(jsonl(assoc()), salt)
        second, _ = ingest_stream(jsonl(assoc()), other)
        assert first[0].device != second[0].device
        assert second[0].device == anonymize_device(MAC, other)

    def test_validation_failure_counted_by_class(self, salt):
        bad = dict(assoc(), kind="disassoc")  # missing session_minutes
        _, stats = ingest_stream(jsonl(bad), salt)
        assert stats.errors["FieldMissing"] == 1

    def test_strict_validation_raises_malformed_line(self, salt):
        bad = dict(assoc(), kind="disassoc")
        with pytest.raises(MalformedLine):
            ingest_stream(jsonl(bad), salt, strict=True)

    @pytest.mark.parametrize("bad", [
        dict(assoc(), kind="disassoc", session_minutes="abc"),
        dict(assoc(), kind="ap_health", latency_ms=[1], loss_pct=1.0),
        assoc(ts="0001-01-01T00:00:00+05:00"),
        assoc(ts="0001-01-01T01:00:00Z"),
        assoc(ts="9999-12-31T23:59:59Z"),
    ])
    def test_bad_value_skipped_or_strict_names_line(self, salt, bad):
        records, stats = ingest_stream(jsonl(assoc(), bad), salt)
        assert len(records) == 1
        assert stats.errors == {"FieldOutOfRange": 1}
        with pytest.raises(MalformedLine) as exc:
            ingest_stream(jsonl(assoc(), bad), salt, strict=True)
        assert exc.value.line_no == 2

    def test_accounting_invariant(self, salt):
        stream = jsonl(assoc(), dict(assoc(), kind="bogus"), assoc(mac="nope"))
        _, stats = ingest_stream(stream, salt)
        assert stats.accepted + stats.skipped == stats.lines_read
        assert stats.accepted == 1

    def test_no_raw_mac_survives_ingest(self, salt):
        records, _ = ingest_stream(jsonl(assoc(), assoc(mac="11:22:33:44:55:66")),
                                   salt)
        blob = json.dumps([r.to_json_dict() for r in records])
        assert not RAW_MAC.search(blob)
        assert MAC not in blob


class TestIngestFile:
    def test_format_inferred_from_extension(self, tmp_path, salt):
        path = tmp_path / "trace.csv"
        path.write_text(TestParseCsv.CSV)
        stats = IngestStats()
        records = as_table(ingest_file(str(path), salt, stats=stats))
        assert stats.accepted == len(records) == 2

    def test_jsonl_default(self, tmp_path, salt):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(assoc()) + "\n")
        records = as_table(ingest_file(str(path), salt))
        assert len(records) == 1

    # Line 2 has an unknown kind; line 3 holds the byte 0xe9.
    NON_UTF8 = {
        "trace.jsonl": json.dumps(assoc()) + "\n" + json.dumps(dict(assoc(), kind="bogus"))
        + '\n{"ap": "AP-\udce9"}\n',
        "trace.csv": f"ts,device,ap,kind\n2025-03-03T15:00:00Z,{MAC},AP-101,bogus\n"
        f"2025-03-03T16:00:00Z,{MAC},AP-\udce9,assoc\n",
    }

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("name", sorted(NON_UTF8))
    def test_non_utf8_line_is_named_after_earlier_bad_lines(self, tmp_path, salt, name, strict):
        path = tmp_path / name
        path.write_bytes(self.NON_UTF8[name].encode("utf-8", "surrogateescape"))
        stats = IngestStats()
        with pytest.raises(MalformedLine) as exc:
            as_table(ingest_file(str(path), salt, strict=strict, stats=stats))
        if strict:
            assert str(exc.value) == "line 2: kind: unknown event kind 'bogus'"
        else:
            assert str(exc.value) == "line 3: not UTF-8: byte 0xe9"
            assert stats.errors == {"UnknownEventKind": 1}


@settings(max_examples=50, deadline=None)
@given(octets=st.lists(st.integers(0, 255), min_size=6, max_size=6))
def test_anonymization_never_emits_mac_shaped_output(octets):
    mac = ":".join(f"{o:02x}" for o in octets)
    device = anonymize_device(mac, Salt(b"fixed-salt-16byt"))
    assert DEVICE_ID_RE.match(device.value)
    assert mac not in device.value


# -- the column path against one row at a time --------------------------------

def reference_parse(text, strict, stats):
    """JSONL parsing one line at a time, as ingest did before it decoded
    lines in chunks."""
    for line_no, line in enumerate(io.StringIO(text), start=1):
        stats.lines_read += 1
        line = line.strip()
        if not line:
            stats.record_error("blank_line")
            continue
        try:
            raw = json.loads(line)
        except (ValueError, RecursionError) as e:
            reference_reject(stats, strict, line_no, "invalid_json", f"invalid JSON: {e}")
            continue
        if not isinstance(raw, dict):
            reference_reject(stats, strict, line_no, "not_an_object", "line is not a JSON object")
            continue
        yield line_no, raw


def reference_reject(stats, strict, line_no, reason, message):
    if strict:
        raise MalformedLine(line_no, message)
    stats.record_error(reason)


def reference_records(pairs, salt, strict, pre_anonymized, stats):
    """A plain loop of `validate` over the rows, anonymizing raw MACs first."""
    records = []
    for line_no, raw in pairs:
        device = raw.get("device")
        raw_mac = isinstance(device, str) and not DEVICE_ID_RE.match(device)
        if raw_mac and pre_anonymized:
            reference_reject(stats, strict, line_no, "bad_device_id",
                             f"expected pre-anonymized device id, got {device!r}")
            continue
        try:
            if raw_mac:
                if salt is None:
                    raise IngestError("a salt is required to anonymize raw MACs")
                raw = dict(raw, device=anonymize_device(device, salt))
            record = validate(raw)
        except (InvalidMacFormat, ValidationError) as e:
            reason = "invalid_mac" if isinstance(e, InvalidMacFormat) else type(e).__name__
            reference_reject(stats, strict, line_no, reason, str(e))
            continue
        stats.accepted += 1
        records.append(record)
    return records


def outcome(run):
    """What an ingest gives: its records and counts, or the error it raised."""
    try:
        records, stats = run()
    except IngestError as e:
        return type(e).__name__, str(e)
    return list(records), stats.to_json_dict()


MACS = ("aa:bb:cc:dd:ee:ff", "02:00:00:00:00:01", "06:00:00:00:00:02")
PLAIN_TS = st.builds(
    lambda t, fraction: t.strftime("%Y-%m-%dT%H:%M:%S") + (f".{t.microsecond:06d}" if fraction else "") + "Z",
    st.datetimes(min_value=datetime(2025, 3, 1), max_value=datetime(2025, 3, 20)), st.booleans())
ODD_TS = st.sampled_from([
    "2025-03-03T15:00:00+00:00", "2025-03-03T15:00:00", "2025-03-03T15:00:00z",
    "2025-03-03T15:00:00.123456z", "0001-01-01T01:00:00Z", "0001-01-01T05:00:00Z",
    "9999-12-29T23:59:59Z", "9999-12-31T23:59:59Z", "2025-02-29T00:00:00Z",
    "2024-02-29T10:00:00Z", "2025-03-03T24:00:00Z", "2025-03-03T15:00:60Z",
    "2025-03-03T15:00:00.5Z", "0000-01-01T00:00:00Z", "2025-03-03 15:00:00Z", "",
    "2025-03-03T15:00:00Z\x00", 1741014000, None])
ODD_VALUES = st.sampled_from([
    True, False, "12.5", "abc", -1, -0.0, 0, float("nan"), float("inf"), 10**30, 2**63 - 1,
    2**63, 10**400, 1440.0, 1440.5, 100.0, 100.5, "dns", "DNS", "bogus", [1], {"a": 1}, None])
PLAIN_VALUES = {
    "session_minutes": st.one_of(st.floats(0, 1440), st.integers(0, 1440)),
    "bytes_up": st.integers(0, 10**12), "bytes_down": st.integers(0, 10**12),
    "proto": st.sampled_from([p.value for p in Protocol]),
    "latency_ms": st.one_of(st.floats(0, 1e6), st.integers(0, 10**6)),
    "loss_pct": st.floats(0, 100),
}
PAYLOAD_NAMES = tuple(PLAIN_VALUES)


@st.composite
def raw_rows(draw):
    """Plain rows, or rows with one or two fields odd: of another type or
    form, out of range, inapplicable to the kind, or absent."""
    odd = set(draw(st.lists(st.sampled_from(
        ["ts", "device", "ap", "kind", "payload", "inapplicable", "absent"]), max_size=2)))
    kind = draw(st.sampled_from([k.value for k in EventKind]))
    row = {
        "ts": draw(ODD_TS if "ts" in odd else PLAIN_TS),
        "device": draw(st.sampled_from(["zz:zz", "AB" * 16, "", 5, None, MACS[0] + "\n"])
                       if "device" in odd else st.one_of(
                           st.sampled_from(MACS), st.sampled_from(MACS).map(str.upper),
                           st.sampled_from(["ab" * 16, "0f" * 16]))),
        "ap": draw(st.sampled_from(["ap-1", "AP-", "AP-1 ", 101, None])
                   if "ap" in odd else st.sampled_from(["AP-101", "AP-7", "AP-0042"])),
        "kind": draw(st.sampled_from(["bogus", "ASSOC", 3, None])) if "kind" in odd else kind,
    }
    fields = [name for name, _, _ in PAYLOAD_FIELDS[EventKind(kind)]]
    for name in fields:
        row[name] = draw(PLAIN_VALUES[name])
    if "payload" in odd and fields:
        row[draw(st.sampled_from(fields))] = draw(ODD_VALUES)
    if "inapplicable" in odd:
        row[draw(st.sampled_from(PAYLOAD_NAMES))] = draw(st.one_of(st.none(), ODD_VALUES))
    if "absent" in odd:
        row.pop(draw(st.sampled_from(sorted(row))))
    return row


@st.composite
def jsonl_traces(draw):
    """JSONL lines of raw rows, with blank lines and at most one line that
    does not decode."""
    lines = [json.dumps(row) for row in draw(st.lists(raw_rows(), max_size=14))]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "   "])))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(['{"ts": "2025', "not json", "[1, 2]", '"x"',
                                           '{"kind": "assoc"},{"kind": "assoc"}'])))
    return "".join(line + "\n" for line in lines)


INGEST_SALT = Salt.from_hex("000102030405060708090a0b0c0d0e0f")
INGEST_MODES = st.sampled_from([(INGEST_SALT, False), (INGEST_SALT, True), (None, True),
                                (None, False)])


@settings(max_examples=300, deadline=None)
@given(text=jsonl_traces(), mode=INGEST_MODES, strict=st.booleans())
def test_jsonl_column_path_matches_validating_each_row(text, mode, strict):
    salt, pre_anonymized = mode

    def reference():
        stats = IngestStats()
        pairs = reference_parse(text, strict, stats)
        return reference_records(pairs, salt, strict, pre_anonymized, stats), stats

    with mock.patch.object(ingest, "CHUNK_LINES", 4):
        got = outcome(lambda: ingest_stream(io.StringIO(text), salt, strict=strict,
                                            pre_anonymized=pre_anonymized))
    assert got == outcome(reference)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(raw_rows(), max_size=14), mode=INGEST_MODES, strict=st.booleans())
def test_csv_column_path_matches_validating_each_row(rows, mode, strict):
    salt, pre_anonymized = mode
    columns = ["ts", "device", "ap", "kind", *PAYLOAD_NAMES]
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if row.get(c) is None else row[c] for c in columns])

    def reference():
        stats = IngestStats()
        pairs = parse_session_log(io.StringIO(text.getvalue()), format="csv",
                                  strict=strict, stats=stats)
        return reference_records(pairs, salt, strict, pre_anonymized, stats), stats

    with mock.patch.object(ingest, "CHUNK_LINES", 4):
        got = outcome(lambda: ingest_stream(io.StringIO(text.getvalue()), salt,
                                            format="csv", strict=strict,
                                            pre_anonymized=pre_anonymized))
    assert got == outcome(reference)
