"""Parsing, anonymization, and validation of log exports."""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import RAW_MAC

from wlantel import ingest
from wlantel.domain import DEVICE_ID_RE, MAC_RE
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
        records, stats = ingest_file(str(path), salt)
        assert stats.accepted == 2

    def test_jsonl_default(self, tmp_path, salt):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(assoc()) + "\n")
        records, _ = ingest_file(str(path), salt)
        assert len(records) == 1


@settings(max_examples=50, deadline=None)
@given(octets=st.lists(st.integers(0, 255), min_size=6, max_size=6))
def test_anonymization_never_emits_mac_shaped_output(octets):
    mac = ":".join(f"{o:02x}" for o in octets)
    device = anonymize_device(mac, Salt(b"fixed-salt-16byt"))
    assert DEVICE_ID_RE.match(device.value)
    assert mac not in device.value
