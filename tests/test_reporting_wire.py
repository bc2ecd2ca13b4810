"""Wire format: codecs round-trip, signatures bind, parsing is tolerant."""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.crypto import RSAKeyPair
from repro.errors import WireError
from repro.reporting import (
    DetectionReport,
    ReportServer,
    SubmitStatus,
    decode_report,
    encode_report,
    format_report_text,
    parse_report_text,
    report_from_json,
    report_from_text,
    report_to_json,
    sign_report,
)
from repro.reporting.durability import (
    decode_record,
    decode_snapshot,
    encode_register_record,
    encode_report_record,
    encode_snapshot,
)
from repro.reporting.net import HealthStatus, decode_health, decode_redirect
from repro.reporting.net.framing import decode_fence, encode_health, encode_redirect
from repro.reporting.wire import canonical_bytes

KEY_A = "ab" * 20
KEY_B = "cd" * 20


@pytest.fixture(scope="module")
def attest_key():
    return RSAKeyPair.generate(seed=31)


def _report(**overrides):
    base = dict(
        app_name="Game",
        bomb_id="b007",
        device_id="dev-000000042",
        observed_key_hex=KEY_A,
        timestamp=123.5,
        nonce=0xDEADBEEFCAFE,
    )
    base.update(overrides)
    return DetectionReport(**base)


# The default report signed with RSAKeyPair.generate(seed=31), recorded
# under the textbook signer: the device-side report bytes must not move.
_PINNED_SIGNATURE = int(
    "22495809274355161004892806388906935471536545869661604657571158665750"
    "70193022323988404066802170654909313873395532452333041548057030887414"
    "105392925007811481"
)
_PINNED_FRAME = bytes.fromhex(
    "445250540000006201000447616d65000462303037000d6465762d3030303030"
    "3030343200286162616261626162616261626162616261626162616261626162"
    "6162616261626162616261626162000a7075626c69635f6b6579405ee0000000"
    "00000000deadbeefcafe004600408154b0331aa4ff08f48abfe7c848fa2963ca"
    "2a7a50950861f8085acbab6060f0175c73fd8a5c0d52a2f8041c9870e0eed422"
    "3270fa8e8a3c315e14e7568b64a70001000100402af3b8f75ed23525dd308878"
    "5cf430c1545c2b07fa5d47c0d05b8399300bc6092b1b9e49ea165741b9ad858e"
    "36867a4905bee41501685f7e9faabeb127061399"
)


class TestBinaryCodec:
    def test_round_trip(self, attest_key):
        signed = sign_report(_report(), attest_key)
        decoded = decode_report(encode_report(signed))
        assert decoded.report == signed.report
        assert decoded.signature == signed.signature
        assert decoded.verify()

    def test_unicode_fields_survive(self, attest_key):
        signed = sign_report(_report(app_name="Gámé 中"), attest_key)
        assert decode_report(encode_report(signed)).report.app_name == "Gámé 中"

    def test_garbage_rejected(self):
        for blob in (b"", b"nope", b"DRPT", b"DRPT\x00\x00\x00\xff", b"DRPTxxxx"):
            with pytest.raises(WireError):
                decode_report(blob)

    def test_truncated_frame_rejected(self, attest_key):
        frame = encode_report(sign_report(_report(), attest_key))
        for cut in (5, len(frame) // 2, len(frame) - 1):
            with pytest.raises(WireError):
                decode_report(frame[:cut])

    def test_unknown_version_rejected(self, attest_key):
        signed = sign_report(_report(), attest_key)
        frame = bytearray(encode_report(signed))
        frame[8] = 99  # version byte is first in the body
        with pytest.raises(WireError):
            decode_report(bytes(frame))


class TestJsonCodec:
    def test_round_trip(self, attest_key):
        signed = sign_report(_report(), attest_key)
        decoded = report_from_json(report_to_json(signed))
        assert decoded.report == signed.report
        assert decoded.verify()

    def test_bad_json_rejected(self):
        for line in ("", "{", "[1, 2]", '{"app": "Game"}', "[" * 100_000):
            with pytest.raises(WireError):
                report_from_json(line)


class TestSignature:
    def test_signature_binds_every_field(self, attest_key):
        signed = sign_report(_report(), attest_key)
        assert signed.verify()
        for change in (
            {"observed_key_hex": KEY_B},
            {"device_id": "dev-imposter"},
            {"nonce": 1},
            {"timestamp": 999.0},
        ):
            tampered = dataclasses.replace(
                signed, report=dataclasses.replace(signed.report, **change)
            )
            assert not tampered.verify()

    def test_flipped_signature_rejected(self, attest_key):
        signed = sign_report(_report(), attest_key)
        forged = dataclasses.replace(signed, signature=signed.signature ^ 1)
        assert not forged.verify()

    def test_wrong_key_rejected(self, attest_key):
        signed = sign_report(_report(), attest_key)
        other = RSAKeyPair.generate(seed=32)
        swapped = dataclasses.replace(signed, attestation_key=other.public)
        assert not swapped.verify()

    def test_signed_report_bytes_are_pinned(self, attest_key):
        signed = sign_report(_report(), attest_key)
        assert signed.signature == _PINNED_SIGNATURE
        assert encode_report(signed) == _PINNED_FRAME

    def test_canonical_bytes_deterministic(self):
        assert canonical_bytes(_report()) == canonical_bytes(_report())
        assert canonical_bytes(_report()) != canonical_bytes(_report(nonce=7))


class TestTextChannel:
    def test_structured_round_trip(self):
        text = format_report_text("Game", "b012") + KEY_A
        fields = parse_report_text(text)
        assert fields["app"] == "Game"
        assert fields["bomb"] == "b012"
        assert fields["key"] == KEY_A

    def test_legacy_colon_format(self):
        fields = parse_report_text(f"repackaged:Game:b001:key={KEY_A}")
        assert fields["key"] == KEY_A
        assert fields["app"] == "Game"
        assert fields["bomb"] == "b001"

    def test_free_text_with_decoy_key_equals(self):
        # The old rsplit("key=", 1) would have grabbed "deadbeef is".
        text = f"warning: cache key=deadbeef is stale; cert key={KEY_B} observed"
        assert parse_report_text(text)["key"] == KEY_B

    def test_free_text_without_fingerprint_yields_no_key(self):
        assert "key" not in parse_report_text("retry with key=deadbeef")
        assert report_from_text("retry with key=deadbeef", device_id="d") is None

    def test_report_from_text_builds_wire_report(self):
        text = format_report_text("Game", "b001") + KEY_A.upper()
        report = report_from_text(text, device_id="dev-1", timestamp=9.0, nonce=5)
        assert report is not None
        assert report.observed_key_hex == KEY_A  # normalized to lowercase
        assert report.device_id == "dev-1"
        assert report.nonce == 5


# ---------------------------------------------------------------------------
# Decoders fail only with WireError
# ---------------------------------------------------------------------------


def _non_utf8_frame(attest_key):
    """A well-framed report whose app-name field is not UTF-8."""
    frame = encode_report(sign_report(_report(app_name="Gxme"), attest_key))
    return frame.replace(b"Gxme", b"G\xffme", 1)


class TestDecodersRaiseOnlyWireError:
    def test_non_utf8_report_field(self, attest_key):
        with pytest.raises(WireError):
            decode_report(_non_utf8_frame(attest_key))

    def test_server_answers_malformed_for_non_utf8_frame(self, attest_key):
        server = ReportServer(shards=1)
        server.register_app("Game", KEY_B)
        assert server.submit(_non_utf8_frame(attest_key)) is SubmitStatus.MALFORMED

    def test_non_utf8_wal_record_and_snapshot(self, attest_key):
        records = (
            encode_register_record("Gxme", KEY_A),
            encode_report_record("Gxme", _report()),
            encode_report_record("Game", _report(app_name="Gxme")),
        )
        for record in records:
            with pytest.raises(WireError):
                decode_record(record.replace(b"Gxme", b"G\xffme", 1))
        image = encode_snapshot(
            {"clock": 0.0, "epoch": 0, "apps": [{
                "name": "Gxme", "key": KEY_A, "takedown_key": None,
                "takedown_ts": None, "shards": [],
            }]}
        )
        with pytest.raises(WireError):
            decode_snapshot(image.replace(b"Gxme", b"G\xffme", 1))

    def test_non_utf8_health_and_redirect_endpoints(self):
        health = encode_health(HealthStatus(epoch=1, role="leader", endpoint="h:1"))
        with pytest.raises(WireError):
            decode_health(health.replace(b"h:1", b"\xff:1"))
        redirect = encode_redirect(2, "h:1").replace(b"h:1", b"\xff:1")
        for decode in (decode_redirect, decode_fence):
            with pytest.raises(WireError):
                decode(redirect)

    @pytest.mark.parametrize("field, value", [
        ("nonce", "null"),
        ("nonce", "Infinity"),
        ("nonce", "-Infinity"),
        ("timestamp", "[1]"),
        ("attestation_key", "5"),
        ("attestation_key", "null"),
    ])
    def test_json_field_of_the_wrong_type(self, attest_key, field, value):
        obj = json.loads(report_to_json(sign_report(_report(), attest_key)))
        obj[field] = "@"
        line = json.dumps(obj).replace('"@"', value)
        with pytest.raises(WireError):
            report_from_json(line)

    def test_serve_reports_survives_a_bad_json_line(self, attest_key, tmp_path, capsys):
        good = report_to_json(sign_report(_report(), attest_key))
        bad = good.replace('"nonce": %d' % _report().nonce, '"nonce": null')
        assert bad != good
        path = tmp_path / "reports.jsonl"
        path.write_text(bad + "\n" + good + "\n")
        assert main([
            "serve-reports", "--app", "Game", "--key-hex", KEY_B,
            "--reports", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "accepted=1" in out
        assert "malformed=1" in out


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_FIELDS = ("app", "bomb", "device", "key", "method", "timestamp", "nonce",
           "version", "attestation_key", "signature")
_FUZZ = settings(max_examples=200, deadline=None, derandomize=True)


def _only_wire_error(decode, data):
    try:
        decode(data)
    except WireError:
        pass


@_FUZZ
@given(value=_JSON, fields=st.dictionaries(st.sampled_from(_FIELDS), _JSON))
def test_report_from_json_raises_only_wire_error(attest_key, value, fields):
    _only_wire_error(report_from_json, json.dumps(value))
    obj = json.loads(report_to_json(sign_report(_report(), attest_key)))
    obj.update(fields)
    _only_wire_error(report_from_json, json.dumps(obj))
