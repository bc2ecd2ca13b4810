"""APK packaging, signing, manifest digests, steganography."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apk import (
    Apk,
    Manifest,
    Resources,
    build_apk,
    embed_in_cover,
    extract_from_cover,
    stego_capacity,
)
from repro.apk.io import apk_from_bytes, apk_to_bytes
from repro.apk.package import ENTRY_DEX
from repro.apk.signing import Certificate
from repro.crypto import RSAKeyPair, sha1_hex
from repro.dex import assemble
from repro.errors import ApkError, SignatureError


@pytest.fixture(scope="module")
def dex():
    return assemble(".class A\n.method on_key 1\nreturn_void\n.end")


@pytest.fixture(scope="module")
def key():
    return RSAKeyPair.generate(seed=21)


@pytest.fixture(scope="module")
def resources():
    return Resources(
        strings={"app_name": "Demo", "note": "hello <world> & \"friends\""},
        app_name="Demo",
        author="dev",
        assets={"data.bin": b"\x00\x01\x02" * 100},
    )


@pytest.fixture(scope="module")
def apk(dex, resources, key):
    return build_apk(dex, resources, key)


class TestBuildAndVerify:
    def test_fresh_apk_verifies(self, apk):
        apk.verify()

    def test_dex_roundtrip(self, apk, dex):
        from repro.dex import disassemble

        assert disassemble(apk.dex()) == disassemble(dex)

    def test_resources_roundtrip(self, apk, resources):
        restored = apk.resources()
        assert restored.strings == resources.strings
        assert restored.app_name == "Demo"
        assert restored.author == "dev"
        assert restored.assets == resources.assets

    def test_tampered_entry_fails_verification(self, apk):
        tampered = Apk(dict(apk.entries), apk.manifest, apk.cert)
        tampered.entries[ENTRY_DEX] = apk.entries[ENTRY_DEX] + b"\x00"
        with pytest.raises(SignatureError, match="digests"):
            tampered.verify()

    def test_tampered_manifest_fails_signature(self, apk):
        manifest = Manifest(dict(apk.manifest.digests))
        manifest.digests["extra"] = "00" * 20
        # Rebuild entries to match the forged manifest so the digest
        # check passes and the *signature* must catch it.
        entries = dict(apk.entries)
        entries["extra"] = b""
        forged = Apk(entries, manifest, apk.cert)
        with pytest.raises(SignatureError):
            forged.verify()

    def test_install_view_contents(self, apk, key):
        view = apk.install_view()
        assert view.cert_fingerprint_hex == key.public.fingerprint().hex()
        assert view.manifest_digests["classes.dex"] == sha1_hex(apk.entries[ENTRY_DEX])
        assert view.resources["app_name"] == "Demo"
        assert view.code_blob == apk.entries[ENTRY_DEX]

    def test_missing_entry_raises(self, apk):
        with pytest.raises(ApkError):
            apk.entry("nope")

    def test_total_size_counts_assets(self, apk, resources):
        assert apk.total_size() > len(resources.assets["data.bin"])


class TestManifest:
    def test_over_entries_and_match(self):
        entries = {"a": b"1", "b": b"22"}
        manifest = Manifest.over_entries(entries)
        assert manifest.matches(entries)
        assert not manifest.matches({"a": b"1", "b": b"XX"})
        assert not manifest.matches({"a": b"1"})

    def test_serialize_parse_roundtrip(self):
        manifest = Manifest.over_entries({"x/y.bin": b"data"})
        assert Manifest.parse(manifest.serialize()).digests == manifest.digests

    def test_get_missing(self):
        with pytest.raises(ApkError):
            Manifest().get("ghost")


def _apk_or_apk_error(decode, blob):
    try:
        result = decode(blob)
    except ApkError:
        return None
    return result


class TestContainerDecoder:
    """``apk_from_bytes`` and ``Manifest.parse`` fail only with ``ApkError``."""

    def test_roundtrip(self, apk):
        parsed = apk_from_bytes(apk_to_bytes(apk))
        assert parsed.entries == apk.entries
        assert parsed.manifest == apk.manifest
        assert parsed.cert == apk.cert

    def test_every_truncation_raises_apk_error(self, apk):
        blob = apk_to_bytes(apk)
        for cut in range(len(blob)):
            with pytest.raises(ApkError):
                apk_from_bytes(blob[:cut])

    def test_certificate_without_signature_length_is_truncated(self, apk):
        # A missing or one-byte signature-length field is refused at
        # parse; it used to read as signature 0, which never verifies.
        blob = apk.cert.serialize()
        key_end = 2 + int.from_bytes(blob[:2], "big")
        for tail in (b"", b"\x00", b"\x07"):
            with pytest.raises(ApkError, match="CERT.RSA is truncated"):
                Certificate.parse(blob[:key_end] + tail)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.binary(max_size=64))
    def test_manifest_parse_yields_manifest_or_apk_error(self, apk, data):
        for blob in (data, apk.manifest.serialize() + data):
            result = _apk_or_apk_error(Manifest.parse, blob)
            assert result is None or isinstance(result, Manifest)


class TestResourcesXml:
    def test_xml_roundtrip_with_escapes(self, resources):
        restored = Resources.from_xml(resources.to_xml())
        assert restored.strings == resources.strings

    def test_malformed_line_rejected(self):
        with pytest.raises(ApkError):
            Resources.from_xml('<string name="broken">')


class TestStego:
    COVER = (
        "thank you for installing this application we hope you enjoy "
        "using it every single day and tell all your friends about it"
    )

    def test_roundtrip(self):
        hidden = embed_in_cover(self.COVER, b"\xde\xad\xbe\xef")
        assert extract_from_cover(hidden, 4) == b"\xde\xad\xbe\xef"

    def test_carrier_reads_the_same(self):
        hidden = embed_in_cover(self.COVER, b"\x12\x34")
        assert hidden.lower() == self.COVER.lower()

    def test_capacity_counts_letters_only(self):
        assert stego_capacity("ab c!") == 3

    def test_insufficient_cover_rejected(self):
        with pytest.raises(ApkError, match="bits"):
            embed_in_cover("tiny", b"\x00" * 10)

    def test_short_carrier_extraction_rejected(self):
        with pytest.raises(ApkError):
            extract_from_cover("abc", 4)

    @given(st.binary(min_size=1, max_size=12))
    def test_roundtrip_property(self, data):
        hidden = embed_in_cover(self.COVER, data)
        assert extract_from_cover(hidden, len(data)) == data
