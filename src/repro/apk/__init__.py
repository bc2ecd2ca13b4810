"""APK packaging model: container, manifest digests, signing, resources.

Mirrors the pieces of the APK format that repackaging detection reads:

* ``CERT.RSA`` -- the developer certificate; its public key is what
  public-key-comparison detection compares (:mod:`repro.apk.signing`);
* ``MANIFEST.MF`` -- per-entry SHA-1 digests (:mod:`repro.apk.manifest`);
* ``res/strings.xml`` -- string resources, including the steganographic
  carrier for hidden digests (:mod:`repro.apk.resources`,
  :mod:`repro.apk.stego`);
* the container itself with pack/unpack/verify/install
  (:mod:`repro.apk.package`).
"""

from repro.apk.manifest import Manifest
from repro.apk.resources import Resources
from repro.apk.signing import Certificate, sign_apk_entries, verify_apk_entries
from repro.apk.package import Apk, build_apk
from repro.apk.io import (
    apk_from_bytes,
    apk_to_bytes,
    load_apk,
    save_apk_with_manifest,
)
from repro.apk.stego import embed_in_cover, extract_from_cover, stego_capacity

__all__ = [
    "Manifest",
    "Resources",
    "Certificate",
    "sign_apk_entries",
    "verify_apk_entries",
    "Apk",
    "build_apk",
    "apk_from_bytes",
    "apk_to_bytes",
    "load_apk",
    "save_apk_with_manifest",
    "embed_in_cover",
    "extract_from_cover",
    "stego_capacity",
]
