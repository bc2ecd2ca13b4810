"""Repackaging: what the dishonest developer does to a victim app.

Models the paper's threat (Section 1): unpack the APK, swap the icon
and author, optionally inject malicious code (adware that phones home,
premium-SMS senders...), re-sign with the attacker's own key, and
republish.  Because the attacker does not own the original private key,
the repackaged APK necessarily carries a different public key -- the
invariant detection exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apk.package import Apk, build_apk
from repro.crypto import RSAKeyPair
from repro.dex.builder import MethodBuilder
from repro.dex.model import DexClass, DexField, DexFile

#: Name of the injected malicious class.
ADWARE_CLASS = "AdService"


@dataclass
class RepackOptions:
    """What the repackager changes."""

    new_author: str = "totally-legit-apps"
    new_icon: bytes = b"\x89ICON\x00pirate"
    rename_app: str = ""          # empty = keep the original name
    inject_malware: bool = True


def inject_adware_class(dex: DexFile) -> None:
    """Add a malicious background service to the app's code.

    The adware hooks the timer tick, counts invocations, and
    periodically "exfiltrates" device identity over the network -- the
    classic repackaged-app payload.
    """
    cls = DexClass(name=ADWARE_CLASS)
    cls.add_field(DexField(name="ticks", static=True, initial=0))

    builder = MethodBuilder(ADWARE_CLASS, "on_tick", params=1)
    ticks = builder.reg()
    builder.sget(ticks, f"{ADWARE_CLASS}.ticks")
    builder.add_lit(ticks, ticks, 1)
    builder.sput(ticks, f"{ADWARE_CLASS}.ticks")
    limit = builder.reg()
    builder.rem_lit(limit, ticks, 50)
    quiet = builder.fresh_label("quiet")
    builder.if_nez(limit, quiet)
    serial_key = builder.const_new("build.serial_low")
    serial = builder.reg()
    builder.invoke(serial, "android.env.get", (serial_key,))
    serial_str = builder.reg()
    builder.invoke(serial_str, "java.str.from_int", (serial,))
    prefix = builder.const_new("adware-exfil:")
    message = builder.reg()
    builder.invoke(message, "java.str.concat", (prefix, serial_str))
    builder.invoke(None, "android.net.report", (message,))
    builder.label(quiet)
    builder.ret_void()
    cls.add_method(builder.build())
    dex.add_class(cls)


def repackage(apk: Apk, attacker_key: RSAKeyPair, options: RepackOptions = None) -> Apk:
    """Unpack, tamper, re-sign: the full repackaging pipeline."""
    options = options or RepackOptions()
    dex = apk.dex()
    resources = apk.resources().copy()

    resources.author = options.new_author
    resources.icon = options.new_icon
    if options.rename_app:
        resources.app_name = options.rename_app
    if options.inject_malware and ADWARE_CLASS not in dex.classes:
        inject_adware_class(dex)

    return build_apk(dex, resources, attacker_key)


def resign_only(apk: Apk, attacker_key: RSAKeyPair) -> Apk:
    """Minimal repackaging: identical content, different signer.

    Even this is detectable -- the certificate changes.
    """
    return build_apk(apk.dex(), apk.resources(), attacker_key)
