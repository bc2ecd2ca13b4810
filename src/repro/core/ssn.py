"""SSN (Stochastic Stealthy Network), the vulnerable baseline.

Reimplements the Listing-1 design the paper attacks (Section 2.1):

* repackaging detection invoked **probabilistically** (``rand() < 1%``);
* the ``getPublicKey`` call hidden behind **reflection**, its name
  stored **obfuscated** (reversed) so text search fails;
* the original public key stored as a **plaintext constant**;
* the response **delayed**: detection arms a flag, and a separate
  check woven into handlers fires a few events later.

Every one of these measures is bypassable -- the attack suite
demonstrates it: code instrumentation makes ``rand`` deterministic and
logs reflection destinations; symbolic execution walks straight past
the probabilistic guard; the plaintext key constant is patchable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.apk.package import Apk, build_apk
from repro.crypto import RSAKeyPair
from repro.dex import instructions as ins
from repro.dex.instructions import Instr, Label
from repro.dex.model import DexField, DexMethod
from repro.dex.opcodes import Op

#: Static flag field armed on detection (delayed response).
FLAG_FIELD = "ssn$flag"
COUNT_FIELD = "ssn$count"

#: Events between detection and the delayed crash.
RESPONSE_DELAY = 3

#: rand() < this/10000 gates each detection attempt (SSN's "very low
#: probability").
PROBABILITY_BASIS = 10_000


@dataclass
class SSNConfig:
    seed: int = 0
    #: Detection probability per instrumented entry (paper: very low).
    probability: float = 0.01
    #: Fraction of methods that receive a detection node.
    site_fraction: float = 0.5


@dataclass
class SSNReport:
    """Where SSN placed its detection nodes."""

    sites: List[str] = field(default_factory=list)
    obfuscated_name: str = ""
    plaintext_key_hex: str = ""


class SSNProtector:
    """Builds SSN-style repackaging detection into an app."""

    def __init__(self, config: SSNConfig = None) -> None:
        self.config = config or SSNConfig()

    def protect(self, apk: Apk, developer_key: RSAKeyPair) -> Tuple[Apk, SSNReport]:
        rng = random.Random(self.config.seed)
        dex = apk.dex()
        resources = apk.resources().copy()
        original_key_hex = apk.cert.fingerprint_hex()
        report = SSNReport(
            obfuscated_name="android.pm.get_public_key"[::-1],
            plaintext_key_hex=original_key_hex,
        )

        flag_holder = sorted(dex.classes)[0]
        holder = dex.classes[flag_holder]
        if FLAG_FIELD not in holder.fields:
            holder.add_field(DexField(name=FLAG_FIELD, static=True, initial=0))
            holder.add_field(DexField(name=COUNT_FIELD, static=True, initial=0))
        flag = f"{flag_holder}.{FLAG_FIELD}"
        count = f"{flag_holder}.{COUNT_FIELD}"

        methods = sorted(m.qualified_name for m in dex.iter_methods())
        rng.shuffle(methods)
        chosen = methods[: max(1, int(len(methods) * self.config.site_fraction))]
        threshold = max(1, int(self.config.probability * PROBABILITY_BASIS))

        for name in sorted(chosen):
            method = dex.get_method(name)
            block = self._detection_block(method, threshold, original_key_hex, flag, count)
            method.instructions[0:0] = block
            method.invalidate()
            method.validate()
            report.sites.append(name)

        dex.validate()
        return build_apk(dex, resources, developer_key), report

    def _detection_block(
        self,
        method: DexMethod,
        threshold: int,
        key_hex: str,
        flag: str,
        count: str,
    ) -> List[Instr]:
        """The Listing-1 structure, prepended to a method."""
        base = method.grow_registers(10)
        (r_rand, r_lim, r_rev, r_name, r_i, r_len, r_ch, r_key, r_pub, r_eq) = range(
            base, base + 10
        )
        suffix = f"ssn_{method.class_name}_{method.name}"
        skip = f"__{suffix}_skip"
        loop = f"__{suffix}_loop"
        loop_done = f"__{suffix}_done"
        armed = f"__{suffix}_armed"
        ok = f"__{suffix}_ok"

        block: List[Instr] = [
            # if (rand() < 1%) { ... }
            ins.const(r_lim, PROBABILITY_BASIS),
            ins.invoke(r_rand, "java.rand.next", (r_lim,)),
            ins.const(r_lim, threshold),
            Instr(Op.IF_GE, a=r_rand, b=r_lim, target=skip),
            # funName = recoverFunName(obfuscatedStr): un-reverse it,
            # one character per iteration (name += rev[i:i+1]).
            ins.const(r_rev, "android.pm.get_public_key"[::-1]),
            ins.const(r_name, ""),
            ins.invoke(r_len, "java.str.length", (r_rev,)),
            ins.binop_lit(Op.SUB_LIT, r_i, r_len, 1),
            Label(loop),
            Instr(Op.IF_LTZ, a=r_i, target=loop_done),
            ins.binop_lit(Op.ADD_LIT, r_ch, r_i, 1),
            ins.invoke(r_ch, "java.str.substring", (r_rev, r_i, r_ch)),
            ins.invoke(r_name, "java.str.concat", (r_name, r_ch)),
            ins.binop_lit(Op.SUB_LIT, r_i, r_i, 1),
            ins.goto(loop),
            Label(loop_done),
            # currKey = reflectionCall(funName)
            ins.invoke(r_key, "android.reflect.call", (r_name,)),
            ins.const(r_pub, key_hex),
            ins.invoke(r_eq, "java.str.equals", (r_key, r_pub)),
            Instr(Op.IF_NEZ, a=r_eq, target=skip),
            # repackaging detected -> arm the delayed response
            ins.const(r_eq, 1),
            ins.sput(r_eq, flag),
            Label(skip),
            # delayed-response pump: crash RESPONSE_DELAY activations later
            ins.sget(r_eq, flag),
            Instr(Op.IF_EQZ, a=r_eq, target=ok),
            ins.sget(r_eq, count),
            ins.binop_lit(Op.ADD_LIT, r_eq, r_eq, 1),
            ins.sput(r_eq, count),
            ins.const(r_lim, RESPONSE_DELAY),
            Instr(Op.IF_LT, a=r_eq, b=r_lim, target=ok),
            ins.const(r_eq, "SSN: repackaging response"),
            ins.throw(r_eq),
            Label(ok),
        ]
        return block
