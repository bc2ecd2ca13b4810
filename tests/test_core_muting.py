"""Strategic bomb muting (the paper's Section 10 future work).

Once one bomb detects repackaging, the shared flag silences detection
in every later payload run -- an attacker probing their repackaged
build maps one bomb, not the minefield.
"""

import pytest

from repro.apk import Resources, build_apk
from repro.core import BombDroid, BombDroidConfig
from repro.core.config import DetectionMethod, ResponseKind
from repro.core.payloads import DetectionSpec, PayloadSpec, build_payload_dex
from repro.crypto import RSAKeyPair
from repro.dex import assemble
from repro.dex.serializer import serialize_dex
from repro.vm import Runtime

APP = """
.class A
.field cfg_cache static false
.method on_key 1
    return_void
.end
"""


@pytest.fixture()
def runtime():
    dex = assemble(APP)
    key = RSAKeyPair.generate(seed=31)
    apk = build_apk(dex, Resources(strings={"app_name": "A"}), key)
    return Runtime(apk.dex(), package=apk.install_view(), seed=0)


def _run_bomb(runtime, bomb_id, mute_flag):
    spec = PayloadSpec(
        bomb_id=bomb_id,
        payload_class=f"Bomb${bomb_id}",
        slots=0,
        app_name="A",
        detection=DetectionSpec(
            method=DetectionMethod.PUBLIC_KEY, original_key_hex="99" * 20
        ),
        response=ResponseKind.REPORT,
        mute_flag=mute_flag,
    )
    blob = serialize_dex(build_payload_dex(spec))
    method = runtime.load_blob_method(blob, spec.entry)
    runtime.session().run(method, [[None, None]])


def test_first_detection_mutes_the_rest(runtime):
    _run_bomb(runtime, "m1", "A.cfg_cache")
    assert runtime.detections == ["m1"]
    assert runtime.statics["A.cfg_cache"] is True

    _run_bomb(runtime, "m2", "A.cfg_cache")
    assert runtime.detections == ["m1"]          # m2 stayed silent
    assert "m2" not in runtime.bombs.bombs_with("inner_met")


def test_without_flag_every_bomb_speaks(runtime):
    _run_bomb(runtime, "m1", None)
    _run_bomb(runtime, "m2", None)
    assert runtime.detections == ["m1", "m2"]


def test_pipeline_installs_disguised_flag(small_apk, developer_key):
    config = BombDroidConfig(
        seed=3, profiling_events=200, mute_after_detection=True
    )
    protected, report = BombDroid(config).protect(small_apk, developer_key)
    holder = sorted(protected.dex().classes)[0]
    assert "cfg_cache" in protected.dex().classes[holder].fields
    # Genuine app still behaves (no detections, flag never set).
    runtime = Runtime(protected.dex(), package=protected.install_view(), seed=1)
    runtime.boot()
    from repro.fuzzing import DynodroidGenerator
    from repro.errors import VMError

    for event in DynodroidGenerator(protected.dex(), seed=1).stream(300):
        try:
            runtime.session().dispatch(event)
        except VMError:
            pass
    assert not runtime.detections
    assert runtime.statics[f"{holder}.cfg_cache"] is False
