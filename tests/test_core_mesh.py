"""Mesh planner and second weaving pass (repro.core.mesh)."""

import random

import pytest

from repro.apk.package import build_apk
from repro.attacks.signatures import (
    CLASSIC_SIGNATURE,
    count_live_anchors,
    strip_with_signature,
)
from repro.core import BombDroid, BombDroidConfig
from repro.core.config import DetectionMethod, ResponseKind
from repro.core.mesh import (
    MeshPlanner,
    PrologueMorph,
    PrologueShape,
    decoy_hex_for,
    survives_classic_strip,
)
from repro.core.stats import Bomb, BombOrigin, Strength
from repro.dex.serializer import serialize_dex
from repro.errors import VMError
from repro.fuzzing.generators import DynodroidGenerator
from repro.lint import errors, run_lint
from repro.vm.aliases import (
    ALIAS_RESOURCE_KEY,
    ALIASABLE_APIS,
    alias_table_from_resources,
)
from repro.vm.device import DevicePopulation
from repro.vm.runtime import Runtime


MESH_DETECTIONS = (
    DetectionMethod.PUBLIC_KEY,
    DetectionMethod.CODE_DIGEST,
    DetectionMethod.CODE_SCAN,
)
MESH_RESPONSES = (
    ResponseKind.CRASH,
    ResponseKind.WARN,
    ResponseKind.REPORT,
    ResponseKind.SLOWDOWN,
)


def mesh_config(seed=4, **overrides):
    base = dict(
        seed=seed,
        profiling_events=400,
        mesh=True,
        detection_methods=MESH_DETECTIONS,
        responses=MESH_RESPONSES,
    )
    base.update(overrides)
    return BombDroidConfig(**base)


@pytest.fixture(scope="module")
def meshed(small_apk, developer_key):
    return BombDroid(mesh_config()).protect(small_apk, developer_key)


def planner(seed=1, **overrides):
    return MeshPlanner(mesh_config(**overrides), random.Random(seed))


class TestPlanner:
    def test_ring_topology_is_a_cycle(self):
        ids = [f"b{i}" for i in range(5)]
        peers = planner().topology(ids)
        assert set(peers) == set(ids)
        indegree = {bomb_id: 0 for bomb_id in ids}
        for bomb_id, chosen in peers.items():
            assert len(chosen) == 1
            assert chosen[0] != bomb_id
            indegree[chosen[0]] += 1
        # A ring: every bomb is watched by exactly one other bomb.
        assert all(count == 1 for count in indegree.values())

    def test_k_regular_topology(self):
        ids = [f"b{i}" for i in range(6)]
        peers = planner(mesh_topology="k_regular", mesh_degree=2).topology(ids)
        for bomb_id, chosen in peers.items():
            assert len(chosen) == 2
            assert bomb_id not in chosen
            assert len(set(chosen)) == 2

    def test_degree_clamped_to_population(self):
        peers = planner(mesh_degree=5).topology(["a", "b"])
        assert peers["a"] == ("b",)
        assert peers["b"] == ("a",)

    def test_single_bomb_has_no_peers(self):
        assert planner().topology(["only"]) == {"only": ()}

    def test_every_other_morph_survives_the_classic_strip(self):
        plan = planner()
        morphs = [plan.next_morph() for _ in range(20)]
        assert all(survives_classic_strip(m) for m in morphs[::2])

    def test_morphing_disabled_yields_classic(self):
        plan = planner(mesh_morph_prologues=False)
        assert all(
            plan.next_morph() == PrologueMorph(PrologueShape.CLASSIC, False)
            for _ in range(5)
        )

    def test_planner_is_deterministic(self):
        a, b = planner(seed=7), planner(seed=7)
        assert a.alias_key == b.alias_key
        assert [a.next_morph() for _ in range(8)] == [
            b.next_morph() for _ in range(8)
        ]
        ids = [f"b{i}" for i in range(4)]
        assert a.topology(ids) == b.topology(ids)

    def test_aliases_cover_the_aliasable_surface(self):
        table = planner().aliases()
        assert sorted(table.values()) == sorted(ALIASABLE_APIS)
        # Alias symbols must not collide with the canonical names.
        assert not set(table) & set(ALIASABLE_APIS)

    def test_survivor_predicate(self):
        assert not survives_classic_strip(
            PrologueMorph(PrologueShape.CLASSIC, False)
        )
        assert not survives_classic_strip(
            PrologueMorph(PrologueShape.SWAPPED, False)
        )
        assert survives_classic_strip(PrologueMorph(PrologueShape.SPLIT, False))
        assert survives_classic_strip(PrologueMorph(PrologueShape.DECOY, False))
        assert survives_classic_strip(PrologueMorph(PrologueShape.CLASSIC, True))

    def test_decoy_constant_differs_from_hc(self):
        hc = "ab" * 20
        assert decoy_hex_for(hc) != hc
        assert decoy_hex_for(hc) == decoy_hex_for(hc)

    def test_response_plans_follow_the_config(self):
        immediate = planner(mesh_delayed_responses=False).plan_response(
            ResponseKind.WARN
        )
        assert immediate.delay_marks == 0 and immediate.gate_env is None
        drawn = [
            planner(seed=i).plan_response(ResponseKind.WARN) for i in range(12)
        ]
        assert any(p.delay_marks > 0 or p.gate_env is not None for p in drawn)


class TestMeshedProtection:
    def test_real_bombs_are_cross_referenced(self, meshed):
        real = [b for b in meshed.report.bombs if b.origin is not BombOrigin.BOGUS]
        assert len(real) >= 2
        assert all(b.mesh_peers for b in real)
        # Bogus bombs carry no payload detection and join no mesh.
        bogus = [b for b in meshed.report.bombs if b.origin is BombOrigin.BOGUS]
        assert all(not b.mesh_peers for b in bogus)

    def test_prologue_shapes_recorded_and_morphed(self, meshed):
        shapes = [b.prologue_shape for b in meshed.report.bombs]
        assert all(shapes)
        assert any(shape != "classic" for shape in shapes)

    def test_alias_key_shipped_in_resources(self, meshed):
        strings = meshed.apk.resources().strings
        assert ALIAS_RESOURCE_KEY in strings
        table = alias_table_from_resources(strings)
        assert sorted(table.values()) == sorted(ALIASABLE_APIS)

    def test_meshed_app_passes_lint(self, meshed):
        aliases = alias_table_from_resources(meshed.apk.resources().strings)
        diagnostics = run_lint(meshed.apk.dex(), aliases=aliases)
        assert not errors(diagnostics)

    def test_bomb_mesh_fields_roundtrip(self):
        bomb = Bomb(
            bomb_id="b9",
            method="A.m",
            origin=BombOrigin.ARTIFICIAL,
            strength=Strength.STRONG,
            const_value=42,
            salt_hex="aa" * 16,
            hc_hex="bb" * 20,
            payload_class="Bomb$b9",
            woven=False,
            detection=DetectionMethod.PUBLIC_KEY,
            response=ResponseKind.WARN,
            prologue_shape="decoy+alias",
            mesh_peers=("b1", "b2"),
            content_pin="A.other",
            response_plan="warn after 2 trips",
        )
        clone = Bomb.from_dict(bomb.to_dict())
        assert clone.prologue_shape == "decoy+alias"
        assert clone.mesh_peers == ("b1", "b2")
        assert clone.content_pin == "A.other"
        assert clone.response_plan == "warn after 2 trips"

    def test_mesh_off_output_is_inert_to_mesh_knobs(self, small_apk, developer_key):
        plain = BombDroid(
            mesh_config(mesh=False)
        ).protect(small_apk, developer_key)
        exotic = BombDroid(
            mesh_config(
                mesh=False,
                mesh_topology="k_regular",
                mesh_degree=3,
                mesh_morph_prologues=False,
                mesh_delayed_responses=False,
            )
        ).protect(small_apk, developer_key)
        assert serialize_dex(plain.apk.dex()) == serialize_dex(exotic.apk.dex())
        assert plain.apk.resources().strings == exotic.apk.resources().strings
        assert ALIAS_RESOURCE_KEY not in plain.apk.resources().strings
        assert all(b.prologue_shape == "classic" for b in plain.report.bombs)
        assert all(not b.mesh_peers for b in plain.report.bombs)


def _fuzz(apk, seed, events=500):
    runtime = Runtime(
        apk.dex(),
        device=DevicePopulation(seed=seed).sample(),
        package=apk.install_view(),
        seed=seed,
    )
    try:
        runtime.boot()
    except VMError:
        pass
    for event in DynodroidGenerator(apk.dex(), seed=seed).stream(events):
        try:
            runtime.session().dispatch(event)
        except VMError:
            pass
    return runtime


class TestMeshRuntime:
    """The guards at work: tamper trips survivors, honesty does not."""

    def _protect(self, small_apk, developer_key, seed):
        # PUBLIC_KEY-only detection and a developer-key rebuild keep
        # repackaging detection out of the picture: any tamper signal
        # below comes from the mesh guards alone.
        config = mesh_config(
            seed=seed,
            detection_methods=(DetectionMethod.PUBLIC_KEY,),
            mesh_delayed_responses=False,
        )
        return BombDroid(config).protect(small_apk, developer_key)

    def test_untampered_meshed_app_is_silent(self, small_apk, developer_key):
        result = self._protect(small_apk, developer_key, seed=4)
        runtime = _fuzz(result.apk, seed=21)
        assert not runtime.detections
        assert runtime.bombs.count("mesh_tripped") == 0
        assert runtime.bombs.count("responded") == 0

    def test_classic_strip_trips_a_surviving_guard(self, small_apk, developer_key):
        result = self._protect(small_apk, developer_key, seed=4)
        dex = result.apk.dex()
        patched = strip_with_signature(dex, CLASSIC_SIGNATURE)
        assert patched > 0
        # Mesh survivors are still armed after the single-pattern strip.
        assert count_live_anchors(dex) > 0
        tampered = build_apk(dex, result.apk.resources(), developer_key)
        tripped = 0
        for seed in range(20, 26):
            tripped += _fuzz(tampered, seed=seed).bombs.count("mesh_tripped")
        assert tripped > 0
