"""Inner trigger conditions: probability math, codegen agreement."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.inner_triggers import (
    CmpOp,
    Connective,
    Constraint,
    InnerCondition,
    _group_measure,
    _holds,
    build_inner_condition,
)
from repro.dex import DexClass, DexFile
from repro.dex.builder import MethodBuilder
from repro.vm import DevicePopulation, Runtime
from repro.vm.device import ENV_DOMAINS, IntDomain, attacker_lab_profiles


def evaluate_compiled(condition: InnerCondition, device) -> bool:
    """Compile the condition to bytecode and run it on ``device``."""
    builder = MethodBuilder("T", "m", params=0)
    result = condition.emit(builder)
    builder.ret(result)
    dex = DexFile()
    cls = dex.add_class(DexClass(name="T"))
    cls.add_method(builder.build())
    runtime = Runtime(dex, device=device)
    return bool(runtime.session().invoke("T.m", []).value)


class TestConstraintMath:
    def test_int_equality_probability(self):
        constraint = Constraint("gps.lat", CmpOp.EQ, 0)
        assert constraint.probability() == pytest.approx(1 / 181)

    def test_interval_probability(self):
        # The paper's example: 101 < C < 132 over an IP octet has
        # p = 30/256 (Section 7.3).
        condition = InnerCondition(
            constraints=(
                Constraint("net.ip_c", CmpOp.GT, 101),
                Constraint("net.ip_c", CmpOp.LT, 132),
            ),
            connective=Connective.AND,
        )
        assert condition.probability() == pytest.approx(30 / 256)

    def test_choice_equality_probability(self):
        constraint = Constraint("build.manufacturer", CmpOp.EQ, "samsung")
        assert constraint.probability() == pytest.approx(0.315, rel=0.01)

    def test_ne_probability_complements(self):
        eq = Constraint("gps.lon", CmpOp.EQ, 5)
        ne = Constraint("gps.lon", CmpOp.NE, 5)
        assert eq.probability() + ne.probability() == pytest.approx(1.0)

    def test_or_probability(self):
        condition = InnerCondition(
            constraints=(
                Constraint("build.manufacturer", CmpOp.EQ, "sony"),
                Constraint("build.manufacturer", CmpOp.EQ, "htc"),
            ),
            connective=Connective.OR,
        )
        # Not independent in reality, but the estimate is close for
        # small probabilities.
        assert 0.03 < condition.probability() < 0.06

    def test_evaluate_on_profile(self):
        device = attacker_lab_profiles(1)[0]
        yes = Constraint("build.manufacturer", CmpOp.EQ, "generic")
        no = Constraint("build.manufacturer", CmpOp.EQ, "samsung")
        assert yes.evaluate(device)
        assert not no.evaluate(device)


INT_DOMAINS = sorted(n for n, d in ENV_DOMAINS.items() if isinstance(d, IntDomain))


@st.composite
def int_groups(draw):
    """One int variable and 1-4 constraints on it, values up to 3
    outside its domain."""
    name = draw(st.sampled_from(INT_DOMAINS))
    domain = ENV_DOMAINS[name]
    constraint = st.builds(
        Constraint,
        st.just(name),
        st.sampled_from(list(CmpOp)),
        st.integers(min_value=domain.lo - 3, max_value=domain.hi + 3),
    )
    return name, draw(st.lists(constraint, min_size=1, max_size=4))


@settings(max_examples=200, deadline=None)
@given(group=int_groups(), require_all=st.booleans())
def test_group_measure_equals_enumeration(group, require_all):
    name, constraints = group
    domain = ENV_DOMAINS[name]
    combine = all if require_all else any
    hits = sum(
        1
        for value in range(domain.lo, domain.hi + 1)
        if combine(_holds(c, value) for c in constraints)
    )
    assert _group_measure(name, constraints, require_all) == hits / domain.size


class TestGenerator:
    @pytest.mark.parametrize("seed", range(8))
    def test_probability_in_band(self, seed):
        condition = build_inner_condition(random.Random(seed), (0.1, 0.2))
        assert 0.05 <= condition.probability() <= 0.3

    def test_description_is_readable(self):
        condition = build_inner_condition(random.Random(3), (0.1, 0.2))
        assert "env[" in condition.describe()

    @pytest.mark.parametrize("seed", range(6))
    def test_compiled_matches_python_evaluation(self, seed):
        """The bytecode emitted into payloads must agree with the
        reference evaluator on sampled devices."""
        condition = build_inner_condition(random.Random(seed), (0.1, 0.3))
        population = DevicePopulation(seed=seed)
        for _ in range(10):
            device = population.sample()
            assert evaluate_compiled(condition, device) == condition.evaluate(device)

    def test_empirical_rate_tracks_estimate(self):
        condition = build_inner_condition(random.Random(11), (0.1, 0.2))
        population = DevicePopulation(seed=5)
        hits = sum(condition.evaluate(population.sample()) for _ in range(400))
        estimate = condition.probability()
        assert abs(hits / 400 - estimate) < 0.12

    def test_population_diversity_beats_the_lab(self):
        """Core of the paper's D1: conditions rarely satisfiable in the
        attacker's lab fire across the population."""
        rng = random.Random(2)
        conditions = [build_inner_condition(rng, (0.1, 0.2)) for _ in range(25)]
        lab = attacker_lab_profiles(4)
        lab_hits = sum(
            any(c.evaluate(device) for device in lab) for c in conditions
        )
        population = DevicePopulation(seed=1).sample_many(40)
        population_hits = sum(
            any(c.evaluate(device) for device in population) for c in conditions
        )
        assert population_hits > lab_hits
