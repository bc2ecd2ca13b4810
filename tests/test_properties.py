"""Property-based whole-system invariants.

The heavyweight invariant: for ANY generated app and ANY event stream,
the protected app is observationally equivalent to the original on a
genuine install -- same return behaviors, same app state, no responses.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import BombDroid, BombDroidConfig
from repro.corpus import build_app
from repro.errors import VMError
from repro.fuzzing import DynodroidGenerator
from repro.vm import DevicePopulation, Runtime

_slow = settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _play(dex, package, device, events):
    runtime = Runtime(dex, device=device, package=package, seed=1)
    observations = []
    try:
        runtime.boot()
        observations.append(("boot", "ok"))
    except VMError as exc:
        observations.append(("boot", type(exc).__name__))
    for event in events:
        try:
            runtime.session().dispatch(event)
            observations.append("ok")
        except VMError as exc:
            observations.append(type(exc).__name__)
    state = {
        key: value
        for key, value in runtime.statics.items()
        if not key.startswith("Bomb$")
    }
    return observations, state, runtime


@_slow
@given(
    app_seed=st.integers(min_value=0, max_value=10_000),
    protect_seed=st.integers(min_value=0, max_value=10_000),
    stream_seed=st.integers(min_value=0, max_value=10_000),
)
def test_protection_is_semantics_preserving(app_seed, protect_seed, stream_seed):
    bundle = build_app("Prop", category="Game", seed=app_seed, scale=0.08)
    config = BombDroidConfig(seed=protect_seed, profiling_events=150)
    protected, report = BombDroid(config).protect(bundle.apk, bundle.developer_key)

    population = DevicePopulation(seed=stream_seed)
    device_a = population.sample()
    device_b = device_a.copy()
    events = DynodroidGenerator(bundle.dex, seed=stream_seed).stream(250)

    obs_a, state_a, _ = _play(
        bundle.apk.dex(), bundle.apk.install_view(), device_a, events
    )
    obs_b, state_b, runtime_b = _play(
        protected.dex(), protected.install_view(), device_b, events
    )
    assert obs_a == obs_b
    assert state_a == state_b
    # Genuine install: detection may run, responses must not.
    assert not runtime_b.detections
    assert not runtime_b.bombs.bombs_with("responded")


@_slow
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_report_is_internally_consistent(seed):
    bundle = build_app("Prop2", category="Writing", seed=seed, scale=0.08)
    config = BombDroidConfig(seed=seed, profiling_events=150)
    protected, report = BombDroid(config).protect(bundle.apk, bundle.developer_key)
    # Every bomb id unique, every payload class present in no cleartext.
    ids = [bomb.bomb_id for bomb in report.bombs]
    assert len(ids) == len(set(ids))
    listing_classes = set(protected.dex().classes)
    for bomb in report.bombs:
        assert bomb.payload_class not in listing_classes  # encrypted, not shipped
    assert report.size_after >= report.size_before
    protected.dex().validate()
    protected.verify()
