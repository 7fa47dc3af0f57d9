"""Step plans: a protocol reuses the plan of a request array it served.

Without faults, CULLING's selection, the stage metrics and the route
costs are a pure function of the request array, so a repeated array
skips planning and goes straight to the copy store.  These tests pin
that a hit is indistinguishable from a fresh protocol's step, that the
cache stays within its bound, and that it never serves a request set
CULLING would refuse, a step under faults, or another protocol.
"""

import numpy as np
import pytest

import repro.obs as obs
from repro.hmos.faults import FaultInjector
from repro.hmos.scheme import HMOS
from repro.protocol.access import AccessProtocol, StepRequest

N = 64


def _scheme():
    return HMOS(N, 1.5, 3, 2)


def _cached_requests(protocol) -> int:
    return sum(plan[0].variables.size for plan in protocol._plans.values())


def _hits(steps, protocol) -> float:
    with obs.capture() as tracer:
        protocol.run_steps(steps)
    return tracer.counters.get("protocol.plan_hits", 0)


def _assert_same_step(a, b):
    np.testing.assert_array_equal(a.culling.selected, b.culling.selected)
    assert a.culling.iterations == b.culling.iterations
    assert a.culling.charged_steps == b.culling.charged_steps
    assert a.stages == b.stages
    assert a.return_steps == b.return_steps
    np.testing.assert_array_equal(a.values, b.values)


@pytest.mark.parametrize("engine", ["model", "cycle"])
@pytest.mark.parametrize("op", ["read", "mixed"])
def test_hit_equals_fresh_protocol(engine, op):
    rng = np.random.default_rng(5)
    scheme = _scheme()
    variables = rng.choice(scheme.num_variables, size=N, replace=False)
    values = rng.integers(1, 1000, size=N)
    is_write = rng.random(N) < 0.5

    def second_step(protocol):
        if op == "read":
            return protocol.read(variables)
        return protocol.mixed(variables, is_write, values + 1, timestamp=2)

    cached = AccessProtocol(scheme, engine=engine)
    cached.write(variables, values, timestamp=1)
    with obs.capture() as tracer:
        hit = second_step(cached)
    assert tracer.counters["protocol.plan_hits"] == 1

    # The same memory state, reached by one protocol and read by another.
    other = _scheme()
    AccessProtocol(other, engine=engine).write(variables, values, timestamp=1)
    fresh = second_step(AccessProtocol(other, engine=engine))

    _assert_same_step(hit, fresh)
    np.testing.assert_array_equal(hit.variables, variables)
    if op == "mixed":
        assert scheme.memory.snapshot() == other.memory.snapshot()


def test_cached_requests_stay_within_bound():
    scheme = _scheme()
    protocol = AccessProtocol(scheme, engine="model")
    rng = np.random.default_rng(0)
    sets = [
        rng.choice(scheme.num_variables, size=N, replace=False) for _ in range(100)
    ]
    for variables in sets:
        protocol.read(variables)
        assert _cached_requests(protocol) <= 16 * N
        assert protocol._planned_requests == _cached_requests(protocol)
    # Least recently used go first: the last 16 full loads are the ones kept.
    assert list(protocol._plans) == [v.tobytes() for v in sets[-16:]]


def test_plan_count_is_held_to_n():
    """One-request plans would fit 16 n requests; the plan count binds."""
    scheme = _scheme()
    protocol = AccessProtocol(scheme, engine="model")
    for v in range(3 * N):
        protocol.read([v])
        assert len(protocol._plans) <= N
    assert list(protocol._plans) == [
        np.array([v], dtype=np.int64).tobytes() for v in range(2 * N, 3 * N)
    ]


def test_nothing_is_cached_under_faults():
    scheme = _scheme()
    variables = np.arange(0, 5 * N, 5, dtype=np.int64)
    steps = [StepRequest("read", variables)] * 3

    protocol = AccessProtocol(scheme, engine="model", faults=FaultInjector(scheme))
    assert _hits(steps, protocol) == 0
    assert not protocol._plans

    # The check is made on every step: a plan stored before the
    # injector was attached is not served while it is attached.
    protocol = AccessProtocol(scheme, engine="model")
    assert _hits(steps, protocol) == 2
    injector = FaultInjector(scheme, seed=1)
    injector.fail_nodes([3, 17])
    protocol.faults = injector
    assert _hits(steps, protocol) == 0
    faulty = protocol.read(variables)
    assert faulty.culling.selected.flags.writeable
    protocol.faults = None
    assert _hits(steps, protocol) == 3


def test_cached_plan_is_read_only_and_owns_no_caller_array():
    scheme = _scheme()
    protocol = AccessProtocol(scheme, engine="model")
    variables = np.arange(N, dtype=np.int64) * 3
    original = variables.copy()
    first = protocol.read(variables)
    for result in (first, protocol.read(original)):
        assert not result.culling.selected.flags.writeable
        assert not result.culling.variables.flags.writeable
        assert result.culling.page_keys is None
        with pytest.raises(ValueError):
            result.culling.selected[0, 0] = not result.culling.selected[0, 0]
    # Mutating the caller's array changes neither the plan nor its key.
    variables[0] = original[1] + 1
    assert protocol.read(original).culling is first.culling
    np.testing.assert_array_equal(first.culling.variables, original)


def test_refused_sets_raise_on_every_attempt():
    scheme = _scheme()
    protocol = AccessProtocol(scheme, engine="model")
    cached = np.arange(N, dtype=np.int64)
    protocol.read(cached)
    refused = (
        np.array([4, 9, 4], dtype=np.int64),  # a duplicate
        np.array([1, scheme.num_variables], dtype=np.int64),  # out of range
        cached.reshape(2, N // 2),  # 2-D, with a cached set's bytes
    )
    for variables in refused:
        for _ in range(2):
            with pytest.raises(ValueError):
                protocol.read(variables)
    assert list(protocol._plans) == [cached.tobytes()]


def test_protocols_over_one_cached_scheme_share_no_plans():
    variables = np.arange(N, dtype=np.int64)
    steps = [StepRequest("read", variables)] * 2
    first = AccessProtocol(HMOS.cached(N, 1.5, 3, 2), engine="model")
    second = AccessProtocol(HMOS.cached(N, 1.5, 3, 2), engine="model")
    same_scheme = AccessProtocol(first.scheme, engine="model")
    assert _hits(steps, first) == 1
    assert not second._plans and not same_scheme._plans
    assert _hits(steps[:1], second) == 0
    assert _hits(steps[:1], same_scheme) == 0


def test_plan_hits_count_hits_only():
    scheme = _scheme()
    rng = np.random.default_rng(3)
    a, b, c = (
        rng.choice(scheme.num_variables, size=N // 2, replace=False) for _ in range(3)
    )
    with obs.capture() as tracer:
        AccessProtocol(scheme).run_steps([StepRequest("read", v) for v in (a, b, c)])
    assert "protocol.plan_hits" not in tracer.counters

    steps = [StepRequest("read", v) for v in (a, b, a, a, c, b[::-1])]
    assert _hits(steps, AccessProtocol(scheme)) == 2
