"""One stepping loop per window: ``run_steps`` plans its steps, routes
their pending legs together, then gives each step its memory access.

A window must give what the same steps give issued one call each
(``run_steps([step])``, the pre-window path): values, stage metrics,
return costs, reports, the copy store, plan hits, refusals and the
fault clock.  Routing failures refuse every step of the failing call
and touch no memory.  The stepping core sets up consecutive batches
in groups; a grouped call must route every batch as a one-batch call
does.
"""

import numpy as np
import pytest

import repro.obs as obs
from repro.hmos.faults import FaultEvent, FaultInjector
from repro.hmos.scheme import HMOS
from repro.mesh import Mesh, SteppingCore, engine_core
from repro.protocol import SimulationReport, access
from repro.protocol.access import AccessProtocol, StepError, StepRequest


def _stream(num_variables, n, seed, steps=9):
    """Seeded read/write/mixed steps of 1..n requests; every fourth step
    repeats the request array of the step three before it."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(steps):
        op = ("read", "write", "mixed")[i % 3]
        if i % 4 == 3:
            variables = out[i - 3].variables
        else:
            size = int(rng.integers(1, n + 1))
            variables = rng.choice(num_variables, size=size, replace=False)
        values = is_write = None
        if op != "read":
            values = rng.integers(0, 1000, size=variables.size)
        if op == "mixed":
            is_write = rng.random(variables.size) < 0.5
        out.append(StepRequest(op, variables, values, is_write, origin=("s", i)))
    return out


def _one_call_each(protocol, steps, on_error="raise"):
    out = []
    for i, step in enumerate(steps):
        out += protocol.run_steps([step], start_timestamp=1 + i, on_error=on_error)
    return out


def _traced(run):
    with obs.capture() as tracer:
        results = run()
    return results, tracer.counters.get("protocol.plan_hits", 0)


def _report(results):
    report = SimulationReport()
    report.extend(r for r in results if not isinstance(r, StepError))
    return report


def _assert_same(window, single):
    assert len(window) == len(single)
    for i, (a, b) in enumerate(zip(window, single)):
        if isinstance(b, StepError):
            assert isinstance(a, StepError)
            assert (a.index, a.op, a.n_requests, a.message, a.origin) == (
                i, b.op, b.n_requests, b.message, b.origin,
            )
            continue
        assert a.op == b.op and a.origin == b.origin
        np.testing.assert_array_equal(a.variables, b.variables)
        np.testing.assert_array_equal(a.culling.selected, b.culling.selected)
        assert a.culling.charged_steps == b.culling.charged_steps
        assert a.stages == b.stages
        assert a.return_steps == b.return_steps
        assert a.reassignments == b.reassignments
        if b.values is None:
            assert a.values is None
        else:
            np.testing.assert_array_equal(a.values, b.values)
    ra, rb = _report(window), _report(single)
    assert ra.summary() == rb.summary()
    assert ra.breakdown() == rb.breakdown()


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("seed", [0, 1])
def test_window_equals_one_call_per_step(n, seed):
    scheme, other = HMOS(n, 1.5, 3, 2), HMOS(n, 1.5, 3, 2)
    steps = _stream(scheme.num_variables, n, seed)
    window = AccessProtocol(scheme, engine="cycle")
    single = AccessProtocol(other, engine="cycle")
    got, hits = _traced(lambda: window.run_steps(steps, start_timestamp=1))
    want, want_hits = _traced(lambda: _one_call_each(single, steps))
    _assert_same(got, want)
    assert hits == want_hits == 2
    assert scheme.memory.snapshot() == other.memory.snapshot()
    assert list(window._plans) == list(single._plans)


def test_plan_cache_refreshes_and_appends_in_step_order():
    """A hit refreshes its plan and a miss appends one, in step order,
    whether the window or an earlier one planned the array."""
    scheme = HMOS(64, 1.5, 3, 2)
    protocol = AccessProtocol(scheme, engine="cycle")
    rng = np.random.default_rng(10)
    a, b, c = (rng.choice(scheme.num_variables, 30, replace=False) for _ in range(3))
    protocol.run_steps([StepRequest("read", a), StepRequest("read", b)])
    protocol.run_steps([StepRequest("read", a), StepRequest("read", c)])
    assert list(protocol._plans) == [b.tobytes(), a.tobytes(), c.tobytes()]
    protocol.run_steps([StepRequest("read", v) for v in (c, b, c, a)])
    assert list(protocol._plans) == [b.tobytes(), c.tobytes(), a.tobytes()]


def test_fault_schedule_due_mid_window():
    schedule = [
        FaultEvent(step=2, kind="module", nodes=(5, 9, 40)),
        FaultEvent(step=4, kind="processor", nodes=(0, 3)),
    ]

    def build():
        scheme = HMOS(64, 1.5, 3, 2)
        injector = FaultInjector(scheme, schedule=schedule, seed=2)
        return AccessProtocol(scheme, engine="cycle", faults=injector)

    window, single = build(), build()
    steps = _stream(window.scheme.num_variables, 64, seed=3, steps=7)
    got = window.run_steps(steps, on_error="record")
    want = _one_call_each(single, steps, on_error="record")
    _assert_same(got, want)
    assert any(r.reassignments for r in got if not isinstance(r, StepError))
    assert window.scheme.memory.snapshot() == single.scheme.memory.snapshot()
    a, b = window.faults, single.faults
    assert a.step_index == b.step_index == len(steps)
    np.testing.assert_array_equal(a.failed_nodes, b.failed_nodes)
    np.testing.assert_array_equal(a.failed_processors, b.failed_processors)


def _refusing():
    """A faulted cycle protocol, and a stream whose step 2 CULLING refuses
    (it asks for an unrecoverable variable)."""
    scheme = HMOS(64, 1.5, 3, 2)
    injector = FaultInjector(scheme)
    injector.fail_nodes(np.arange(32))
    everything = np.arange(scheme.num_variables, dtype=np.int64)
    recoverable = injector.recoverable(everything)
    good, dead = everything[recoverable][:40], int(everything[~recoverable][0])
    steps = [
        StepRequest("write", good[:20], np.arange(20)),
        StepRequest("mixed", good[20:], np.arange(20), np.arange(20) % 2 == 0),
        StepRequest("read", [dead]),
        StepRequest("read", good),
    ]
    return AccessProtocol(scheme, engine="cycle", faults=injector), steps


def test_culling_refusal_mid_window_is_recorded():
    window, steps = _refusing()
    single, _ = _refusing()
    got = window.run_steps(steps, on_error="record")
    assert isinstance(got[2], StepError) and got[2].index == 2
    assert "unrecoverable" in got[2].message
    _assert_same(got, _one_call_each(single, steps, on_error="record"))
    np.testing.assert_array_equal(got[3].values[:20], np.arange(20))
    assert window.scheme.memory.snapshot() == single.scheme.memory.snapshot()
    assert window.faults.step_index == single.faults.step_index == 4


def test_culling_refusal_mid_window_raises_after_earlier_steps():
    window, steps = _refusing()
    single, _ = _refusing()
    with pytest.raises(RuntimeError, match="unrecoverable"):
        window.run_steps(steps)
    with pytest.raises(RuntimeError, match="unrecoverable"):
        _one_call_each(single, steps)
    assert window.scheme.memory.snapshot() == single.scheme.memory.snapshot()
    assert window.scheme.memory.written_copies > 0
    assert window.faults.step_index == single.faults.step_index == 3


def test_usage_error_mid_window_raises_after_earlier_steps():
    """Fault-free: the steps before a usage error are applied and their
    plans cached, as one call per step leaves them."""
    scheme, other = HMOS(64, 1.5, 3, 2), HMOS(64, 1.5, 3, 2)
    steps = _stream(scheme.num_variables, 64, seed=4, steps=5)
    steps[3] = StepRequest("read", [4, 9, 4])  # a duplicate: CULLING refuses
    window = AccessProtocol(scheme, engine="cycle")
    single = AccessProtocol(other, engine="cycle")
    with pytest.raises(ValueError):
        window.run_steps(steps)
    with pytest.raises(ValueError):
        _one_call_each(single, steps)
    assert scheme.memory.snapshot() == other.memory.snapshot()
    assert list(window._plans) == list(single._plans)
    assert len(window._plans) == 3


def test_window_above_the_budget_routes_in_several_calls(monkeypatch):
    n = 256
    scheme, other = HMOS(n, 1.5, 3, 2), HMOS(n, 1.5, 3, 2)
    rng = np.random.default_rng(6)
    steps = [
        StepRequest("write", rng.choice(scheme.num_variables, n, replace=False),
                    rng.integers(0, 99, n))
        for _ in range(6)
    ]
    window = AccessProtocol(scheme, engine="cycle")
    calls = []
    route_many = window._sync.route_many

    def spy(batches, **kwargs):
        calls.append(sum(len(b) for b in batches))
        return route_many(batches, **kwargs)

    monkeypatch.setattr(window._sync, "route_many", spy)
    _assert_same(
        window.run_steps(steps),
        _one_call_each(AccessProtocol(other, engine="cycle"), steps),
    )
    assert 1 < len(calls) < len(steps)
    assert all(packets >= access._ROUTE_BUDGET for packets in calls[:-1])
    assert scheme.memory.snapshot() == other.memory.snapshot()


@pytest.mark.parametrize("faulted", [False, True])
def test_routing_failure_refuses_the_whole_window(monkeypatch, faulted):
    """The engine's livelock guard, which default caps never reach."""
    scheme = HMOS(64, 1.5, 3, 2)
    faults = FaultInjector(scheme) if faulted else None
    protocol = AccessProtocol(scheme, engine="cycle", faults=faults)
    steps = _stream(scheme.num_variables, 64, seed=5, steps=4)
    protocol.run_steps(steps[:1])  # a cached plan (fault-free) and written copies
    before, plans = scheme.memory.snapshot(), list(protocol._plans)

    def livelock(batches, **kwargs):
        raise RuntimeError("routing exceeded 3 steps; 7 stuck")

    monkeypatch.setattr(protocol._sync, "route_many", livelock)
    got = protocol.run_steps(steps, on_error="record")
    assert [type(r) for r in got] == [StepError] * len(steps)
    assert [r.index for r in got] == list(range(len(steps)))
    assert {r.message for r in got} == {"routing exceeded 3 steps; 7 stuck"}
    assert [r.origin for r in got] == [s.origin for s in steps]
    with pytest.raises(RuntimeError, match="routing exceeded"):
        protocol.run_steps(steps)
    assert scheme.memory.snapshot() == before
    assert list(protocol._plans) == plans
    if faulted:
        assert faults.step_index == 1 + 2 * len(steps)


class TestGroupedSetUp:
    """``SteppingCore.run`` sets up consecutive batches together, in
    groups of about ``_SETUP_GROUP`` packets."""

    @staticmethod
    def _assert_each_alone(mesh, batches):
        together = SteppingCore(mesh).run(batches)
        for (src, dst), got in zip(batches, together):
            (alone,) = SteppingCore(mesh).run([(src, dst)])
            assert (got.steps, got.total_hops, got.max_queue) == (
                alone.steps, alone.total_hops, alone.max_queue,
            )
            np.testing.assert_array_equal(got.node_traffic, alone.node_traffic)

    def test_empty_batches_and_home_packets(self, monkeypatch):
        mesh = Mesh(8)
        rng = np.random.default_rng(7)
        empty = np.zeros(0, dtype=np.int64)
        home = np.arange(mesh.n, dtype=np.int64)
        partly = rng.integers(0, mesh.n, 50)
        moved = partly.copy()
        moved[::3] = rng.integers(0, mesh.n, moved[::3].size)
        batches = [
            (empty, empty),
            (home, home),  # every packet is already home
            (partly, moved),  # a third of them move
            (empty, empty),
            (rng.integers(0, mesh.n, 30), rng.integers(0, mesh.n, 30)),
            (empty, empty),
        ]
        for group in (engine_core._SETUP_GROUP, 1, 64, 80):
            monkeypatch.setattr(engine_core, "_SETUP_GROUP", group)
            self._assert_each_alone(mesh, batches)
        (res,) = SteppingCore(mesh).run([(home, home)])
        assert (res.steps, res.total_hops) == (0, 0)

    def test_groups_straddle_the_group_size(self):
        mesh = Mesh(32)
        rng = np.random.default_rng(8)
        group = engine_core._SETUP_GROUP
        sizes = [group // 2 + 100, group // 2 - 300, 0, group + 5, 7, group - 7]
        batches = [
            (rng.integers(0, mesh.n, s), rng.integers(0, mesh.n, s)) for s in sizes
        ]
        self._assert_each_alone(mesh, batches)

    def test_many_small_batches_in_small_groups(self, monkeypatch):
        mesh = Mesh(8)
        rng = np.random.default_rng(9)
        batches = []
        for _ in range(40):
            s = int(rng.integers(0, 40))
            batches.append((rng.integers(0, mesh.n, s), rng.integers(0, mesh.n, s)))
        monkeypatch.setattr(engine_core, "_SETUP_GROUP", 100)
        self._assert_each_alone(mesh, batches)

    def test_unequal_batch_lengths_are_refused(self):
        with pytest.raises(ValueError, match="destinations"):
            SteppingCore(Mesh(4)).run([(np.arange(3), np.arange(3)), (np.arange(2), np.arange(3))])
