"""MeshBackend: mixed-step alignment, refused batches and bounded memory."""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from repro.hmos import HMOS
from repro.hmos.faults import FaultInjector
from repro.pram import IdealBackend, MeshBackend
from repro.protocol import AccessProtocol, StepRequest


def _read_all(backend: MeshBackend) -> np.ndarray:
    cells = np.arange(backend.memory_size)
    return np.concatenate(
        [
            backend.read_step(chunk)
            for chunk in np.array_split(cells, -(-cells.size // backend.max_requests))
        ]
    )


class TestMixedStep:
    def test_duplicate_write_cell_takes_last_value(self):
        backend = MeshBackend(HMOS(n=64, alpha=1.5))
        backend.write_step(np.array([5]), np.array([40]))
        got = backend.mixed_step(
            np.array([5, 7]), np.array([5, 9, 5]), np.array([1, 2, 3])
        )
        np.testing.assert_array_equal(got, [40, 0])  # reads see pre-step values
        np.testing.assert_array_equal(backend.read_step(np.array([5, 9])), [3, 2])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_ideal_backend(self, seed):
        mesh = MeshBackend(HMOS(n=64, alpha=1.5))
        ideal = IdealBackend(mesh.memory_size)
        rng = np.random.default_rng(seed)
        for _ in range(12):
            n_read, n_write = rng.integers(0, 33, size=2)
            reads = rng.choice(mesh.memory_size, n_read, replace=False)
            writes = rng.choice(mesh.memory_size, n_write, replace=False)
            values = rng.integers(-(1 << 40), 1 << 40, n_write)
            np.testing.assert_array_equal(
                mesh.mixed_step(reads, writes, values),
                ideal.mixed_step(reads, writes, values),
            )
        np.testing.assert_array_equal(_read_all(mesh), ideal.snapshot())

    def test_repeated_write_cells_match_loop_reference(self):
        """Seeded steps whose write cells repeat, against a dict replayed
        in write order (the rule the per-cell loop implemented)."""
        mesh = MeshBackend(HMOS(n=64, alpha=1.5))
        reference: dict[int, int] = {}
        rng = np.random.default_rng(5)
        for _ in range(12):
            pool = rng.choice(mesh.memory_size, 40, replace=False)
            reads = rng.choice(pool, rng.integers(0, 20), replace=False)
            writes = rng.choice(pool, rng.integers(1, 40))  # with repeats
            values = rng.integers(-(1 << 40), 1 << 40, writes.size)
            expect = [reference.get(int(c), 0) for c in reads]
            for cell, value in zip(writes.tolist(), values.tolist()):
                reference[cell] = value
            np.testing.assert_array_equal(mesh.mixed_step(reads, writes, values), expect)
        cells = np.fromiter(reference, dtype=np.int64)
        want = np.zeros(mesh.memory_size, dtype=np.int64)
        want[cells] = [reference[c] for c in cells.tolist()]
        np.testing.assert_array_equal(_read_all(mesh), want)


def _retained_bytes(result) -> int:
    """Bytes of the distinct ndarrays held by a result and its culling."""
    arrays = {}
    for owner in (result, result.culling):
        for f in dataclasses.fields(owner):
            value = getattr(owner, f.name)
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, np.ndarray):
                    arrays[id(item)] = item.nbytes
    return sum(arrays.values())


@pytest.mark.parametrize("failed_nodes", [(), (3, 17)], ids=["fault-free", "faults"])
def test_step_results_hold_no_per_copy_arrays(failed_nodes):
    """A step's result keeps O(1) words per request, not CULLING's
    per-copy, per-level planning data (q^k k int64 per request)."""
    scheme = HMOS(n=256, alpha=1.5)
    faults = None
    if failed_nodes:
        faults = FaultInjector(scheme)
        faults.fail_nodes(list(failed_nodes))
    rng = np.random.default_rng(7)
    n = scheme.params.n
    is_write = np.arange(n) >= n // 2
    steps = [
        StepRequest(
            "mixed",
            rng.choice(scheme.num_variables, n, replace=False),
            rng.integers(0, 99, n),
            is_write,
        )
        for _ in range(20)
    ]
    results = AccessProtocol(scheme, faults=faults).run_steps(steps)
    assert len(results) == 20
    for result in results:
        assert result.variables.size == n
        assert _retained_bytes(result) <= 48 * n


def _report_figures(report):
    """Every running total a report keeps, and its summary text."""
    return (
        report.steps,
        report.op_counts(),
        report.total_mesh_steps,
        report.breakdown(),
        report.worst_delta(),
        report.worst_page_load(),
        report.summary(),
    )


def _refusing_backend() -> MeshBackend:
    """n = 64 with six dead nodes: variable 1052 has no level-k target
    set left, variable 0 still has one."""
    scheme = HMOS(n=64, alpha=1.5)
    faults = FaultInjector(scheme)
    faults.fail_nodes(np.random.default_rng(0).permutation(64)[:6])
    assert faults.recoverable([0, 1052]).tolist() == [True, False]
    return MeshBackend(scheme, faults=faults)


def test_refused_batch_keeps_the_steps_before_the_refusal():
    """A batch refused at its second step charges, clocks and reports
    its first step exactly like the same two single-step calls, and the
    refused step still uses up its timestamp."""
    batched, loop = _refusing_backend(), _refusing_backend()
    with pytest.raises(RuntimeError, match="unrecoverable"):
        batched.run_steps(
            [
                StepRequest("write", np.array([0]), values=np.array([1])),
                StepRequest("read", np.array([1052])),
            ]
        )
    loop.write_step(np.array([0]), np.array([1]))
    with pytest.raises(RuntimeError, match="unrecoverable"):
        loop.read_step(np.array([1052]))
    assert batched._time == loop._time == 2
    assert batched.cost == loop.cost > 0
    assert batched.protocol.faults.step_index == loop.protocol.faults.step_index == 2
    assert _report_figures(batched.report()) == _report_figures(loop.report())
    for backend in (batched, loop):
        backend.write_step(np.array([0]), np.array([2]))
    assert batched.scheme.memory.snapshot() == loop.scheme.memory.snapshot()


def test_long_run_heap_stays_flat():
    """After a warm-up that fills the step-plan cache and touches every
    variable, 400 more mixed steps (32 reads + 32 writes from 1,024
    variables) grow the traced heap by less than 64 bytes per step."""
    backend = MeshBackend(HMOS(n=64, alpha=1.5))
    rng = np.random.default_rng(11)
    cells = [rng.choice(1024, 64, replace=False) for _ in range(800)]
    values = rng.integers(0, 1 << 40, (800, 32))

    def run(lo, hi):
        for step in range(lo, hi):
            backend.mixed_step(cells[step][:32], cells[step][32:], values[step])

    tracemalloc.start()
    try:
        run(0, 400)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        run(400, 800)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown / 400 < 64, f"{grown / 400:.0f} B per step"
