"""MeshBackend: mixed-step alignment and bounded access-log retention."""

import dataclasses

import numpy as np
import pytest

from repro.hmos import HMOS
from repro.hmos.faults import FaultInjector
from repro.pram import IdealBackend, MeshBackend


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
def test_access_log_holds_no_per_copy_arrays(failed_nodes):
    """A logged step keeps O(1) words per request, not CULLING's
    per-copy, per-level planning data (q^k k int64 per request)."""
    scheme = HMOS(n=256, alpha=1.5)
    faults = None
    if failed_nodes:
        faults = FaultInjector(scheme)
        faults.fail_nodes(list(failed_nodes))
    backend = MeshBackend(scheme, faults=faults)
    rng = np.random.default_rng(7)
    n = scheme.params.n
    for _ in range(20):
        cells = rng.choice(backend.memory_size, n, replace=False)
        backend.mixed_step(cells[: n // 2], cells[n // 2 :], rng.integers(0, 99, n // 2))
    assert len(backend.access_log) == 20
    for result in backend.access_log:
        assert result.variables.size == n
        assert _retained_bytes(result) <= 48 * n
