"""Bit-equivalence of the sharded stepping core against the single core.

The contract: :class:`ShardedSteppingCore` must reproduce the
single-shard :class:`SteppingCore` *exactly* — ``steps``,
``total_hops``, ``max_queue`` and ``node_traffic`` per batch — for
every shard count.  The golden file pins the lineage: sharded results
must match the frozen seed-engine outputs, not merely today's core.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.mesh import Mesh, SteppingCore
from repro.mesh.engine_shard import ShardedSteppingCore

GOLDEN = Path(__file__).parent / "data" / "golden_engine.json"


def _rebuild_batch(case):
    """Recreate the exact random batch a golden case recorded."""
    rng = np.random.default_rng(case["seed"])
    side = int(rng.choice([8, 16]))
    assert side == case["side"]
    mesh = Mesh(side)
    count = int(rng.integers(1, 3 * mesh.n))
    assert count == case["count"]
    src = rng.integers(0, mesh.n, count)
    dst = rng.integers(0, mesh.n, count)
    return mesh, src, dst


def _golden_cases():
    with open(GOLDEN) as f:
        return json.load(f)["cases"]


def _random_batches(mesh, seed, counts=(200, 1, 64)):
    rng = np.random.default_rng(seed)
    batches = [
        (rng.integers(0, mesh.n, c), rng.integers(0, mesh.n, c))
        for c in counts
    ]
    batches.append((np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)))
    return batches


def _assert_results_equal(ref, got):
    assert len(ref) == len(got)
    for r, g in zip(ref, got):
        assert r.steps == g.steps
        assert r.total_hops == g.total_hops
        assert r.max_queue == g.max_queue
        np.testing.assert_array_equal(r.node_traffic, g.node_traffic)


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize(
    "case", _golden_cases(), ids=lambda c: f"{c['ports']}-seed{c['seed']}"
)
def test_sharded_matches_seed_golden_output(case, shards):
    """The sharded core reproduces the *frozen seed-engine* outputs."""
    mesh, src, dst = _rebuild_batch(case)
    core = ShardedSteppingCore(mesh, case["ports"], shards=shards)
    res = core.run([(src, dst)])[0]
    assert res.steps == case["steps"]
    assert res.total_hops == case["total_hops"]
    np.testing.assert_array_equal(
        res.node_traffic, np.array(case["node_traffic"], dtype=np.int64)
    )


@pytest.mark.parametrize("curve", ["morton", "hilbert"])
@pytest.mark.parametrize("ports", ["multi", "single"])
@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_matches_single_core(shards, ports, curve):
    """Full RouteResult parity (incl. max_queue) across shard counts,
    both port models, both space-filling curves."""
    mesh = Mesh(16, curve=curve)
    batches = _random_batches(mesh, seed=100 + shards)
    ref = SteppingCore(mesh, ports).run(batches)
    core = ShardedSteppingCore(mesh, ports, shards=shards)
    _assert_results_equal(ref, core.run(batches))


def test_sharded_livelock_guard_matches_single_core():
    mesh = Mesh(4)
    batches = [
        (np.array([0]), np.array([1])),
        (np.array([0]), np.array([15])),
    ]
    with pytest.raises(RuntimeError, match="stuck") as ref_err:
        SteppingCore(mesh).run(batches, max_steps=[50, 2])
    with pytest.raises(RuntimeError, match="stuck") as got_err:
        ShardedSteppingCore(mesh, shards=2).run(batches, max_steps=[50, 2])
    assert str(ref_err.value) == str(got_err.value)
    # The same caps succeed when every batch fits within its own.
    ref = SteppingCore(mesh).run(batches, max_steps=[50, 50])
    got = ShardedSteppingCore(mesh, shards=2).run(batches, max_steps=[50, 50])
    _assert_results_equal(ref, got)


def test_sharded_stamp_overflow_rejected():
    """The shards scatter step-stamped keys too, so they refuse exactly
    the step caps the single core refuses."""
    mesh = Mesh(4)
    batch = [(np.array([0, 1]), np.array([15, 14]))]
    # P = 3 and S = (diameter + 1) * P = 21.
    fits = (2**63 - 1) // 21
    core = ShardedSteppingCore(mesh, shards=2)
    (res,) = core.run(batch, max_steps=fits)
    assert res.steps == mesh.diameter
    with pytest.raises(ValueError, match="overflows int64"):
        core.run(batch, max_steps=fits + 1)
    # The shard count is taken as given: at least 2, dividing the side.
    assert ShardedSteppingCore(mesh, shards=4).shards == 4
    for bad in (0, 1, 3, 8):
        with pytest.raises(ValueError, match="divide side 4"):
            ShardedSteppingCore(mesh, shards=bad)
