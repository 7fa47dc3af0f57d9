"""Wall-clock benchmark of the rebuilt engine core vs the seed engine.

Measures ``SynchronousEngine.route`` (compacted active set + bucketed
link-key max-scatter over preallocated buffers) against
``reference_route`` (the seed's per-step mask + 3-key lexsort) on the
headline instance — ``n = 4096`` nodes (64x64 mesh), one packet per
node, a seeded random permutation — and records the result in
``benchmarks/BENCH_engine.json``.  The refactor's contract is a >= 3x
speedup while staying step-count preserving (asserted here on the same
instance; the full equivalence suite lives in
``tests/test_engine_equivalence.py``).

A second row times ``SynchronousEngine.route_many`` on a call the size
of a full-load uniform-cycle-4096 step (6 batches x 16,384 packets at
``n = 4096``), which splits over the engine's helper process on a host
with 2 CPUs, against the same call through the in-process core; on 2
CPUs the split must not be slower.

Run directly with ``pytest benchmarks/test_perf_engine.py -q``.  With
``REPRO_PERF_QUICK=1`` (the CI smoke job) the same instance and gate
record to the gitignored ``BENCH_engine.quick.json``, so a quick run
never rewrites the committed record; CI uploads that file as an
artifact.
"""

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np
from _harness import instance_metadata

from repro.mesh import Mesh, PacketBatch, SynchronousEngine, reference_route

QUICK = os.environ.get("REPRO_PERF_QUICK") == "1"
BENCH_JSON = Path(__file__).parent / (
    "BENCH_engine.quick.json" if QUICK else "BENCH_engine.json"
)
SPEEDUP_TARGET = 3.0


def _best_of(fn, repeats=5):
    """Minimum wall time over ``repeats`` runs (noise-robust)."""
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def test_engine_core_speedup():
    mesh = Mesh(64)  # n = 4096
    rng = np.random.default_rng(3)
    batch = PacketBatch(np.arange(mesh.n, dtype=np.int64), rng.permutation(mesh.n))
    engine = SynchronousEngine(mesh)
    engine.route(batch)  # warm the core's buffers once

    ref_t, (ref_steps, ref_hops, ref_traffic) = _best_of(
        lambda: reference_route(mesh, batch.src, batch.dst)
    )
    new_t, res = _best_of(lambda: engine.route(batch))

    # Step-count preservation on the benchmark instance itself.
    assert res.steps == ref_steps
    assert res.total_hops == ref_hops
    np.testing.assert_array_equal(res.node_traffic, ref_traffic)

    speedup = ref_t / new_t
    record = {
        "benchmark": "SynchronousEngine.route, n=4096 (64x64), one packet per node",
        "instance": {"side": 64, "packets": 4096, "seed": 3, "ports": "multi",
                     **instance_metadata()},
        "steps": int(res.steps),
        "total_hops": int(res.total_hops),
        "max_queue": int(res.max_queue),
        "seed_engine_seconds": ref_t,
        "engine_core_seconds": new_t,
        "speedup": speedup,
        "target_speedup": SPEEDUP_TARGET,
        "note": "seed engine = per-step mask + 3-key lexsort (reference_route); "
        "engine core = compacted active set + bucketed link-key max-scatter, "
        "with in-transit occupancy sampled every step",
    }
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
    print(
        f"\nengine core: {new_t * 1e3:.2f} ms vs seed {ref_t * 1e3:.2f} ms "
        f"-> {speedup:.2f}x (target {SPEEDUP_TARGET}x)"
    )
    assert speedup >= SPEEDUP_TARGET, (
        f"engine core speedup {speedup:.2f}x below the {SPEEDUP_TARGET}x target"
    )


def test_route_many_amortizes_loop_overhead():
    """Advancing independent batches together must not be slower than
    routing them one at a time (it is the whole point of route_many)."""
    mesh = Mesh(32)
    rng = np.random.default_rng(11)
    batches = [
        PacketBatch(np.arange(mesh.n, dtype=np.int64), rng.permutation(mesh.n))
        for _ in range(6)
    ]
    engine = SynchronousEngine(mesh)
    engine.route_many(batches)  # warm buffers

    solo_t, _ = _best_of(lambda: [engine.route(b) for b in batches], repeats=3)
    many_t, _ = _best_of(lambda: engine.route_many(batches), repeats=3)
    # Generous bound: amortization must at least roughly break even.
    assert many_t <= 1.2 * solo_t


def test_route_many_split_speedup():
    """A call above the split threshold: alternating in-process core and
    ``route_many`` runs, median of 7 each; identical results."""
    mesh = Mesh(64)
    rng = np.random.default_rng(5)
    batches = [
        PacketBatch(rng.integers(0, mesh.n, 16384), rng.integers(0, mesh.n, 16384))
        for _ in range(6)
    ]
    pairs = [(b.src, b.dst) for b in batches]
    engine = SynchronousEngine(mesh)
    engine.route_many(batches)  # warm buffers, start the helper
    core_t, many_t = [], []
    for _ in range(7):
        t0 = time.perf_counter()
        ref = engine._core.run(pairs)
        t1 = time.perf_counter()
        got = engine.route_many(batches)
        core_t.append(t1 - t0)
        many_t.append(time.perf_counter() - t1)
    for r, g in zip(ref, got):
        assert (r.steps, r.total_hops, r.max_queue) == (
            g.steps, g.total_hops, g.max_queue,
        )
        np.testing.assert_array_equal(r.node_traffic, g.node_traffic)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    core_s, many_s = statistics.median(core_t), statistics.median(many_t)
    record = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {}
    record["route_many_split"] = {
        "benchmark": "SynchronousEngine.route_many vs SteppingCore.run, n=4096, "
        "6 batches x 16,384 random packets (seed 5), median of 7 alternating runs",
        "cpus": cpus,
        "steps": [int(r.steps) for r in got],
        "core_seconds": core_s,
        "route_many_seconds": many_s,
        "ratio": core_s / many_s,
    }
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
    print(
        f"\nroute_many: {many_s * 1e3:.1f} ms vs in-process core "
        f"{core_s * 1e3:.1f} ms -> {core_s / many_s:.2f}x on {cpus} CPUs"
    )
    if cpus >= 2:
        assert core_s / many_s >= 1.0
