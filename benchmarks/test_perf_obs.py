"""Observability overhead benchmark: the disabled tracer must be free.

The contract of ``repro.obs`` is that instrumentation with the
module-level null tracer installed costs the engine hot path effectively
nothing: ``SynchronousEngine.route_many`` adds one tracer lookup + one
``enabled`` check per call, and the stepping core adds one predictable
``occupancy is not None`` branch per step.  This benchmark measures the
full instrumented entry point against the bare ``SteppingCore.run``
(the exact pre-instrumentation hot path) on the headline engine
instance and asserts the disabled-mode overhead stays under
:data:`OVERHEAD_BUDGET` (3%).  The two are timed in :data:`PAIRS`
alternating pairs and compared best against best.

Enabled-mode cost (wall spans + per-step occupancy bincount) is
recorded in ``BENCH_obs.json`` for reference but not asserted — it is
the price of turning tracing *on*, not an overhead regression.

``REPRO_PERF_QUICK=1`` shrinks the instance for the CI smoke job and
records to ``BENCH_obs.quick.json``, so a quick run never rewrites the
committed full-mode record.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
from _harness import instance_metadata

import repro.obs as obs
from repro.mesh import Mesh, PacketBatch, SynchronousEngine

QUICK = os.environ.get("REPRO_PERF_QUICK") == "1"
BENCH_JSON = Path(__file__).parent / ("BENCH_obs.quick.json" if QUICK else "BENCH_obs.json")
OVERHEAD_BUDGET = 0.03
SIDE = 32 if QUICK else 64
REPEATS = 5 if QUICK else 9
#: Alternating (bare core, disabled tracer) pairs behind the gate.
PAIRS = 31


def _best_of(fn, repeats=REPEATS):
    """Minimum wall time over ``repeats`` runs (noise-robust)."""
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _best_of_pairs(first, second, pairs=PAIRS):
    """Minimum wall times of two callables timed in alternating pairs.

    Each pair runs both, swapping which goes first, so a stretch of
    host noise lands on both sides instead of on one block of runs.
    """
    fns = (first, second)
    best = [float("inf"), float("inf")]
    out = [None, None]
    for pair in range(pairs):
        for side in (pair % 2, 1 - pair % 2):
            t0 = time.perf_counter()
            out[side] = fns[side]()
            best[side] = min(best[side], time.perf_counter() - t0)
    return best[0], out[0], best[1], out[1]


def test_disabled_tracer_overhead():
    mesh = Mesh(SIDE)
    rng = np.random.default_rng(3)
    batch = PacketBatch(np.arange(mesh.n, dtype=np.int64), rng.permutation(mesh.n))
    engine = SynchronousEngine(mesh)
    pair = [(batch.src, batch.dst)]
    engine.route(batch)  # warm the core's buffers once
    assert obs.current() is obs.NULL_TRACER

    # Bare stepping core = the pre-instrumentation route_many body.
    core_t, core_res, disabled_t, routed = _best_of_pairs(
        lambda: engine._core.run(pair), lambda: engine.route(batch)
    )
    with obs.capture() as tracer:
        enabled_t, traced = _best_of(lambda: engine.route(batch))

    # Instrumentation must not change any measured quantity.
    assert routed.steps == core_res[0].steps == traced.steps
    assert routed.max_queue == core_res[0].max_queue == traced.max_queue
    assert tracer.counters["engine.steps"] > 0

    overhead = disabled_t / core_t - 1.0
    record = {
        "benchmark": "SynchronousEngine.route disabled-tracer overhead "
        f"vs bare SteppingCore.run, n={mesh.n} ({SIDE}x{SIDE})",
        "instance": {"side": SIDE, "packets": mesh.n, "seed": 3,
                     "quick": QUICK, "pairs": PAIRS, "repeats": REPEATS,
                     **instance_metadata()},
        "core_seconds": core_t,
        "disabled_tracer_seconds": disabled_t,
        "enabled_tracer_seconds": enabled_t,
        "disabled_overhead": overhead,
        "overhead_budget": OVERHEAD_BUDGET,
        "enabled_cost_ratio": enabled_t / core_t,
        "note": "disabled path = one tracer lookup + enabled check per "
        "route_many call and one occupancy-hook branch per step; enabled "
        "path adds wall spans, counters, and a per-step occupancy bincount",
    }
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
    print(
        f"\ndisabled tracer: {disabled_t * 1e3:.2f} ms vs bare core "
        f"{core_t * 1e3:.2f} ms -> overhead {overhead * 100:+.2f}% "
        f"(budget {OVERHEAD_BUDGET * 100:.0f}%); enabled "
        f"{enabled_t * 1e3:.2f} ms ({enabled_t / core_t:.2f}x)"
    )
    assert overhead < OVERHEAD_BUDGET, (
        f"disabled-tracer overhead {overhead * 100:.2f}% exceeds the "
        f"{OVERHEAD_BUDGET * 100:.0f}% budget"
    )
