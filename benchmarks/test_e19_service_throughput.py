"""E19 — service throughput: the batching window amortizes mesh steps.

A PRAM memory step on the mesh pays the full culling + routing journey
whether it carries one request or n of them (Thm 3's bound is per
*step*, not per request).  The serve layer exploits exactly that: a
batching window coalesces concurrent clients' disjoint requests into
single ``mixed`` steps, so the per-request mesh-step cost falls roughly
as 1/riders until the one-request-per-processor capacity binds.

This experiment sweeps the window size over a seeded scripted fleet
(deterministic: no sockets, no wall clock — the driver is
:class:`repro.serve.harness.ScriptedFleet` with forced-fill windows)
and measures executed mesh steps per delivered request.  Asserted
shape:

* executed coalesced steps never increase as the window widens;
* the widest window's amortized mesh-steps-per-request is at most half
  the window=1 (no coalescing) cost;
* every configuration certifies: batched execution byte-identical to
  its sequential replay.

Wall-clock request latency is recorded in ``BENCH_serve.json``
(``BENCH_serve.quick.json`` in quick mode) for reference but never
asserted.
"""

import json
import os
import time
from pathlib import Path

from _harness import instance_metadata, report, run_once

from repro.serve.harness import ScriptedFleet
from repro.serve.server import ServeConfig

QUICK = os.environ.get("REPRO_PERF_QUICK") == "1"
BENCH_JSON = Path(__file__).parent / (
    "BENCH_serve.quick.json" if QUICK else "BENCH_serve.json"
)

SCHEME = (
    dict(n=16, alpha=1.5, q=3, k=1) if QUICK else dict(n=64, alpha=1.5, q=3, k=2)
)
CLIENTS = 4 if QUICK else 8
REQUESTS = 6 if QUICK else 12
BATCH = 2 if QUICK else 4
WINDOWS = [1, 2, 4, 8, 16]
SEED = 19


def _serve_sweep():
    rows = []
    samples = []
    for window in WINDOWS:
        config = ServeConfig(
            **SCHEME,
            engine="model",
            window_max=window,
            inflight_max=window + 2,  # keep the window saturated
            seed=SEED,
        )
        fleet = ScriptedFleet(
            config,
            clients=CLIENTS,
            requests=REQUESTS,
            batch=BATCH,
            seed=SEED,
            flush_chance=0,  # windows fill completely before flushing
        )
        t0 = time.perf_counter()
        run = fleet.run()
        wall = time.perf_counter() - t0
        assert run.certified, run.certify_message
        machine = fleet.core.machines[0]
        mesh_steps = sum(
            o.report["total_steps"]
            for o in machine.outcomes
            if o.report is not None
        )
        delivered = run.delivered
        assert delivered == CLIENTS * REQUESTS
        executed = machine.steps_executed
        per_request = mesh_steps / delivered
        samples.append(
            {
                "window": window,
                "executed_steps": executed,
                "batches": machine.batches,
                "mesh_steps": mesh_steps,
                "mesh_steps_per_request": per_request,
                "wall_seconds": wall,
                "wall_latency_per_request": wall / delivered,
            }
        )
        rows.append(
            [
                window,
                delivered,
                executed,
                machine.batches,
                f"{mesh_steps:.0f}",
                f"{per_request:.1f}",
                f"{1e3 * wall / delivered:.2f}",
            ]
        )
    # Shape claims (deterministic in (seed, clients); see module doc).
    executed = [s["executed_steps"] for s in samples]
    assert all(a >= b for a, b in zip(executed, executed[1:])), executed
    assert (
        samples[-1]["mesh_steps_per_request"]
        <= samples[0]["mesh_steps_per_request"] / 2
    ), samples
    BENCH_JSON.write_text(
        json.dumps(
            {
                "benchmark": "E19 service throughput: batch-window sweep "
                "(scripted fleet, model engine)",
                "instance": {
                    **SCHEME,
                    "clients": CLIENTS,
                    "requests": REQUESTS,
                    "batch": BATCH,
                    "seed": SEED,
                    "quick": QUICK,
                    **instance_metadata(),
                },
                "samples": samples,
            },
            indent=2,
        )
        + "\n"
    )
    return rows


def test_e19_service_throughput(benchmark):
    rows = run_once(benchmark, _serve_sweep)
    report(
        benchmark,
        "E19 (extension): batch window amortizes the per-step journey "
        "across coalesced requests",
        ["window", "delivered", "steps", "batches", "mesh steps",
         "steps/request", "ms/request (info)"],
        rows,
    )
