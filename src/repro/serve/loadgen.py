"""Load generator: chart the fleet-size × batching-window frontier.

``repro client --loadgen`` (or :func:`run_loadgen` directly) sweeps
fleet sizes and window widths against a live socket server, recording
per-tenant request latency (p50/p99 over the send→outcome interval on
the client's clock) and the amortization the window actually bought
(mesh steps per delivered request).  The two axes pull against each
other — wider windows amortize the per-step mesh journey across more
riders but hold early arrivals hostage to the window — and the JSON
frontier written to ``benchmarks/BENCH_serve_scale.json`` is the
deployment-facing companion to E19's deterministic scripted sweep.

Each sample boots its own in-process server (single- or multi-process
via ``procs``) on an ephemeral port, so runs are hermetic; wall-clock
numbers are recorded for reference, never asserted.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import numpy as np

from repro.serve import protocol as wire
from repro.serve.client import ServeClient, _drive_client

__all__ = ["run_loadgen"]


def _tenant_row(script, latencies) -> dict:
    """One tenant's frontier entry."""
    lat = np.asarray(latencies, dtype=np.float64)
    return {
        "tenant": script.tenant,
        "delivered": script.delivered,
        "refused": script.refused,
        "rejected": script.rejected,
        "mesh_steps": script.mesh_steps,
        "latency_p50": float(np.percentile(lat, 50)) if len(lat) else None,
        "latency_p99": float(np.percentile(lat, 99)) if len(lat) else None,
    }


async def _collect_stats(host: str, port: int, procs: int) -> list:
    """One STATS per worker process.  Tenants pin to workers by stable
    hash, so a control tenant whose hash lands on worker ``w`` reads
    exactly that worker's core."""
    from repro.serve.multiproc import pin_worker

    per_proc: dict[int, wire.Message] = {}
    attempt = 0
    while len(per_proc) < procs and attempt < 64 * procs:
        name = f"loadgen-stats-{attempt}"
        attempt += 1
        worker = pin_worker(name, procs)
        if worker in per_proc:
            continue
        control = await ServeClient.connect(host, port, tenant=name)
        try:
            per_proc[worker] = await control.request(wire.Stats())
            await control.request(wire.Bye())
        finally:
            await control.close()
    return [per_proc[w] for w in sorted(per_proc)]


async def _drive_sample(
    host: str,
    port: int,
    *,
    fleet: int,
    requests: int,
    batch: int,
    seed: int,
    pipeline: int,
    procs: int,
    shutdown: bool,
) -> dict:
    t0 = time.perf_counter()
    driven = await asyncio.gather(
        *(
            _drive_client(
                host,
                port,
                i,
                clients=fleet,
                requests=requests,
                batch=batch,
                seed=seed,
                pipeline=pipeline,
                machine=None,
            )
            for i in range(fleet)
        )
    )
    wall = time.perf_counter() - t0
    tenants = [_tenant_row(script, latencies) for script, latencies in driven]
    all_stats = await _collect_stats(host, port, procs)
    if shutdown:
        control = await ServeClient.connect(
            host, port, tenant="loadgen-shutdown"
        )
        try:
            await control.request(wire.Shutdown())
        finally:
            await control.close()
    all_lat = np.asarray(
        [t for _, latencies in driven for t in latencies], dtype=np.float64
    )
    delivered = sum(t["delivered"] for t in tenants)
    # Amortization comes from the server's per-machine ledger: each
    # rider's RESULT carries the *full* step cost, so the client-side
    # sum overcounts shared steps exactly when coalescing works.
    mesh_steps = sum(
        m.get("mesh_steps", 0.0) for s in all_stats for m in s.machines
    )
    counters: dict[str, float] = {}
    for s in all_stats:
        for name, value in s.counters.items():
            counters[name] = counters.get(name, 0) + value
    return {
        "delivered": delivered,
        "refused": sum(t["refused"] for t in tenants),
        "rejected": sum(t["rejected"] for t in tenants),
        "mesh_steps": mesh_steps,
        "mesh_steps_per_request": (
            mesh_steps / delivered if delivered else None
        ),
        "wall_seconds": wall,
        "latency_p50": (
            float(np.percentile(all_lat, 50)) if len(all_lat) else None
        ),
        "latency_p99": (
            float(np.percentile(all_lat, 99)) if len(all_lat) else None
        ),
        "counters": counters,
        "per_tenant": tenants,
    }


def _one_sample(
    scheme: dict,
    *,
    engine: str,
    fleet: int,
    window: int,
    requests: int,
    batch: int,
    seed: int,
    pipeline: int,
    procs: int,
) -> dict:
    """Boot a hermetic server for one (fleet, window) point, drive it,
    tear it down."""
    from repro.serve.server import ServeConfig, start_server

    config = ServeConfig(
        **scheme,
        engine=engine,
        window_max=window,
        inflight_max=max(pipeline, window) + 2,
        max_sessions=fleet + 2,
        seed=seed,
    )

    if procs <= 1:

        async def _main() -> dict:
            handle = await start_server(config)
            try:
                return await _drive_sample(
                    "127.0.0.1",
                    handle.port,
                    fleet=fleet,
                    requests=requests,
                    batch=batch,
                    seed=seed,
                    pipeline=pipeline,
                    procs=1,
                    shutdown=False,
                )
            finally:
                await handle.stop()

        return asyncio.run(_main())

    # Multi-process: fork workers from sync context, run the router in a
    # thread, stop it with a wire-level SHUTDOWN from the control client.
    from repro.serve.multiproc import MultiprocServer

    server = MultiprocServer(config, procs)
    port = server.start()
    router = threading.Thread(
        target=lambda: asyncio.run(server.serve()), daemon=True
    )
    router.start()
    try:
        sample = asyncio.run(
            _drive_sample(
                "127.0.0.1",
                port,
                fleet=fleet,
                requests=requests,
                batch=batch,
                seed=seed,
                pipeline=pipeline,
                procs=procs,
                shutdown=True,
            )
        )
        router.join(timeout=10.0)
        return sample
    finally:
        server.stop()


def run_loadgen(
    *,
    scheme: dict | None = None,
    engine: str = "model",
    fleets: tuple[int, ...] = (2, 4, 8),
    windows: tuple[int, ...] = (1, 4, 16),
    requests: int = 12,
    batch: int = 3,
    seed: int = 0,
    pipeline: int = 8,
    procs: int = 1,
    out: str | None = None,
) -> dict:
    """Sweep ``fleets × windows``, return (and optionally write) the
    latency/amortization frontier."""
    scheme = dict(scheme or {"n": 16, "alpha": 1.5, "q": 3, "k": 1})
    samples = []
    for fleet in fleets:
        for window in windows:
            sample = _one_sample(
                scheme,
                engine=engine,
                fleet=fleet,
                window=window,
                requests=requests,
                batch=batch,
                seed=seed,
                pipeline=pipeline,
                procs=procs,
            )
            sample = {"fleet": fleet, "window": window, **sample}
            samples.append(sample)
    frontier = {
        "benchmark": "serve scale: fleet-size × window frontier "
        "(socket transport, per-tenant latency)",
        "instance": {
            **scheme,
            "engine": engine,
            "requests": requests,
            "batch": batch,
            "seed": seed,
            "pipeline": pipeline,
            "procs": procs,
        },
        "samples": samples,
    }
    if out is not None:
        from repro.util.fsio import write_text_atomic

        write_text_atomic(out, json.dumps(frontier, indent=2) + "\n")
    return frontier
