"""Run one workload in this (fresh) interpreter and print its result.

Started by ``run.py``, which sets up the hermetic environment: a
run-private ``$REPRO_CACHE_DIR``, no other ``REPRO_*`` variables, one
thread per math library and a fixed hash seed.  The flow is:

1. generate the inputs from ``--seed`` (off the clock);
2. build the workload's object ``builds`` times, each into a new empty
   artifact cache, and report the median as ``setup_s``;
3. run the warm-up ops, then the timed ops, checking every output;
   probes of the host's speed between builds and between ops put every
   time at reference speed (``hostspeed.py``);
4. with ``--trace 1``, build again and repeat step 3 with every layer
   wrapped, for the per-layer metrics and the tracing overhead;
5. compare the simulated counts with the ones recorded for the same
   seed by earlier runs in this checkout (the determinism guard);
6. print the metrics, a provenance line, and the result JSON last.

The exit code is 0 only if every op was correct.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

import hostspeed  # noqa: E402  (benchmark-local modules, beside this file)
import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.cache import reset_default_cache  # noqa: E402

#: name -> unit, in the order they are printed (BENCHMARK.json lists
#: the same names; the self-test checks that they agree).
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "mesh_steps_per_op": "steps",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYER_NAMES = tuple(dict.fromkeys(entry[0] for entry in layers.LAYERS))
OP_LAYERS = tuple(name for name in LAYER_NAMES if name not in layers.SETUP_LAYERS)

PER_LAYER = {}
for _layer in LAYER_NAMES:
    PER_LAYER[f"{_layer}.self_ms_per_op"] = "ms"
    PER_LAYER[f"{_layer}.calls_per_op"] = "count"
    PER_LAYER[f"{_layer}.share"] = "fraction"
PER_LAYER.update(
    {
        "serve.protocol.bytes_per_op": "B",
        "serve.server.requests_per_merged_step": "count",
        "serve.server.queue_wait_ms_p50": "ms",
        "serve.server.queue_wait_ms_p90": "ms",
        "serve.server.certify_s": "s",
        "pram.requests_per_active_lane": "ratio",
        "culling.copies_selected_per_request": "count",
        "culling.augmented_copies_per_op": "count",
        "culling.charged_steps_per_op": "steps",
        "hmos.memory.read_ms_per_op": "ms",
        "hmos.memory.write_ms_per_op": "ms",
        "hmos.memory.read_useful_frac": "fraction",
        "hmos.memory.resident_copies": "count",
        "mesh.engine.packets_per_op": "count",
        "mesh.engine.hops_per_op": "count",
        "mesh.engine.route_steps_per_op": "steps",
        "mesh.engine.max_queue": "count",
        "bibd.build_s": "s",
        "cache.scheme_self_s": "s",
        "unattributed.share": "fraction",
        "trace.coverage": "fraction",
        "trace.overhead_frac": "fraction",
    }
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: Host-speed probes taken before each cold build and after the last.
BUILD_PROBES = 5


def cold_builds(wl, run_dir: Path, rec):
    """Build ``wl.builds`` times, each into a new empty artifact cache.

    Returns each build's wall time and the host's slowness around it
    (the median of the probes just before and just after it), the
    per-build setup-layer totals (traced runs only) and the last object
    built, which the run then uses.
    """
    times, probes, per_build, target = [], [], [], None
    probes += [hostspeed.probe() for _ in range(BUILD_PROBES)]
    for b in range(wl.builds):
        os.environ["REPRO_CACHE_DIR"] = str(run_dir / f"cache-{b}")
        reset_default_cache()
        target = None
        gc.collect()
        if rec is not None:
            rec.reset_totals()
            rec.enabled = True
        t0 = time.perf_counter()
        target = wl.build()
        times.append(time.perf_counter() - t0)
        if rec is not None:
            rec.enabled = False
            rec.freeze()
            per_build.append((rec.layer_totals("self_s"), rec.layer_totals("calls")))
            rec.reset_totals()
        probes += [hostspeed.probe() for _ in range(BUILD_PROBES)]
    slowness = [
        statistics.median(probes[b * BUILD_PROBES : (b + 2) * BUILD_PROBES]) / hostspeed.REFERENCE_S
        for b in range(wl.builds)
    ]
    return times, slowness, per_build, target


def simulated_counts(out, rec) -> dict:
    """The counts the determinism guard compares (all exact)."""
    counts = rec.window["counts"]
    result = {
        "mesh_steps_per_op": out.mesh_steps / out.ops,
        "culling.copies_selected_per_request": _ratio(
            counts["culling.copies_selected"], counts["culling.requests"]
        ),
        "mesh.engine.hops_per_op": counts["mesh.engine.hops"] / out.ops,
        "values_digest": out.digest,
        "timed_ops": out.ops,
    }
    if "requests_per_merged_step" in out.extra:
        result["serve.server.requests_per_merged_step"] = out.extra["requests_per_merged_step"]
    return result


def _code_digest() -> str:
    """Hash of the program and benchmark sources: records from other
    code are never compared."""
    h = hashlib.sha256()
    for base in (ROOT / "src" / "repro", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def determinism_guard(name: str, args, counts: dict) -> list[str]:
    """Compare ``counts`` with the record of an earlier run of the same
    workload, seed, op count and code; record them if there is none."""
    key = f"{name}-seed{args.seed}-ops{counts['timed_ops']}{'-toy' if args.toy else ''}-{_code_digest()}"
    path = STATE / "guard" / f"{key}.json"
    if path.exists():
        recorded = json.loads(path.read_text())
        return [
            f"{k}: {counts.get(k)!r} != recorded {recorded[k]!r}"
            for k in recorded
            if counts.get(k) != recorded[k]
        ]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    os.replace(tmp, path)
    return []


def end_to_end_metrics(out, builds) -> dict:
    """The end-to-end metrics; every time is at reference speed."""
    latencies, busy = out.at_reference_speed()
    p50, p90 = np.percentile(latencies * 1e3, [50, 90])
    times, slowness = builds
    return {
        "ops_per_s": out.ops / busy,
        "op_p50_ms": float(p50),
        "op_p90_ms": float(p90),
        "mesh_steps_per_op": out.mesh_steps / out.ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(t / slow for t, slow in zip(times, slowness)),
    }


def wall_metrics(out, builds) -> dict:
    """The same time metrics in plain wall time, for the provenance."""
    p50, p90 = np.percentile(np.asarray(out.latencies) * 1e3, [50, 90])
    return {
        "wall_ops_per_s": out.ops / out.busy_s,
        "wall_op_p50_ms": float(p50),
        "wall_op_p90_ms": float(p90),
        "wall_setup_s": statistics.median(builds[0]),
        "host_slowness": float(np.median(hostspeed.slowness(out.probes))),
    }


def per_layer_metrics(rec, out, untraced, builds, per_build) -> dict:
    """Per-layer metrics of the traced pass ``out``.  Self times are
    put at reference speed with the pass's (or build's) median slowness;
    shares and coverage are ratios of wall times."""
    ops, busy = out.ops, out.busy_s
    slow = float(np.median(hostspeed.slowness(out.probes)))
    self_s = rec.layer_totals("self_s")
    calls = rec.layer_totals("calls")
    counts = rec.window["counts"]
    entry_s = rec.window["self_s"]
    m = {}
    for layer in OP_LAYERS:
        m[f"{layer}.self_ms_per_op"] = self_s[layer] * 1e3 / ops / slow
        m[f"{layer}.calls_per_op"] = calls[layer] / ops
        m[f"{layer}.share"] = self_s[layer] / busy
    # Set-up layers: per cold build (median over the run's builds).
    times, slowness = builds
    for layer in layers.SETUP_LAYERS:
        m[f"{layer}.self_ms_per_op"] = statistics.median(
            s[layer] / b_slow for (s, _), b_slow in zip(per_build, slowness)
        ) * 1e3
        m[f"{layer}.calls_per_op"] = statistics.median(c[layer] for _, c in per_build)
        m[f"{layer}.share"] = statistics.median(s[layer] / t for (s, _), t in zip(per_build, times))
    m["bibd.build_s"] = m["bibd.self_ms_per_op"] / 1e3
    m["cache.scheme_self_s"] = m["cache.self_ms_per_op"] / 1e3
    waits = np.asarray(rec.window["queue_waits"]) * 1e3
    w50, w90 = np.percentile(waits, [50, 90]) if waits.size else (0.0, 0.0)
    fetched = counts["hmos.memory.copies_fetched"]
    m.update(
        {
            "serve.protocol.bytes_per_op": counts["serve.protocol.bytes"] / ops,
            "serve.server.requests_per_merged_step": out.extra.get("requests_per_merged_step", 0.0),
            "serve.server.queue_wait_ms_p50": float(w50),
            "serve.server.queue_wait_ms_p90": float(w90),
            "serve.server.certify_s": out.extra.get("certify_s", 0.0),
            "pram.requests_per_active_lane": _ratio(counts["pram.cells_sent"], counts["pram.active_lanes"]),
            "culling.copies_selected_per_request": _ratio(
                counts["culling.copies_selected"], counts["culling.requests"]
            ),
            "culling.augmented_copies_per_op": counts["culling.augmented_copies"] / ops,
            "culling.charged_steps_per_op": counts["culling.charged_steps"] / ops,
            "hmos.memory.read_ms_per_op": entry_s["hmos.memory:read_latest_masked"] * 1e3 / ops / slow,
            "hmos.memory.write_ms_per_op": entry_s["hmos.memory:write"] * 1e3 / ops / slow,
            "hmos.memory.read_useful_frac": _ratio(counts["hmos.memory.copies_reached"], fetched),
            "hmos.memory.resident_copies": out.extra["resident_copies"],
            "mesh.engine.packets_per_op": counts["mesh.engine.packets"] / ops,
            "mesh.engine.hops_per_op": counts["mesh.engine.hops"] / ops,
            "mesh.engine.route_steps_per_op": counts["mesh.engine.route_steps"] / ops,
            "mesh.engine.max_queue": counts["mesh.engine.max_queue"],
        }
    )
    coverage = sum(self_s[layer] for layer in OP_LAYERS) / busy
    m["trace.coverage"] = coverage
    m["unattributed.share"] = 1.0 - coverage
    _, untraced_busy = untraced.at_reference_speed()
    _, traced_busy = out.at_reference_speed()
    m["trace.overhead_frac"] = (untraced.ops / untraced_busy) / (ops / traced_busy) - 1.0
    return {name: m[name] for name in PER_LAYER}


def memory_probe_problems(rec) -> list[str]:
    """``read_useful_frac`` counts the copies fetched through
    ``CopyMemory.read``.  If reads reached copies but that probe saw no
    fetch, the read path has moved and the figure would be made up."""
    counts = rec.window["counts"]
    if counts["hmos.memory.copies_reached"] and not counts["hmos.memory.copies_fetched"]:
        return [
            "hmos.memory.read_useful_frac: reads reached copies but no fetch went through "
            "CopyMemory.read; point the probe in layers.py at the new read path"
        ]
    return []


def provenance(args, out, wl) -> dict:
    latencies, _ = out.at_reference_speed()
    try:
        from repro.mesh import resolve_backend

        backend = resolve_backend().name
    except ImportError:
        backend = "n/a"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timed_ops": out.ops,
        "ops_above_p90": int(np.sum(latencies > np.percentile(latencies, 90))),
        "setup_builds": wl.builds,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": backend,
        "numba": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def run_pass(wl, target, rec):
    gc.collect()
    undo = layers.install(rec)
    try:
        return wl.run(target, rec)
    finally:
        layers.uninstall(undo)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--perturb", action="store_true")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.seconds, args.toy, args.perturb)
    wl.prepare()
    traced = layers.Recorder(timing=True) if args.trace else None
    undo = layers.install(traced) if traced is not None else []
    try:
        times, slowness, per_build, target = cold_builds(wl, Path(args.run_dir), traced)
    finally:
        layers.uninstall(undo)

    counting = layers.Recorder(timing=False)
    out = run_pass(wl, target, counting)
    counts = simulated_counts(out, counting)
    attempted, failed = out.attempted, out.failed
    problems = []
    if traced is not None:
        target = None
        out_t = run_pass(wl, wl.build(), traced)
        attempted += out_t.attempted
        failed += out_t.failed
        counts_t = simulated_counts(out_t, traced)
        problems += [
            f"determinism: traced {k}: {counts_t[k]!r} != untraced {counts[k]!r}"
            for k in counts
            if counts_t[k] != counts[k]
        ]
        problems += memory_probe_problems(traced)
        metrics = per_layer_metrics(traced, out_t, out, (times, slowness), per_build)
        units = PER_LAYER
        traces = STATE / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        traced.write_spans(traces / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end_metrics(out, (times, slowness))
        units = END_TO_END
    problems += [f"determinism: {p}" for p in determinism_guard(args.workload, args, counts)]
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        failed = attempted

    stamp = provenance(args, out, wl) | wall_metrics(out, (times, slowness))
    for name, value in metrics.items():
        print(f"{args.workload}  {name:<44} {value:>16.6g} {units[name]}")
    print("provenance " + json.dumps(stamp, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "provenance": stamp, "counts": counts}, indent=1)
    )
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
