"""Shared helpers for the experiment benchmarks (E1..E12).

Every benchmark both *measures* (wall time via pytest-benchmark, mesh
steps via the simulators) and *checks the paper's shape claim* with
assertions, then prints the regenerated table.  `run_once` wraps the
payload so pytest-benchmark's timing loop does not re-execute expensive
simulations more than requested.  `at_reference_speed` times one run
with perfbench's host-speed probe, for the throughput gates.
"""

from __future__ import annotations

import gc
import importlib.util
import os
import platform
import statistics
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.util import format_table

__all__ = ["at_reference_speed", "instance_metadata", "run_once", "report"]


def _load_hostspeed():
    """perfbench's ``hostspeed`` module, loaded from its file (perfbench
    is a directory of scripts, not a package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "hostspeed.py"
    spec = importlib.util.spec_from_file_location("hostspeed", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


hostspeed = _load_hostspeed()


def at_reference_speed(fn: Callable[[], Any]) -> tuple[float, float, Any]:
    """Run ``fn()`` once between host-speed probes.

    Returns ``(seconds, wall_seconds, result)``, where ``seconds`` is
    the wall time divided by the host's slowness around the run: the
    median of ``hostspeed.WINDOW`` probes, half before and half after
    it, over ``hostspeed.REFERENCE_S``.  That is the run's time at the
    speed of the reference host (2 cores, no numba), as perfbench puts
    every op time.  Garbage left by earlier work is collected first,
    off the clock.
    """
    gc.collect()
    before = hostspeed.WINDOW // 2
    probes = [hostspeed.probe() for _ in range(before)]
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    probes += [hostspeed.probe() for _ in range(hostspeed.WINDOW - before)]
    slowness = statistics.median(probes) / hostspeed.REFERENCE_S
    return wall / slowness, wall, out


def instance_metadata() -> dict:
    """Host provenance stamped into every BENCH_*.json instance block,
    so perf trajectories are comparable across hosts: the Python and
    NumPy versions, the machine architecture and the core count."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }


def run_once(benchmark, fn: Callable[[], Any]) -> Any:
    """Benchmark ``fn`` with a single round (payloads are deterministic
    simulations; repeated rounds only add wall-clock)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def report(benchmark, title: str, headers, rows) -> None:
    """Print the regenerated table and attach it to the benchmark JSON."""
    table = format_table(headers, rows, title=title)
    print("\n" + table)
    benchmark.extra_info["table"] = table
