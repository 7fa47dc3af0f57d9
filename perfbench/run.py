"""Benchmark of host time per PRAM step and per served request.

Usage, from the root of the repository::

    python3 perfbench/run.py                        # all four workloads
    python3 perfbench/run.py --workload serve-cycle-64 --seed 3 --seconds 10 --trace 0

``--seconds`` sizes every workload (see ``workloads.py``); it defaults
to ``run_seconds`` in BENCHMARK.json, and figures compare only at
equal ``--seconds``.

Each workload runs in its own fresh, single-threaded interpreter
(``bench.py``), one after another, with a hermetic environment: a
run-private artifact cache under ``.perfbench/`` that is deleted
afterwards, every ``REPRO_*`` variable cleared, one thread per math
library and a fixed hash seed.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; with
several workloads its metric names are prefixed ``<workload>/``.  The
exit code is 0 only if every workload checked every output correct.

``--trace 1`` reports the per-layer metrics instead of the end-to-end
ones (see ``layers.py`` and NOTES.md).  ``--toy`` shrinks every
workload to self-test size; ``--perturb`` corrupts the reference the
outputs are checked against (both for ``test_perfbench.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("uniform-model-4096", "uniform-cycle-4096", "bfs-model-4096", "serve-cycle-64")
#: A workload that has not finished by then is stopped and fails.
TIMEOUT_S = 175


def hermetic_env(run_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMBA_NUM_THREADS="1",
        REPRO_CACHE_DIR=str(run_dir / "cache"),
    )
    return env


def run_workload(args, workload: str) -> tuple[int, dict | None]:
    """Run one workload in a fresh interpreter; relay its output."""
    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=state))
    cmd = [
        sys.executable, str(HERE / "bench.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--run-dir", str(run_dir),
    ]
    cmd += ["--toy"] * args.toy + ["--perturb"] * args.perturb
    proc = subprocess.Popen(cmd, cwd=ROOT, env=hermetic_env(run_dir), stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: stopped after {TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        # No result (e.g. the program is missing): print nothing more.
        print("\n".join(lines[-1:]), file=sys.stderr)
        return proc.returncode or 1, None
    return proc.returncode, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--perturb", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    code = 0
    for workload in workloads:
        rc, result = run_workload(args, workload)
        if result is None:
            return rc
        code = code or rc
        results[workload] = result
    if len(results) == 1:
        print(json.dumps(results[workloads[0]]))
        return code
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{w}/{name}": metric
                    for w, r in results.items()
                    for name, metric in r["metrics"].items()
                },
            }
        )
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
