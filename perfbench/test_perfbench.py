"""Self-test of the benchmark at toy sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Each workload must run, print every metric named in BENCHMARK.json
with its unit, repeat its simulated counts under one seed (traced or
not), report ``trace.coverage``, and turn a perturbed reference into
failed ops.  A run whose counts differ from the recorded ones must
fail.  Without the program, the benchmark must fail without printing a
result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def bench(*args, cwd=ROOT, seed=SEED):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", str(seed), "--toy", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


def counts_of(workload: str, trace: int) -> dict:
    path = ROOT / ".perfbench" / "results" / f"{workload}-seed{SEED}-trace{trace}.json"
    return json.loads(path.read_text())["counts"]


def assert_metrics(result: dict, spec: list) -> None:
    assert {m["name"]: m["unit"] for m in spec} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_repeats(workload):
    runs = []
    for trace in (0, 0, 1):
        proc = bench("--workload", workload, "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = result_of(proc)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        runs.append((result, counts_of(workload, trace)))
        for line in proc.stdout.splitlines()[:-1]:
            assert not line.startswith("{")
    (plain, counts), (again, counts_again), (traced, counts_traced) = runs
    assert_metrics(plain, SPEC["end_to_end"])
    assert_metrics(traced, SPEC["per_layer"])
    assert counts == counts_again == counts_traced
    assert plain["metrics"]["mesh_steps_per_op"] == again["metrics"]["mesh_steps_per_op"]
    assert 0.5 < traced["metrics"]["trace.coverage"]["value"] <= 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_reference_fails(workload):
    proc = bench("--workload", workload, "--perturb")
    assert proc.returncode != 0
    result = result_of(proc)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_guard_rejects_changed_counts():
    workload, seed = WORKLOADS[0], SEED + 1
    guard = ROOT / ".perfbench" / "guard"
    pattern = f"{workload}-seed{seed}-*-toy-*.json"
    for stale in guard.glob(pattern):
        stale.unlink()
    try:
        first = bench("--workload", workload, seed=seed)
        assert first.returncode == 0, first.stderr
        (record,) = guard.glob(pattern)
        counts = json.loads(record.read_text())
        counts["mesh_steps_per_op"] += 1.0
        record.write_text(json.dumps(counts))
        proc = bench("--workload", workload, seed=seed)
        assert proc.returncode != 0
        assert "determinism: mesh_steps_per_op" in proc.stderr
        result = result_of(proc)
        assert not result["correct"]
        assert result["failed"] == result["attempted"] > 0
    finally:
        for record in guard.glob(pattern):
            record.unlink()


def test_missing_program_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
