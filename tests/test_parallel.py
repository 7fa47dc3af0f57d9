"""The sweep runner (:mod:`repro.parallel`) and the fuzz campaign
(:func:`repro.check.fuzz.run_fuzz`) on it.

Determinism is the load-bearing property: the case stream, the campaign
verdict, and the reported failure must not depend on the worker count —
workers only change wall-clock.
"""

import dataclasses
import json
import multiprocessing
import os

import numpy as np
import pytest

import repro.check.fuzz as fuzz_mod
from repro.check.case import CaseSpec, StepSpec, load_artifact
from repro.check.fuzz import run_fuzz, shrink_case
from repro.check.generate import (
    feasible_configs,
    full_size_configs,
    random_cases,
)
from repro.parallel import parallel_map, run_commands


def _square(x):
    return x * x


def _pid_and_worker_id(_):
    return (os.getpid(), os.environ.get("REPRO_OBS_WORKER"))


def test_parallel_map_preserves_order():
    items = list(range(20))
    assert parallel_map(_square, items, workers=1) == [x * x for x in items]
    assert parallel_map(_square, items, workers=3) == [x * x for x in items]
    assert parallel_map(_square, [], workers=3) == []
    assert parallel_map(_square, [7], workers=8) == [49]


def test_parallel_map_clamps_workers_to_cpu_count(monkeypatch):
    """Below its own core count a pool only adds overhead — the
    BENCH_protocol regression.  On a claimed 1-core machine the pool is
    skipped entirely (every result computed in the parent)."""
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    out = parallel_map(_pid_and_worker_id, range(6), workers=4)
    assert {pid for pid, _ in out} == {os.getpid()}


def test_parallel_map_small_cost_hint_skips_the_pool():
    """A campaign estimated cheaper than pool spin-up runs inline even
    when oversubscription would otherwise force the pool path."""
    out = parallel_map(
        _pid_and_worker_id, range(6), workers=4, oversubscribe=True,
        cost_hint=0.001,
    )
    assert {pid for pid, _ in out} == {os.getpid()}


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_parallel_map_worker_ids_under_both_start_methods(start_method):
    """Worker ids must not ride a fork-context sync primitive through
    ``initargs`` (spawn rejects that); each worker process derives its
    own distinct id >= 1 and the parent stays out of the pool."""
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{start_method} start method unavailable")
    out = parallel_map(
        _pid_and_worker_id, list(range(8)), workers=2,
        oversubscribe=True, start_method=start_method,
    )
    assert os.getpid() not in {pid for pid, _ in out}
    ids_by_pid = {}
    for pid, wid in out:
        assert wid is not None and int(wid) >= 1
        ids_by_pid.setdefault(pid, set()).add(wid)
    # One stable id per worker process, all distinct.
    assert all(len(ids) == 1 for ids in ids_by_pid.values())
    assert len({ids.pop() for ids in ids_by_pid.values()}) == len(ids_by_pid)


def test_parallel_map_explicit_chunksize():
    items = list(range(17))
    out = parallel_map(
        _square, items, workers=2, oversubscribe=True, chunksize=5
    )
    assert out == [x * x for x in items]


def test_run_commands_collects_exit_codes():
    import sys

    ok = [sys.executable, "-c", "pass"]
    bad = [sys.executable, "-c", "raise SystemExit(3)"]
    assert run_commands([ok, ok], workers=2) == [0, 0]
    assert run_commands([ok, bad], workers=2) == [0, 3]


def test_random_cases_deterministic_and_in_bounds():
    a = random_cases(seed=5, count=30)
    b = random_cases(seed=5, count=30)
    assert a == b
    assert a != random_cases(seed=6, count=30)
    configs = set(feasible_configs())
    for case in a:
        assert (case.n, case.alpha, case.q, case.k) in configs
        assert 1 <= len(case.steps) <= 4
        assert len(case.failed_nodes) <= 3
        for step in case.steps:
            assert 1 <= len(step.variables) <= case.n
            assert len(set(step.variables)) == len(step.variables)
            if step.op in ("write", "mixed"):
                assert len(step.values) == len(step.variables)
            if step.op == "mixed":
                assert len(step.is_write) == len(step.variables)


def test_full_size_cases_build():
    """The full-size profile draws n = 1024 and 4096 cases at alpha <=
    1.5 whose first step is a full load; CI's fuzz-smoke job runs them."""
    cases = random_cases(seed=0, count=8, profile="full-size")
    assert cases == random_cases(seed=0, count=8, profile="full-size")
    configs = set(full_size_configs())
    assert {cfg[0] for cfg in configs} == {1024, 4096}
    assert max(cfg[1] for cfg in configs) == 1.5
    for case in cases:
        assert (case.n, case.alpha, case.q, case.k) in configs
        assert len(case.steps[0].variables) == case.n
        for step in case.steps:
            assert 1 <= len(step.variables) <= case.n
            assert len(set(step.variables)) == len(step.variables)
        assert CaseSpec.from_dict(case.to_dict()) == case


def test_case_dict_roundtrip():
    for case in random_cases(seed=8, count=5):
        assert CaseSpec.from_dict(case.to_dict()) == case


@pytest.mark.parametrize("workers", [1, 2])
def test_run_fuzz_parallel_green_campaign(workers, tmp_path):
    report = run_fuzz(
        seed=11, cases=12, workers=workers, artifact_dir=tmp_path
    )
    assert report.ok, report.summary()
    assert report.executed == 12
    assert not list(tmp_path.glob("*.json"))


def test_run_fuzz_parallel_worker_count_invariant(tmp_path):
    solo = run_fuzz(seed=11, cases=12, workers=1, artifact_dir=tmp_path)
    duo = run_fuzz(seed=11, cases=12, workers=2, artifact_dir=tmp_path)
    assert solo == duo


def _fails_if_has_magic(case):
    return any(999 in step.variables for step in case.steps)


def test_shrink_case_minimizes_to_the_culprit():
    n, alpha, q, k = feasible_configs()[0]
    steps = (
        StepSpec(op="read", variables=(1, 2, 3)),
        StepSpec(
            op="write", variables=(10, 999, 30, 40), values=(0, 1, 2, 3)
        ),
        StepSpec(op="read", variables=(5,)),
    )
    case = CaseSpec(
        n=n, alpha=alpha, q=q, k=k, failed_nodes=(0, 1), steps=steps
    )
    minimized = shrink_case(case, _fails_if_has_magic)
    assert _fails_if_has_magic(minimized)
    assert len(minimized.steps) == 1
    assert minimized.steps[0].variables == (999,)
    assert minimized.steps[0].values == (1,)
    assert minimized.failed_nodes == ()


def test_shrink_case_respects_attempt_budget():
    n, alpha, q, k = feasible_configs()[0]
    case = CaseSpec(
        n=n,
        alpha=alpha,
        q=q,
        k=k,
        steps=(StepSpec(op="read", variables=tuple(range(40))),),
    )
    calls = [0]

    def fails(cand):
        calls[0] += 1
        return True

    shrink_case(case, fails, max_attempts=10)
    assert calls[0] <= 10


def test_run_fuzz_parallel_failure_path(tmp_path, monkeypatch):
    """A divergence surfaces as ok=False with a minimized artifact; the
    deterministic first failure (lowest campaign index) is the one
    reported regardless of shard layout."""
    cases = random_cases(seed=11, count=12)
    victim = cases[4]
    marker = victim.steps[0].variables[0]

    real_run_case = fuzz_mod.run_case

    def sabotaged(case, **kwargs):
        if (
            case.n == victim.n
            and case.steps
            and marker in case.steps[0].variables
        ):
            raise AssertionError("synthetic divergence")
        return real_run_case(case, **kwargs)

    monkeypatch.setattr(fuzz_mod, "run_case", sabotaged)
    report = run_fuzz(
        seed=11, cases=12, workers=1, artifact_dir=tmp_path
    )
    assert not report.ok
    assert "synthetic divergence" in report.error
    assert report.case is not None
    assert marker in report.case.steps[0].variables
    artifacts = list(tmp_path.glob("*.json"))
    assert report.artifact in artifacts
    saved, meta = load_artifact(report.artifact)
    assert saved == report.case
    assert meta["seed"] == 11
    # The report is JSON-serializable evidence (dict round-trip).
    assert json.loads(json.dumps(dataclasses.asdict(saved)))


def test_request_count_spans_small_and_large():
    sizes = [
        len(step.variables)
        for case in random_cases(seed=2, count=60)
        for step in case.steps
    ]
    assert min(sizes) <= 3  # log-uniform sizing keeps a small-case bulk
    assert max(sizes) >= np.percentile(sizes, 90) >= 8  # and a heavy tail
