"""Golden PRAM runs: what a program costs and leaves in memory is pinned.

``tests/data/golden_pram.json`` holds, for every case, the backend's
mesh-step cost (an exact float), the machine's PRAM step count, the
backend report's ``summary()``, the refusal message if a step was
refused, and sha256 digests of the program's output and of the copy
store's full ``(value, timestamp)`` image.

Coverage: {bfs, prefix_sum, a 150-value scatter/gather round trip} x
{n = 64 cycle, n = 64 model, n = 256 model} x {fault-free, processors 5
and 9 failed, a mid-run schedule}.  The schedule kills processor 5 at
step 1 and, later, every node holding a copy of one cell the program
reads again, so a later step touching that cell is refused; the step
index is chosen so the refused step is never preceded by a completed
step of the same batched call.

Record (only for an intended behaviour change)::

    PYTHONPATH=src python tests/test_pram_golden.py --record
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.hmos import HMOS
from repro.hmos.faults import FaultEvent, FaultInjector
from repro.pram import MeshBackend, PRAMMachine
from repro.pram.algorithms import bfs, prefix_sum

GOLDEN = Path(__file__).parent / "data" / "golden_pram.json"

PROGRAMS = ("bfs", "prefix_sum", "scatter_gather")
CONFIGS = ((64, "cycle"), (64, "model"), (256, "model"))
FAULTS = ("none", "procs-5-9", "schedule")


def _case_id(program, config, faults):
    n, engine = config
    return f"{program}-n{n}-{engine}-{faults}"


def _graph(n: int):
    """A seeded undirected graph on n // 2 vertices, as CSR arrays."""
    V = n // 2
    rng = np.random.default_rng(n)
    ring = np.arange(V)
    a = np.concatenate([ring, rng.integers(0, V, V // 2)])
    b = np.concatenate([(ring + 1) % V, rng.integers(0, V, V // 2)])
    src = np.concatenate([a, b])
    dst = np.concatenate([b, a])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    offsets = np.zeros(V + 1, dtype=np.int64)
    np.add.at(offsets, src + 1, 1)
    return np.cumsum(offsets), dst.astype(np.int64)


def _program(name: str, n: int):
    """(run, doomed cell, first step the doomed cell may die at)."""
    if name == "bfs":
        offsets, targets = _graph(n)
        V = offsets.size - 1
        # Every BFS level reads the source's distance cell; the scatters
        # of offsets, targets and distances plus the source write take
        # at most 5 steps.
        dist_base = V + 1 + targets.size
        return (lambda m: bfs(m, offsets, targets, 0)), dist_base, 8
    if name == "prefix_sum":
        values = np.arange(n, dtype=np.int64) * 3 - 50
        # Cell 0 is read again at distance 4, after the single scatter.
        return (lambda m: prefix_sum(m, values)), 0, 3
    payload = np.arange(150, dtype=np.int64) * 7 + 2

    def round_trip(machine):
        machine.scatter(5, payload)
        return machine.gather(5, payload.size)

    # The gather's first chunk reads cell 5; the scatter takes
    # ceil(150 / n) steps, so the cell dies at the gather's first step.
    return round_trip, 5, -(-payload.size // n)


def _injector(scheme: HMOS, faults: str, doomed: int, die_at: int):
    if faults == "none":
        return None
    if faults == "procs-5-9":
        injector = FaultInjector(scheme, seed=1)
        injector.fail_processors([5, 9])
        return injector
    red = scheme.redundancy
    nodes = scheme.copy_nodes(np.full(red, doomed), np.arange(red))
    schedule = [
        FaultEvent(1, "processor", (5,)),
        FaultEvent(die_at, "module", tuple(sorted(set(nodes.tolist())))),
    ]
    return FaultInjector(scheme, schedule=schedule, seed=1)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def run_case(program, config, faults) -> dict:
    n, engine = config
    scheme = HMOS(n=n, alpha=1.5)
    run, doomed, die_at = _program(program, n)
    backend = MeshBackend(
        scheme, engine=engine, faults=_injector(scheme, faults, doomed, die_at)
    )
    machine = PRAMMachine(backend, n)
    refused = out = None
    try:
        out = np.asarray(run(machine), dtype=np.int64).tolist()
    except RuntimeError as exc:
        refused = str(exc)
    return {
        "cost": backend.cost,
        "pram_steps": machine.pram_steps,
        "summary": backend.report().summary(),
        "refused": refused,
        "output": _digest(out),
        "memory": _digest(sorted(scheme.memory.snapshot().items())),
    }


def _all_cases():
    return [
        (program, config, faults)
        for program in PROGRAMS
        for config in CONFIGS
        for faults in FAULTS
    ]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        return json.load(f)["cases"]


@pytest.mark.parametrize(
    "program, config, faults",
    _all_cases(),
    ids=[_case_id(*case) for case in _all_cases()],
)
def test_pram_run_matches_golden(golden, program, config, faults):
    assert run_case(program, config, faults) == golden[
        _case_id(program, config, faults)
    ]


def test_golden_is_not_vacuous(golden):
    """Every case is pinned; every schedule case refused a step and no
    other case did."""
    assert len(golden) == len(_all_cases())
    for case_id, case in golden.items():
        assert case["cost"] > 0, case_id
        assert (case["refused"] is not None) == case_id.endswith("-schedule")


def _record() -> None:
    cases = {_case_id(*case): run_case(*case) for case in _all_cases()}
    lines = ",\n".join(
        f"  {json.dumps(case_id)}: {json.dumps(case)}"
        for case_id, case in cases.items()
    )
    GOLDEN.write_text('{"cases": {\n' + lines + "\n}}\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    _record()
