"""Golden stage planning: the access protocol's per-step accounting is pinned.

``tests/data/golden_protocol.json`` was recorded by the per-copy
placement walk (every selected copy's page intervals re-derived from its
module chain), before stage planning moved to per-level page tables.
The tables must reproduce it exactly.  For every step the file holds the
``StageMetrics`` tuples, ``return_steps``, CULLING's ``charged_steps``
and a sha256 of the read values (or the refusal message).

Coverage: 4 steps x {model, cycle} x {fault-free, nodes 3 and 17 plus
processor 5 failed} x five schemes.  The model engine runs on a
cache-built scheme (materialized incidence tables), the cycle engine on
a freshly built one (arithmetic incidence), so both placement paths are
pinned.  Every case is also replayed a second time on the same
protocol, so the fault-free steps come from its step plans.

Record (only for an intended behaviour change)::

    PYTHONPATH=src python tests/test_protocol_golden.py --record
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cache import ArtifactCache
from repro.hmos import HMOS
from repro.hmos.adversary import module_collision_requests
from repro.hmos.faults import FaultInjector
from repro.protocol import AccessProtocol, StepError, StepRequest

GOLDEN = Path(__file__).parent / "data" / "golden_protocol.json"

SCHEMES = (
    (256, 1.5, 3, 2, "morton"),
    (1024, 1.5, 3, 2, "hilbert"),
    (256, 2.0, 3, 3, "morton"),
    (256, 1.5, 5, 2, "morton"),
    (64, 1.5, 3, 1, "morton"),
)
ENGINES = ("model", "cycle")
FAULTS = ("none", "nodes-3-17-proc-5")


def _case_id(scheme, engine, faults):
    n, alpha, q, k, curve = scheme
    return f"n{n}-a{alpha}-q{q}-k{k}-{curve}-{engine}-{faults}"


def _steps(scheme: HMOS, seed: int) -> list[StepRequest]:
    """Full-width write, module-collision read, mixed, partial read."""
    n, num_vars = scheme.params.n, scheme.num_variables
    rng = np.random.default_rng(seed)
    written = rng.choice(num_vars, size=n, replace=False)
    collide = module_collision_requests(scheme, n, module=int(rng.integers(7)))
    mixed = rng.choice(num_vars, size=n // 2, replace=False)
    return [
        StepRequest("write", written, values=rng.integers(1, 1 << 40, n)),
        StepRequest("read", collide),
        StepRequest(
            "mixed",
            mixed,
            values=rng.integers(1, 1 << 40, mixed.size),
            is_write=rng.random(mixed.size) < 0.5,
        ),
        StepRequest("read", np.concatenate([written[: n // 3], mixed[:5]])),
    ]


def _record_step(result) -> dict:
    if isinstance(result, StepError):
        return {"refused": result.message}
    values = None
    if result.values is not None:
        values = hashlib.sha256(
            np.ascontiguousarray(result.values, dtype=np.int64).tobytes()
        ).hexdigest()
    return {
        "stages": [
            [s.stage, s.t_nodes, s.delta_in, s.delta_out, s.sort_steps, s.route_steps]
            for s in result.stages
        ],
        "return_steps": result.return_steps,
        "charged_steps": result.culling.charged_steps,
        "values": values,
    }


def _injector(scheme, faults):
    if faults == "none":
        return None
    injector = FaultInjector(scheme, seed=1)
    injector.fail_nodes([3, 17])
    injector.fail_processors([5])
    return injector


def _run_passes(scheme_key, engine, faults, passes) -> list[list]:
    """Results of ``passes`` runs of the case's steps on one protocol.
    Each pass starts a fresh fault clock, as the recording did, and the
    write timestamps keep rising."""
    n, alpha, q, k, curve = scheme_key
    if engine == "model":
        cache = ArtifactCache()
        scheme = cache.scheme(n, alpha, q, k, curve=curve)
    else:
        scheme = HMOS(n, alpha, q, k, curve=curve)
    protocol = AccessProtocol(scheme, engine=engine)
    steps = _steps(scheme, n + 10 * q + k)
    out = []
    for done in range(passes):
        protocol.faults = _injector(scheme, faults)
        out.append(
            protocol.run_steps(
                steps, start_timestamp=1 + done * len(steps), on_error="record"
            )
        )
    return out


def run_case(scheme_key, engine, faults) -> list[dict]:
    (results,) = _run_passes(scheme_key, engine, faults, passes=1)
    return [_record_step(r) for r in results]


def _all_cases():
    return [
        (scheme, engine, faults)
        for scheme in SCHEMES
        for engine in ENGINES
        for faults in FAULTS
    ]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        return json.load(f)["cases"]


@pytest.mark.parametrize(
    "scheme_key, engine, faults",
    _all_cases(),
    ids=[_case_id(*case) for case in _all_cases()],
)
def test_stage_planning_matches_golden(golden, scheme_key, engine, faults):
    assert run_case(scheme_key, engine, faults) == golden[
        _case_id(scheme_key, engine, faults)
    ]


@pytest.mark.parametrize(
    "scheme_key, engine, faults",
    _all_cases(),
    ids=[_case_id(*case) for case in _all_cases()],
)
def test_replayed_steps_match_golden(golden, scheme_key, engine, faults):
    """A second pass on the same protocol reproduces every stage, return
    and CULLING figure.  Its values are not compared: memory holds the
    first pass's writes."""

    def figures(records):
        return [{k: v for k, v in r.items() if k != "values"} for r in records]

    first, second = _run_passes(scheme_key, engine, faults, passes=2)
    replayed = [_record_step(r) for r in second]
    assert figures(replayed) == figures(golden[_case_id(scheme_key, engine, faults)])
    # Fault-free steps were served from the step plans, the others planned
    # again.
    served = [b.culling is a.culling for a, b in zip(first, second)]
    assert served == [faults == "none"] * len(second)


def test_golden_is_not_vacuous(golden):
    """Every case is pinned, and every case delivered at least one step."""
    assert len(golden) == len(_all_cases())
    for case_id, steps in golden.items():
        assert len(steps) == 4
        delivered = [s for s in steps if "stages" in s]
        assert delivered, case_id


def _record() -> None:
    cases = {_case_id(*case): run_case(*case) for case in _all_cases()}
    lines = ",\n".join(
        f"  {json.dumps(case_id)}: {json.dumps(steps)}"
        for case_id, steps in cases.items()
    )
    GOLDEN.write_text('{"cases": {\n' + lines + "\n}}\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    _record()
