"""Deterministic differential fuzzer with shrinking and repro artifacts.

``run_fuzz(seed, cases)`` draws ``cases`` scenarios from a seeded NumPy
stream (:func:`repro.check.generate.random_cases`) and executes every
one through the :class:`~repro.check.oracle.DifferentialOracle`, in
shards on a process pool when ``workers > 1``.  The campaign is fully
deterministic in ``(seed, cases, profile)``, so CI failures reproduce
locally with any worker count.

The first divergence (lowest campaign index) is shrunk greedily — fewer
steps, no fault state, a smaller configuration, fewer requests — and the
*minimized* failing case is serialized as a JSON artifact under
``tests/data/repros/`` (see :mod:`repro.check.case` for the format).
``replay`` re-executes an artifact, which is how a written-down failure
becomes a regression test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from pathlib import Path

from repro.check.case import CaseSpec, StepSpec, load_artifact, save_artifact
from repro.check.generate import feasible_configs, random_cases
from repro.check.oracle import OracleReport, run_case
from repro.hmos.params import HMOSParams
from repro.parallel import parallel_map

__all__ = [
    "DEFAULT_ARTIFACT_DIR",
    "FuzzReport",
    "replay",
    "run_fuzz",
    "shrink_case",
]

DEFAULT_ARTIFACT_DIR = Path("tests") / "data" / "repros"


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of one fuzzing campaign."""

    ok: bool
    seed: int
    requested_cases: int
    executed: int  # oracle executions incl. shrink attempts
    error: str | None = None
    case: CaseSpec | None = None  # minimized failing case
    artifact: Path | None = None

    def summary(self) -> str:
        if self.ok:
            return (
                f"fuzz ok: {self.requested_cases} cases (seed {self.seed}), "
                f"zero divergences between cycle engine, cost model, and "
                f"PRAM oracle"
            )
        return (
            f"fuzz FAILED (seed {self.seed}, after {self.executed} "
            f"executions): {self.error}\n"
            f"minimized case: {self.case.describe() if self.case else '?'}\n"
            f"repro artifact: {self.artifact}"
        )


def _execute_shard(payload: dict) -> dict:
    """Process-pool worker: run one shard of cases through the oracle.

    Takes/returns plain dicts (pickle-friendly).  Failures carry the
    original campaign index so the parent can pick the deterministic
    first failure regardless of shard interleaving.
    """
    failures = []
    for index, case_dict in zip(payload["indices"], payload["cases"]):
        error = _case_fails(CaseSpec.from_dict(case_dict), payload["corrupt_read"])
        if error is not None:
            failures.append({"index": index, "case": case_dict, "error": error})
    return {"executed": len(payload["cases"]), "failures": failures}


def _case_fails(case: CaseSpec, corrupt_read=None) -> str | None:
    """The divergence message if the oracle rejects ``case``, else None."""
    try:
        run_case(case, corrupt_read=corrupt_read)
    except Exception as exc:  # noqa: BLE001 - divergence reporting
        return str(exc)
    return None


def _shrunk_steps(case: CaseSpec) -> list[CaseSpec]:
    """Candidate cases with one step dropped (front first)."""
    if len(case.steps) <= 1:
        return []
    return [
        replace(case, steps=case.steps[:i] + case.steps[i + 1 :])
        for i in range(len(case.steps))
    ]


def _on_config(case: CaseSpec, config) -> CaseSpec | None:
    """``case`` on another ``(n, alpha, q, k)``, its variable ids folded
    into the new range; None when a step no longer fits (more requests
    than processors, or ids that fold onto each other)."""
    n, alpha, q, k = config
    num_variables = HMOSParams(n=n, alpha=alpha, q=q, k=k).num_variables
    steps = []
    for step in case.steps:
        variables = tuple(v % num_variables for v in step.variables)
        if len(variables) > n or len(set(variables)) < len(variables):
            return None
        steps.append(replace(step, variables=variables))
    return replace(case, n=n, alpha=alpha, q=q, k=k, steps=tuple(steps))


def _chop_step(step: StepSpec, keep: list[int]) -> StepSpec:
    """Restrict a step to the request positions in ``keep``."""
    pick = lambda seq: None if seq is None else tuple(seq[i] for i in keep)  # noqa: E731
    return StepSpec(
        op=step.op,
        variables=tuple(step.variables[i] for i in keep),
        values=pick(step.values),
        is_write=pick(step.is_write),
        workload=step.workload,
    )


def shrink_case(
    case: CaseSpec, fails, *, max_attempts: int = 250
) -> CaseSpec:
    """Greedy minimization of a failing case.

    ``fails(candidate)`` must return truthy while the failure persists.
    Passes, repeated to a fixpoint within the attempt budget: drop whole
    steps, clear each fault dimension (memory faults, processor faults,
    mid-run schedule), move a fault-free case to the first entry of
    :func:`~repro.check.generate.feasible_configs` before its own (any
    entry, for a configuration outside the list) that still fails, then
    binary-chop each step's request list (halves first, single requests
    second).  The result still satisfies ``fails``.
    """
    attempts = 0

    def try_candidate(cand: CaseSpec) -> bool:
        nonlocal attempts
        if attempts >= max_attempts:
            return False
        attempts += 1
        return bool(fails(cand))

    improved = True
    while improved and attempts < max_attempts:
        improved = False
        # Pass 1: drop steps.
        for cand in _shrunk_steps(case):
            if try_candidate(cand):
                case = cand
                improved = True
                break
        # Pass 2: clear fault state, one dimension at a time (memory
        # faults, processor faults, mid-run schedule), so the surviving
        # dimension is exactly the one the divergence needs.
        for fault_field in ("failed_nodes", "failed_processors", "fault_schedule"):
            if getattr(case, fault_field):
                cand = replace(case, **{fault_field: ()})
                if try_candidate(cand):
                    case = cand
                    improved = True
        # Pass 3: a smaller configuration (fault-free cases only: fault
        # state names nodes of the current mesh).
        if not (case.failed_nodes or case.failed_processors or case.fault_schedule):
            config = (case.n, case.alpha, case.q, case.k)
            for smaller in itertools.takewhile(
                lambda c: c != config, feasible_configs()
            ):
                cand = _on_config(case, smaller)
                if cand is not None and try_candidate(cand):
                    case = cand
                    improved = True
                    break
        # Pass 4: shrink request lists, coarse halves then singles.
        for si, step in enumerate(case.steps):
            size = len(step.variables)
            if size <= 1:
                continue
            half = size // 2
            chunks = [list(range(half)), list(range(half, size))]
            chunks += [[i] for i in range(size)]
            for keep in chunks:
                if len(keep) == size:
                    continue
                steps = (
                    case.steps[:si]
                    + (_chop_step(step, keep),)
                    + case.steps[si + 1 :]
                )
                cand = replace(case, steps=steps)
                if try_candidate(cand):
                    case = cand
                    improved = True
                    break
    return case


def run_fuzz(
    seed: int = 0,
    cases: int = 50,
    *,
    workers: int = 1,
    profile: str = "default",
    artifact_dir: str | Path = DEFAULT_ARTIFACT_DIR,
    corrupt_read=None,
) -> FuzzReport:
    """Fuzz the protocol stack against the PRAM oracle.

    Parameters
    ----------
    seed : int
        Seed of the case stream; same seed, same campaign.
    cases : int
        Number of generated cases (shrink attempts come on top).
    workers : int
        Process-pool size.  Shards of the stream run on forked workers
        that inherit the parent's HMOS artifact memo; the worker count
        changes wall-clock only, not the cases or the failure reported.
    profile : str
        Generator mix (:data:`repro.check.generate.PROFILES`):
        ``"fault-heavy"`` makes every case carry processor faults and a
        mid-run fault schedule.
    artifact_dir : path
        Where a minimized failing case is written.
    corrupt_read : callable, optional
        Harness self-test hook, forwarded to the oracle (it must pickle
        for ``workers > 1``).

    Returns
    -------
    FuzzReport
        ``ok=True`` and the case count on success; on divergence,
        ``ok=False`` with the minimized case and its artifact path.
    """
    specs = random_cases(seed, cases, profile)
    # Contiguous shards; one pickle round-trip per worker, not per case.
    shard_count = max(1, min(workers, len(specs)))
    bounds = [
        (i * len(specs)) // shard_count for i in range(shard_count + 1)
    ]
    payloads = [
        {
            "indices": list(range(lo, hi)),
            "cases": [c.to_dict() for c in specs[lo:hi]],
            "corrupt_read": corrupt_read,
        }
        for lo, hi in zip(bounds, bounds[1:])
        if hi > lo
    ]
    # ~10ms of oracle work per case on the configs random_cases draws
    # from — lets tiny campaigns skip the pool instead of losing to its
    # spin-up cost (workers then only change wall-clock on real loads).
    results = parallel_map(
        _execute_shard,
        payloads,
        workers=workers,
        cost_hint=0.01 * len(specs),
    )
    executed = sum(r["executed"] for r in results)
    failures = sorted(
        (f for r in results for f in r["failures"]), key=lambda f: f["index"]
    )
    if not failures:
        return FuzzReport(
            ok=True, seed=seed, requested_cases=cases, executed=executed
        )
    first = failures[0]
    case = CaseSpec.from_dict(first["case"])
    shrink_executed = [0]

    def fails(cand: CaseSpec) -> bool:
        shrink_executed[0] += 1
        return _case_fails(cand, corrupt_read) is not None

    minimized = shrink_case(case, fails)
    error = _case_fails(minimized, corrupt_read) or first["error"]
    artifact = save_artifact(minimized, artifact_dir, seed=seed, error=error)
    return FuzzReport(
        ok=False,
        seed=seed,
        requested_cases=cases,
        executed=executed + shrink_executed[0] + 1,
        error=error,
        case=minimized,
        artifact=artifact,
    )


def replay(path: str | Path, *, corrupt_read=None) -> OracleReport:
    """Re-execute a repro artifact through the oracle.

    Raises :class:`~repro.check.oracle.DivergenceError` if the recorded
    failure still reproduces; returns the report once it is fixed.
    """
    case, _meta = load_artifact(path)
    return run_case(case, corrupt_read=corrupt_read)
