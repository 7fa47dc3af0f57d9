"""Differential oracle: protocol stack vs ideal PRAM semantics.

Runs one :class:`~repro.check.case.CaseSpec` through three executions of
the same request stream and cross-checks them after every step:

* the access protocol with ``engine="cycle"`` (packet movement simulated
  synchronously),
* the access protocol with ``engine="model"`` (Theorem 2 closed-form
  charging) on an independent HMOS instance with identical parameters,
* a plain NumPy shared-memory image — the ideal PRAM of Definition 2.

The two HMOS instances are deliberately built through *different
construction paths*: the cycle scheme via :meth:`HMOS.cached` (artifact
cache — materialized incidence tables, memoized initial target-set row)
and the model scheme via plain ``HMOS(...)`` (finite-field arithmetic,
per-copy incidence validation).  Every fuzz
case therefore differentially certifies the throughput layer's fast
paths against the legacy arithmetic, on top of the engine cross-checks.
Both engines execute the whole request stream through the batched
:meth:`~repro.protocol.access.AccessProtocol.run_steps` executor.

Checked per step:

* **value exactness** — every read/mixed result from both engines equals
  the ideal PRAM value (reads see the newest earlier write, mixed steps
  see pre-step values: the read-compute-write convention);
* **cross-engine agreement** — both engines deliver the *same packets*:
  identical CULLING target sets, iteration diagnostics (including the
  measured page congestion) and charged steps, and identical stage
  metrics ``(stage, t_nodes, delta_in, delta_out)``;
* **stage-metrics invariants** — exactly ``k + 1`` stages numbered
  ``k+1 .. 1``; operating submesh sizes ``t_i`` non-increasing along the
  forward journey (the Eqs. 5-7 regime: every stage operates on a
  smaller tessellation); per-node loads chain (``delta_in`` of stage
  ``i`` equals ``delta_out`` of stage ``i+1``); the first ``delta_in``
  equals the largest per-variable target set (nothing is dropped or
  duplicated before routing);
* **Theorem 3 congestion cap** — post-CULLING page loads within
  ``4 q^k n^{1 - 1/2^i}`` at every level (fault-free cases only; the
  bound degrades gracefully under faults, see DESIGN.md);
* **model-engine mirror** — the model engine's return journey is charged
  exactly the forward total (the paper's reversed-schedule argument).

Fault handling: when a case injects node failures, a step whose request
set contains an unrecoverable variable must raise ``RuntimeError`` from
*both* engines — one engine failing while the other succeeds is itself a
divergence.  Consistently-refused steps are recorded as skipped.

Processor faults and mid-run schedules extend the two-sided rule to
degraded mode: each engine carries its own independently-built
:class:`FaultInjector` (same masks, same schedule), and at every step
boundary the oracle checks that both engines made the *same*
reassignment choices — and that those choices equal the deterministic
round-robin rule replayed by the oracle's own reference injector.  The
injected-load invariant generalizes: the first stage's ``delta_in``
must equal the max per-origin packet count implied by the selected
copies and the reassignment map (which reduces to the largest target
set when no processor is dead).

The ``corrupt_read`` hook exists so the harness can be tested against
itself: it mutates the cycle engine's returned values before comparison,
standing in for a value-corrupting bug anywhere in the stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.check.case import CaseSpec, StepSpec
from repro.culling.audit import audit_theorem3
from repro.hmos.faults import FaultInjector
from repro.hmos.scheme import HMOS
from repro.protocol.access import AccessProtocol, AccessResult, StepError

__all__ = [
    "DifferentialOracle",
    "DivergenceError",
    "OracleReport",
    "StepOutcome",
    "run_case",
]


class DivergenceError(AssertionError):
    """The protocol stack disagreed with the PRAM oracle (or itself)."""


@dataclass(frozen=True)
class StepOutcome:
    """Verdict for one executed step."""

    index: int
    op: str
    n_requests: int
    skipped: bool  # True when both engines refused (unrecoverable vars)


@dataclass(frozen=True)
class OracleReport:
    """Successful run summary (a failed run raises instead)."""

    case: CaseSpec
    outcomes: tuple[StepOutcome, ...]

    @property
    def steps_checked(self) -> int:
        return sum(1 for o in self.outcomes if not o.skipped)

    @property
    def steps_skipped(self) -> int:
        return sum(1 for o in self.outcomes if o.skipped)


class DifferentialOracle:
    """Executes a case through both engines plus the PRAM reference.

    Parameters
    ----------
    case : CaseSpec
        The scenario to verify.
    corrupt_read : callable, optional
        Testing hook: applied to the cycle engine's returned values
        before comparison (simulates a value-corrupting stack bug).
    """

    def __init__(
        self,
        case: CaseSpec,
        *,
        corrupt_read: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        self.case = case
        self.corrupt_read = corrupt_read
        # Cache-backed vs arithmetic construction (see module docstring):
        # a fresh CopyMemory per oracle either way, so runs are isolated.
        self._cycle_scheme = HMOS.cached(
            case.n, case.alpha, case.q, case.k, curve=case.curve
        )
        self._model_scheme = HMOS(
            n=case.n, alpha=case.alpha, q=case.q, k=case.k, curve=case.curve
        )
        cycle_faults = self._build_injector(self._cycle_scheme)
        model_faults = self._build_injector(self._model_scheme)
        # A third, engine-independent injector replays the schedule so
        # the oracle can recompute the expected reassignment map itself
        # (agreement must hold three ways, not just cycle-vs-model).
        self._ref_faults = self._build_injector(self._cycle_scheme)
        self._cycle = AccessProtocol(
            self._cycle_scheme, engine="cycle", faults=cycle_faults
        )
        self._model = AccessProtocol(
            self._model_scheme, engine="model", faults=model_faults
        )
        self._reference = np.zeros(self._cycle_scheme.num_variables, dtype=np.int64)

    def _build_injector(self, scheme: HMOS) -> FaultInjector | None:
        case = self.case
        if not (
            case.failed_nodes or case.failed_processors or case.fault_schedule
        ):
            return None
        injector = FaultInjector(scheme, schedule=case.fault_schedule)
        if case.failed_nodes:
            injector.fail_nodes(np.asarray(case.failed_nodes, dtype=np.int64))
        if case.failed_processors:
            injector.fail_processors(
                np.asarray(case.failed_processors, dtype=np.int64)
            )
        return injector

    # -- execution ---------------------------------------------------------

    def run(self) -> OracleReport:
        """Execute every step; raises :class:`DivergenceError` on mismatch.

        Both engines run the whole stream through the batched executor
        (refusals recorded as :class:`StepError`), then the verdicts are
        compared step by step against the advancing PRAM image —
        bit-identical to issuing the steps one at a time, since the
        executor stamps ``start_timestamp + index``.
        """
        for index, step in enumerate(self.case.steps):
            variables = np.asarray(step.variables, dtype=np.int64)
            num_vars = self._cycle_scheme.num_variables
            if variables.size and np.any(
                (variables < 0) | (variables >= num_vars)
            ):
                raise ValueError(
                    f"step {index}: variable id out of range [0, {num_vars})"
                )
        cycle_results = self._cycle.run_steps(
            self.case.steps, start_timestamp=1, on_error="record"
        )
        model_results = self._model.run_steps(
            self.case.steps, start_timestamp=1, on_error="record"
        )
        outcomes = []
        for index, (step, cycle_res, model_res) in enumerate(
            zip(self.case.steps, cycle_results, model_results)
        ):
            # Replay the fault schedule on the reference injector in
            # lockstep with the engines' own step clocks.
            if self._ref_faults is not None:
                self._ref_faults.apply_due_events()
            try:
                outcomes.append(
                    self._judge_step(index, step, cycle_res, model_res)
                )
            finally:
                if self._ref_faults is not None:
                    self._ref_faults.advance_clock()
        return OracleReport(case=self.case, outcomes=tuple(outcomes))

    def _judge_step(self, index, step, cycle_res, model_res) -> StepOutcome:
        variables = np.asarray(step.variables, dtype=np.int64)
        cycle_err = (
            cycle_res.message if isinstance(cycle_res, StepError) else None
        )
        model_err = (
            model_res.message if isinstance(model_res, StepError) else None
        )
        if (cycle_err is None) != (model_err is None):
            raising = "cycle" if cycle_err else "model"
            self._fail(
                index,
                step,
                f"only the {raising} engine refused the step "
                f"({cycle_err or model_err})",
            )
        if cycle_err is not None:
            # Both engines consistently refused (unrecoverable variables
            # under the injected faults): nothing was delivered, nothing
            # changes in the reference either.
            return StepOutcome(
                index=index, op=step.op, n_requests=variables.size, skipped=True
            )

        self._check_values(index, step, variables, cycle_res, model_res)
        self._check_cross_engine(index, step, cycle_res, model_res)
        self._check_reassignments(index, step, variables, cycle_res, model_res)
        for engine, res in (("cycle", cycle_res), ("model", model_res)):
            self._check_stage_invariants(index, step, engine, res)
        # Theorem 3's cap assumes undamaged memory; processor faults
        # leave copy selection untouched, so only memory faults (static
        # or scheduled) suspend the audit.
        memory_faults = self.case.failed_nodes or any(
            e.kind == "module" for e in self.case.fault_schedule
        )
        if not memory_faults:
            try:
                audit_theorem3(
                    self._cycle_scheme, variables, cycle_res.culling.selected
                )
            except AssertionError as exc:
                self._fail(index, step, f"Theorem 3 congestion cap: {exc}")

        # Advance the ideal PRAM image.
        if step.op == "write":
            self._reference[variables] = np.asarray(step.values, dtype=np.int64)
        elif step.op == "mixed":
            is_write = np.asarray(step.is_write, dtype=bool)
            self._reference[variables[is_write]] = np.asarray(
                step.values, dtype=np.int64
            )[is_write]
        return StepOutcome(
            index=index, op=step.op, n_requests=variables.size, skipped=False
        )

    # -- checks ------------------------------------------------------------

    def _fail(self, index: int, step: StepSpec, detail: str):
        raise DivergenceError(
            f"step {index} ({step.op}, {len(step.variables)} requests, "
            f"workload={step.workload}) on {self.case.describe()}: {detail}"
        )

    def _check_values(self, index, step, variables, cycle_res, model_res):
        if step.op == "write":
            return
        expected = self._reference[variables]
        cycle_vals = cycle_res.values
        if self.corrupt_read is not None:
            cycle_vals = self.corrupt_read(np.array(cycle_vals))
        for engine, got in (("cycle", cycle_vals), ("model", model_res.values)):
            if got is None or not np.array_equal(got, expected):
                bad = (
                    np.nonzero(got != expected)[0]
                    if got is not None and got.shape == expected.shape
                    else None
                )
                where = (
                    f" first mismatch at request {bad[0]}: variable "
                    f"{variables[bad[0]]} read {got[bad[0]]}, PRAM holds "
                    f"{expected[bad[0]]}"
                    if bad is not None and bad.size
                    else ""
                )
                self._fail(
                    index,
                    step,
                    f"{engine} engine values diverge from ideal PRAM{where}",
                )

    def _check_cross_engine(self, index, step, cycle_res, model_res):
        c_cull, m_cull = cycle_res.culling, model_res.culling
        if not np.array_equal(c_cull.selected, m_cull.selected):
            self._fail(
                index, step, "engines selected different copy sets (CULLING)"
            )
        if c_cull.iterations != m_cull.iterations:
            self._fail(
                index,
                step,
                "engines disagree on CULLING diagnostics (caps/congestion): "
                f"{c_cull.iterations} vs {m_cull.iterations}",
            )
        if c_cull.charged_steps != m_cull.charged_steps:
            self._fail(
                index,
                step,
                f"CULLING charge differs: {c_cull.charged_steps} vs "
                f"{m_cull.charged_steps}",
            )
        c_struct = [(s.stage, s.t_nodes, s.delta_in, s.delta_out) for s in cycle_res.stages]
        m_struct = [(s.stage, s.t_nodes, s.delta_in, s.delta_out) for s in model_res.stages]
        if c_struct != m_struct:
            self._fail(
                index,
                step,
                f"stage metrics differ between engines: {c_struct} vs {m_struct}",
            )
        forward_total = sum(s.route_steps for s in model_res.stages)
        if model_res.return_steps != forward_total:
            self._fail(
                index,
                step,
                "model engine broke the reversed-schedule mirror: return "
                f"{model_res.return_steps} != forward {forward_total}",
            )

    def _check_reassignments(self, index, step, variables, cycle_res, model_res):
        """Two-sided + reference agreement on degraded-mode choices.

        Both engines must reassign the *same* requests to the *same*
        surviving proxies, and those choices must equal the
        deterministic round-robin rule replayed on the oracle's own
        injector (same masks, same schedule, same clock)."""
        if cycle_res.reassignments != model_res.reassignments:
            self._fail(
                index,
                step,
                "engines disagree on reassignment targets: "
                f"{cycle_res.reassignments} vs {model_res.reassignments}",
            )
        if self._ref_faults is not None and self._ref_faults.failed_processors.size:
            try:
                rmap = self._ref_faults.requester_map(variables.size)
            except RuntimeError:
                self._fail(
                    index,
                    step,
                    "every processor is dead but neither engine refused",
                )
            moved = np.nonzero(
                rmap != np.arange(variables.size, dtype=np.int64)
            )[0]
            expected = tuple((int(i), int(rmap[i])) for i in moved)
        else:
            expected = ()
        if cycle_res.reassignments != expected:
            self._fail(
                index,
                step,
                "reassignment deviates from the deterministic rule: "
                f"got {cycle_res.reassignments}, expected {expected}",
            )

    def _check_stage_invariants(self, index, step, engine, res: AccessResult):
        params = self._cycle_scheme.params
        stages = res.stages
        expected_numbers = list(range(params.k + 1, 0, -1))
        if [s.stage for s in stages] != expected_numbers:
            self._fail(
                index,
                step,
                f"{engine} engine stage numbering {[s.stage for s in stages]} "
                f"!= {expected_numbers}",
            )
        t_nodes = [s.t_nodes for s in stages]
        if any(t_nodes[i] < t_nodes[i + 1] for i in range(len(t_nodes) - 1)):
            self._fail(
                index,
                step,
                f"{engine} engine submesh sizes not non-increasing: {t_nodes}",
            )
        for i in range(len(stages) - 1):
            if stages[i + 1].delta_in != stages[i].delta_out:
                self._fail(
                    index,
                    step,
                    f"{engine} engine per-node loads do not chain at stage "
                    f"{stages[i + 1].stage}: delta_in {stages[i + 1].delta_in} "
                    f"!= previous delta_out {stages[i].delta_out}",
                )
        # Injected load: the max per-origin packet count implied by the
        # selected copies and the reassignment map.  Fault-free this is
        # the largest target set (each variable has its own origin);
        # under processor faults proxies aggregate several variables.
        rows, _ = np.nonzero(res.culling.selected)
        requesters = np.arange(res.culling.selected.shape[0], dtype=np.int64)
        for position, proxy in res.reassignments:
            requesters[position] = proxy
        origins = requesters[rows]
        expected_load = (
            int(np.bincount(origins, minlength=params.n).max())
            if origins.size
            else 0
        )
        if stages and stages[0].delta_in != expected_load:
            self._fail(
                index,
                step,
                f"{engine} engine injected load {stages[0].delta_in} != max "
                f"per-origin packet count {expected_load} (packets dropped, "
                f"duplicated, or mis-reassigned)",
            )
        if any(s.sort_steps < 0 or s.route_steps < 0 for s in stages) or (
            res.return_steps < 0
        ):
            self._fail(index, step, f"{engine} engine charged negative steps")


def run_case(
    case: CaseSpec,
    *,
    corrupt_read: Callable[[np.ndarray], np.ndarray] | None = None,
) -> OracleReport:
    """Convenience wrapper: build the oracle and run the case."""
    return DifferentialOracle(case, corrupt_read=corrupt_read).run()
