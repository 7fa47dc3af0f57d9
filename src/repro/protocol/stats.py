"""Aggregation of access results over multi-step simulations.

A PRAM program issues many memory steps; :class:`SimulationReport`
accumulates their :class:`AccessResult`s and answers the questions a
user of the simulator asks: total and per-operation cost, where the
time went (culling / sorting / routing / return), worst congestion
observed, and the effective slowdown versus an ideal PRAM.
"""

from __future__ import annotations

from collections import Counter

from repro.protocol.access import AccessResult

__all__ = ["SimulationReport"]


class SimulationReport:
    """Running totals over per-step access results.

    ``record`` folds a result into the totals and keeps nothing of it,
    so a report's size does not grow with the number of steps.  Sums
    are added in record order.
    """

    def __init__(self):
        self.steps = 0
        self._total = 0.0
        self._ops: Counter[str] = Counter()
        self._breakdown = dict.fromkeys(
            ("culling", "sorting", "routing", "return"), 0.0
        )
        self._worst_delta = 0
        self._worst_page_load = 0
        self._requests_min = self._requests_sum = self._requests_max = 0

    def record(self, result: AccessResult) -> AccessResult:
        """Add one step's result (returns it, for chaining)."""
        stages = result.stages
        bd = self._breakdown
        bd["culling"] += result.culling.charged_steps
        bd["sorting"] += sum([s.sort_steps for s in stages])
        bd["routing"] += sum([s.route_steps for s in stages])
        bd["return"] += result.return_steps
        self._total += result.total_steps
        for s in stages:
            self._worst_delta = max(self._worst_delta, s.delta_in, s.delta_out)
        for it in result.culling.iterations:
            self._worst_page_load = max(self._worst_page_load, it.max_page_load)
        size = result.variables.size
        self._requests_min = min(self._requests_min, size) if self.steps else size
        self._requests_sum += size
        self._requests_max = max(self._requests_max, size)
        self._ops[result.op] += 1
        self.steps += 1
        return result

    def extend(self, results) -> None:
        for r in results:
            self.record(r)

    # -- aggregates -------------------------------------------------------

    @property
    def total_mesh_steps(self) -> float:
        return float(self._total)

    @property
    def mean_step_cost(self) -> float:
        if not self.steps:
            return 0.0
        return self.total_mesh_steps / self.steps

    def breakdown(self) -> dict[str, float]:
        """Where the time went, summed over all steps."""
        return dict(self._breakdown)

    def worst_delta(self) -> int:
        """Largest per-node packet load seen at any stage boundary."""
        return self._worst_delta

    def worst_page_load(self) -> int:
        """Largest post-culling page congestion across all steps."""
        return self._worst_page_load

    def op_counts(self) -> dict[str, int]:
        return dict(self._ops)

    def summary(self) -> str:
        """Multi-line human-readable report."""
        if not self.steps:
            return "SimulationReport: no steps recorded"
        bd = self.breakdown()
        total = self.total_mesh_steps
        if total > 0:
            shares = ", ".join(
                f"{name} {100 * v / total:.0f}%" for name, v in bd.items()
            )
        else:
            # E.g. an all-refused fault stream: nothing was charged, so
            # percentages are undefined — say so instead of rendering a
            # bare "time share:" line.
            shares = "n/a (no mesh steps charged)"
        ops = ", ".join(f"{k}: {v}" for k, v in sorted(self.op_counts().items()))
        lines = [
            f"SimulationReport: {self.steps} memory steps ({ops})",
            f"  total mesh steps: {total:.0f} "
            f"(mean {self.mean_step_cost:.0f}/step)",
            f"  requests/step: min {self._requests_min}, "
            f"mean {self._requests_sum / self.steps:.0f}, max {self._requests_max}",
            f"  time share: {shares}",
            f"  worst per-node load: {self.worst_delta()}; "
            f"worst page load: {self.worst_page_load()}",
        ]
        return "\n".join(lines)
