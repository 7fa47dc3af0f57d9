"""Memory backends for the PRAM machine.

A backend receives *distinct-cell* request batches (the machine combines
concurrent accesses) and provides values plus a cost measure:

* :class:`IdealBackend` — NumPy array semantics, unit cost per step; the
  executable specification.
* :class:`MeshBackend` — runs every step through CULLING + the access
  protocol on the simulated mesh; cost is accumulated mesh steps, i.e.
  the quantity Theorem 1 bounds.  A monotone step counter provides the
  timestamps that the majority rule requires.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.hmos.scheme import HMOS
from repro.mesh.costmodel import CostModel
from repro.protocol.access import AccessProtocol, StepRequest
from repro.protocol.stats import SimulationReport

__all__ = ["Backend", "IdealBackend", "MeshBackend"]


class Backend(Protocol):
    """Structural interface the PRAM machine expects."""

    memory_size: int
    max_requests: int

    @property
    def cost(self) -> float: ...  # noqa: E704

    def read_step(self, cells: np.ndarray) -> np.ndarray: ...  # noqa: E704

    def write_step(self, cells: np.ndarray, values: np.ndarray) -> None: ...  # noqa: E704

    def mixed_step(
        self, read_cells: np.ndarray, write_cells: np.ndarray, values: np.ndarray
    ) -> np.ndarray: ...  # noqa: E704

    def run_steps(self, requests: list[StepRequest]) -> list: ...  # noqa: E704

    def live_processor_count(self) -> int: ...  # noqa: E704


class IdealBackend:
    """Unit-cost shared memory: the reference PRAM semantics."""

    def __init__(self, memory_size: int):
        if memory_size < 1:
            raise ValueError("memory_size must be positive")
        self.memory_size = int(memory_size)
        self.max_requests = int(memory_size)
        self._mem = np.zeros(self.memory_size, dtype=np.int64)
        self.cost = 0.0

    def live_processor_count(self) -> int:
        """The ideal PRAM never loses processors."""
        return self.max_requests

    def read_step(self, cells: np.ndarray) -> np.ndarray:
        self.cost += 1.0
        return self._mem[cells].copy()

    def write_step(self, cells: np.ndarray, values: np.ndarray) -> None:
        self.cost += 1.0
        self._mem[cells] = values

    def mixed_step(
        self, read_cells: np.ndarray, write_cells: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """One PRAM step: read phase (old values), then write phase."""
        self.cost += 1.0
        out = self._mem[read_cells].copy()
        self._mem[write_cells] = values
        return out

    def run_steps(self, requests: list[StepRequest]) -> list:
        """Batched dispatch; one unit cost per step, like the loop."""
        out = []
        for req in requests:
            cells = np.asarray(req.variables, dtype=np.int64)
            if req.op == "read":
                out.append(self.read_step(cells))
            elif req.op == "write":
                self.write_step(cells, np.asarray(req.values, dtype=np.int64))
                out.append(None)
            else:
                is_write = np.asarray(req.is_write, dtype=bool)
                values = np.asarray(req.values, dtype=np.int64)
                self.cost += 1.0
                fetched = self._mem[cells].copy()
                self._mem[cells[is_write]] = values[is_write]
                out.append(fetched)
        return out

    def snapshot(self) -> np.ndarray:
        """Full memory image (testing hook)."""
        return self._mem.copy()


class MeshBackend:
    """Shared memory simulated on the mesh via the HMOS.

    Every memory step, whichever method issues it, runs through one
    loop: the backend's clock advances (a refused step uses up its
    timestamp too), the protocol's batched step executor runs the step
    (it owns the fault-schedule boundary, so "dies at step t" means the
    backend's t-th memory step however the program is dispatched), and
    the result is folded into the running :meth:`report`, whose total
    is :attr:`cost`.

    Parameters
    ----------
    scheme : HMOS
        The memory organization (which also fixes n and the mesh).
    engine : {"model", "cycle"}
        Execution engine for the access protocol; ``model`` by default so
        PRAM programs of many steps stay fast.
    faults : FaultInjector, optional
        Forwarded to :class:`AccessProtocol`.
    """

    def __init__(
        self,
        scheme: HMOS,
        *,
        engine: str = "model",
        cost_model: CostModel | None = None,
        faults=None,
    ):
        self.scheme = scheme
        self.protocol = AccessProtocol(
            scheme, engine=engine, cost_model=cost_model, faults=faults,
        )
        self.memory_size = scheme.num_variables
        self.max_requests = scheme.params.n
        self._time = 0
        self._report = SimulationReport()

    def live_processor_count(self) -> int:
        """Processors still able to issue requests (n minus dead ranks)."""
        faults = self.protocol.faults
        if faults is None:
            return self.max_requests
        return int(self.max_requests - faults.failed_processors.size)

    def _run(self, requests) -> list:
        """The one step loop; returns each step's fetched values (``None``
        for writes).  A refusal propagates after the steps before it
        were charged and reported."""
        out = []
        for request in requests:
            self._time += 1
            (result,) = self.protocol.run_steps(
                [request], start_timestamp=self._time
            )
            out.append(self._report.record(result).values)
        return out

    def read_step(self, cells: np.ndarray) -> np.ndarray:
        return self._run([StepRequest("read", cells)])[0]

    def write_step(self, cells: np.ndarray, values: np.ndarray) -> None:
        self._run([StepRequest("write", cells, values)])

    def mixed_step(
        self, read_cells: np.ndarray, write_cells: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """Fused read+write step: one culling pass, one routed journey.

        A cell appearing in both sets is treated as written; the
        protocol's mixed access returns pre-write values, preserving the
        read-before-write PRAM convention.  A cell written twice takes
        its last value.
        """
        write_cells = np.asarray(write_cells, dtype=np.int64)
        union = np.unique(np.concatenate([read_cells, write_cells]))
        # First occurrence in reverse order = last write of each cell.
        cells, from_end = np.unique(write_cells[::-1], return_index=True)
        at = np.searchsorted(union, cells)
        is_write = np.zeros(union.size, dtype=bool)
        is_write[at] = True
        aligned = np.zeros(union.size, dtype=np.int64)
        aligned[at] = np.asarray(values, dtype=np.int64)[
            write_cells.size - 1 - from_end
        ]
        (fetched,) = self._run([StepRequest("mixed", union, aligned, is_write)])
        return fetched[np.searchsorted(union, read_cells)]

    def run_steps(self, requests: list[StepRequest]) -> list:
        """A request stream, step by step through the same loop as
        ``read_step``/``write_step``/``mixed_step``.  Returns one entry
        per step: the fetched values for read/mixed steps, ``None`` for
        writes."""
        return self._run(requests)

    @property
    def cost(self) -> float:
        """Mesh steps charged so far: the running report's total, the
        sum of every step's ``total_steps`` in step order."""
        return self._report.total_mesh_steps

    @property
    def mesh_steps(self) -> float:
        """Alias for :attr:`cost` with the paper's units spelled out."""
        return self._report.total_mesh_steps

    def report(self) -> SimulationReport:
        """The running :class:`repro.protocol.SimulationReport` of every
        step this backend charged."""
        return self._report
