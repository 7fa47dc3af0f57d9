"""The PRAM machine: synchronous step-level shared-memory access.

One :meth:`PRAMMachine.read` or :meth:`PRAMMachine.write` call is one
PRAM step: every processor issues at most one access (the sentinel
``IDLE = -1`` marks idle processors).  The machine

* combines concurrent reads (CREW/CRCW semantics): distinct cells are
  fetched once from the backend and fanned back out;
* resolves concurrent writes by the priority rule (lowest processor id
  wins), the strongest classical CRCW convention — algorithms written
  for weaker models (EREW/CREW) run unchanged;
* forwards the deduplicated, distinct-cell request set to the backend,
  which is exactly the shape Section 3's simulation consumes ("each of
  the n processors wants to read or write a distinct variable").
"""

from __future__ import annotations

import numpy as np

from repro.pram.backends import Backend
from repro.protocol.access import StepRequest

__all__ = ["IDLE", "PRAMMachine"]

IDLE = -1


#: Supported concurrent-access conventions, strongest to weakest:
#: priority-CRCW (lowest id wins), combining-CRCW (sum / max of the
#: conflicting values), CREW (concurrent writes are an error), EREW
#: (concurrent reads are an error too).
WRITE_POLICIES = ("priority", "sum", "max", "crew", "erew")


class PRAMMachine:
    """A P-processor PRAM over a pluggable memory backend.

    Parameters
    ----------
    backend : Backend
        Memory semantics + cost accounting.
    num_processors : int
        P; each step carries at most one request per processor.
    policy : str
        Concurrent-access convention (see ``WRITE_POLICIES``):
        ``"priority"`` (default) — lowest processor id wins write
        conflicts; ``"sum"``/``"max"`` — combining CRCW; ``"crew"`` —
        write conflicts raise; ``"erew"`` — read conflicts raise too.

    Attributes
    ----------
    pram_steps : int
        Number of PRAM steps executed so far.
    """

    def __init__(self, backend: Backend, num_processors: int, *, policy: str = "priority"):
        if num_processors < 1:
            raise ValueError("need at least one processor")
        if num_processors > backend.max_requests:
            raise ValueError(
                f"{num_processors} processors exceed backend capacity "
                f"{backend.max_requests}"
            )
        if policy not in WRITE_POLICIES:
            raise ValueError(f"policy must be one of {WRITE_POLICIES}, got {policy!r}")
        self.backend = backend
        self.num_processors = int(num_processors)
        self.policy = policy
        self.pram_steps = 0

    # -- step API ---------------------------------------------------------

    def _check_addrs(self, addrs) -> np.ndarray:
        addrs = np.asarray(addrs, dtype=np.int64)
        if addrs.shape != (self.num_processors,):
            raise ValueError(
                f"addrs must have shape ({self.num_processors},), got {addrs.shape}"
            )
        active = addrs != IDLE
        if np.any((addrs[active] < 0) | (addrs[active] >= self.backend.memory_size)):
            raise ValueError("address out of shared-memory range")
        return addrs

    def read(self, addrs) -> np.ndarray:
        """One parallel read step; idle processors get 0.

        Concurrent reads of the same cell are combined (all CREW/CRCW
        policies); under ``"erew"`` they raise instead.
        """
        addrs = self._check_addrs(addrs)
        out = np.zeros(self.num_processors, dtype=np.int64)
        active = np.nonzero(addrs != IDLE)[0]
        if active.size:
            unique, inverse = np.unique(addrs[active], return_inverse=True)
            if self.policy == "erew" and unique.size != active.size:
                raise RuntimeError("EREW violation: concurrent read")
            values = self.backend.read_step(unique)
            out[active] = values[inverse]
        self.pram_steps += 1
        return out

    def write(self, addrs, values) -> None:
        """One parallel write step; conflicts resolved per the policy."""
        addrs = self._check_addrs(addrs)
        values = np.broadcast_to(
            np.asarray(values, dtype=np.int64), (self.num_processors,)
        )
        active = np.nonzero(addrs != IDLE)[0]
        if active.size:
            self.backend.write_step(
                *self._resolve_writes(addrs[active], values[active])
            )
        self.pram_steps += 1

    def step(self, read_addrs, write_addrs, write_values) -> np.ndarray:
        """One full PRAM step: some processors read, others write.

        This is the canonical PRAM step shape ("each processor reads or
        writes one cell"): on the mesh backend it costs a *single*
        simulated journey instead of a read step plus a write step.  A
        processor may not do both in the same step (use two steps).
        Returns the values fetched by reading processors (0 elsewhere);
        readers of concurrently-written cells see the pre-step value.
        """
        read_addrs = self._check_addrs(read_addrs)
        write_addrs = self._check_addrs(write_addrs)
        both = (read_addrs != IDLE) & (write_addrs != IDLE)
        if np.any(both):
            raise ValueError(
                f"processor(s) {np.nonzero(both)[0][:5].tolist()} cannot read "
                "and write in the same step"
            )
        write_values = np.broadcast_to(
            np.asarray(write_values, dtype=np.int64), (self.num_processors,)
        )
        readers = np.nonzero(read_addrs != IDLE)[0]
        writers = np.nonzero(write_addrs != IDLE)[0]
        if self.policy == "erew":
            all_cells = np.concatenate([read_addrs[readers], write_addrs[writers]])
            if np.unique(all_cells).size != all_cells.size:
                raise RuntimeError("EREW violation: concurrent access")
        unique_r, inv_r = np.unique(read_addrs[readers], return_inverse=True)
        w_cells, w_vals = self._resolve_writes(
            write_addrs[writers], write_values[writers]
        )
        fetched = self.backend.mixed_step(unique_r, w_cells, w_vals)
        out = np.zeros(self.num_processors, dtype=np.int64)
        if readers.size:
            out[readers] = fetched[inv_r]
        self.pram_steps += 1
        return out

    def _resolve_writes(self, cells: np.ndarray, values: np.ndarray):
        """The distinct written cells, ascending, and the value each one
        keeps: the lowest processor's under ``"priority"`` (also the
        conflict-free case), the combined value under ``"sum"`` /
        ``"max"``; a conflict raises under ``"crew"`` / ``"erew"``."""
        unique, first_idx = np.unique(cells, return_index=True)
        if unique.size == cells.size or self.policy == "priority":
            return unique, values[first_idx]
        if self.policy in ("crew", "erew"):
            raise RuntimeError(f"{self.policy.upper()} violation: concurrent write")
        inverse = np.searchsorted(unique, cells)
        if self.policy == "sum":
            combined = np.zeros(unique.size, dtype=np.int64)
            np.add.at(combined, inverse, values)
        else:
            combined = np.full(unique.size, np.iinfo(np.int64).min, dtype=np.int64)
            np.maximum.at(combined, inverse, values)
        return unique, combined

    # -- bulk helpers -------------------------------------------------------

    def scatter(self, base: int, values: np.ndarray) -> None:
        """Store ``values[i]`` at address ``base + i`` (one step if the
        array fits the live processor count, else several)."""
        values = np.asarray(values, dtype=np.int64)
        self._transfer("write", base, values.size, values)

    def gather(self, base: int, count: int) -> np.ndarray:
        """Fetch ``count`` consecutive cells starting at ``base``
        (chunked like :meth:`scatter`)."""
        out = np.empty(count, dtype=np.int64)
        for chunk, values in self._transfer("read", base, count):
            out[chunk] = values
        return out

    def _transfer(self, op: str, base: int, count: int, values=None) -> list:
        """Run a bulk transfer of ``count`` consecutive cells from
        ``base`` through the backend's batched step executor; returns
        ``(chunk slice, step result)`` pairs.

        Each step is as wide as the live processor count: a dead
        processor cannot originate the request for its slot, so its
        share lands on survivors (degraded mode costs more steps
        instead of failing); nobody alive refuses the transfer.  Chunks
        carry distinct consecutive addresses, so the transfer is
        conflict-free under every policy.  A chunk counts once it is done.
        """
        if count and not (0 <= base and base + count <= self.backend.memory_size):
            raise ValueError("address out of shared-memory range")
        P = min(self.num_processors, int(self.backend.live_processor_count()))
        if P < 1:
            raise RuntimeError("all processors failed: bulk transfer refused")
        cells = base + np.arange(count, dtype=np.int64)
        chunks = [slice(lo, lo + P) for lo in range(0, count, P)]
        results = []
        for c in chunks:
            req = StepRequest(op, cells[c], None if values is None else values[c])
            results += self.backend.run_steps([req])
            self.pram_steps += 1
        return list(zip(chunks, results))

    @property
    def cost(self) -> float:
        """Backend-specific cumulative cost (mesh steps or unit steps)."""
        return self.backend.cost
