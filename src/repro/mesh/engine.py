"""Cycle-accurate synchronous store-and-forward routing engine.

Model (matching the paper's cost unit):

* time advances in synchronous steps;
* in one step each *directed link* carries at most one packet, so a node
  can simultaneously send up to 4 packets (one per outgoing link) and
  receive up to 4;
* packets follow greedy dimension-ordered (XY) paths: correct the column
  first, then the row;
* when several packets queued at a node want the same outgoing link, the
  one with the farthest remaining distance wins (farthest-first), ties
  broken by packet index — the standard deterministic arbitration for
  which greedy routing meets its congestion + distance bound;
* queues are unbounded (step count, not buffer occupancy, is the measured
  quantity).

The stepping itself lives in :mod:`repro.mesh.engine_core`: a
compacted active-set core that arbitrates links with a step-stamped
bucketed max-scatter over preallocated buffers instead of the seed's
per-step global lexsort, and that can advance several independent
batches in one loop (:meth:`SynchronousEngine.route_many`).  The
refactor is step-count preserving: ``steps``, ``total_hops`` and
``node_traffic`` are identical to the seed engine under the same
farthest-first arbitration (pinned by ``tests/test_engine_equivalence.py``
against a golden file generated from the seed).  The engine always runs
that one core, in the calling process.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.engine_core import RouteResult, SteppingCore
from repro.mesh.packets import PacketBatch
from repro.mesh.topology import Mesh
from repro.obs import tracer as _obs

__all__ = ["RouteResult", "SynchronousEngine"]


class _OccupancyHistogram:
    """Accumulates ``hist[occ] += #nodes`` over every sampled step.

    Bin ``i`` counts (node, step) pairs whose in-transit queue length
    was exactly ``i``; fed by the core's per-step ``occupancy`` hook.
    """

    __slots__ = ("bins",)

    def __init__(self):
        self.bins = np.zeros(0, dtype=np.int64)

    def __call__(self, occ: np.ndarray) -> None:
        bincounts = np.bincount(occ)
        if bincounts.size > self.bins.size:
            grown = np.zeros(bincounts.size, dtype=np.int64)
            grown[: self.bins.size] = self.bins
            self.bins = grown
        self.bins[: bincounts.size] += bincounts


class SynchronousEngine:
    """Routes :class:`PacketBatch` instances on a :class:`Mesh`.

    Parameters
    ----------
    mesh : Mesh
    ports : {"multi", "single"}
        ``"multi"`` (default, the MIMD model of [SK93, Kun93]): every
        directed link carries one packet per step, so a node sends up to
        4 packets simultaneously.  ``"single"``: a node sends at most
        one packet per step regardless of link — the weaker model some
        PRAM-simulation papers assume; routing gets up to 4x slower.

    The engine owns one stepping core and reuses its preallocated
    buffers across calls, so repeated routing (protocol stages,
    benchmark sweeps) pays no per-call allocation for the hot-loop
    state.
    """

    def __init__(self, mesh: Mesh, *, ports: str = "multi"):
        if ports not in ("multi", "single"):
            raise ValueError(f"ports must be 'multi' or 'single', got {ports!r}")
        self.mesh = mesh
        self.ports = ports
        self._core = SteppingCore(mesh, ports)

    def route(self, batch: PacketBatch, *, max_steps: int | None = None) -> RouteResult:
        """Deliver every packet; return the measured :class:`RouteResult`.

        ``max_steps`` guards against livelock in case of a routing bug
        (greedy XY cannot livelock, so hitting the cap raises).
        """
        return self.route_many([batch], max_steps=max_steps)[0]

    def route_many(self, batches, *, max_steps=None) -> list[RouteResult]:
        """Advance several *independent* batches in one stepping loop.

        Each batch is routed exactly as a separate :meth:`route` call
        would route it (batches share no links, arbitration is per
        batch), but the stepping overhead is paid once — callers with
        several data-independent routing problems (the access protocol's
        forward/return legs, the experiment sweeps) amortize the loop.

        Parameters
        ----------
        batches : sequence of PacketBatch
        max_steps : int, sequence of int, or None
            Per-batch livelock guard; ``None`` applies the default
            formula to each batch.

        Returns
        -------
        list[RouteResult] aligned with ``batches``.
        """
        tracer = _obs.current()
        if not tracer.enabled:
            return self._core.run(
                [(b.src, b.dst) for b in batches], max_steps=max_steps
            )
        return self._route_many_traced(batches, max_steps, tracer)

    def _route_many_traced(self, batches, max_steps, tracer) -> list[RouteResult]:
        """The tracing path of :meth:`route_many`.

        Per-call counters (steps, delivered packets, hops) plus a
        per-step in-transit queue-occupancy histogram sampled through
        the core's ``occupancy`` hook — the stepping loop itself stays
        the vectorized core; the only addition is one ``np.bincount``
        over the occupancy vector per step, and only while a tracer is
        installed.
        """
        pairs = [(b.src, b.dst) for b in batches]
        packets = int(sum(len(src) for src, _ in pairs))
        hist = _OccupancyHistogram()
        with tracer.span(
            "engine.route_many", batches=len(pairs), packets=packets
        ) as span:
            out = self._core.run(pairs, max_steps=max_steps, occupancy=hist)
            span.set(
                steps=[r.steps for r in out],
                max_in_transit=max((r.max_queue for r in out), default=0),
            )
        tracer.count("engine.route_many_calls")
        tracer.count("engine.batches", len(pairs))
        tracer.count("engine.delivered_packets", packets)
        tracer.count("engine.steps", sum(r.steps for r in out))
        tracer.count("engine.total_hops", sum(r.total_hops for r in out))
        if hist.bins.size:
            tracer.histogram("engine.queue_occupancy", hist.bins)
        return out
