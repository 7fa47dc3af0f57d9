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
against a golden file generated from the seed).  A large untraced
``route_many`` call on 2 CPUs runs that core in two processes
(DESIGN.md, "Engine core").
"""

from __future__ import annotations

import atexit
import contextlib
import os
import signal
import threading
from functools import partial

import numpy as np

from repro.mesh.engine_core import RouteResult, SteppingCore, _stamp_stride, xy_path_traffic
from repro.mesh.packets import PacketBatch
from repro.mesh.topology import Mesh
from repro.obs import tracer as _obs

__all__ = ["RouteResult", "SynchronousEngine"]

#: Packets from which an untraced call of >= 2 batches is split (EXPERIMENTS.md,
#: "Two processes for large route_many calls").
_SPLIT_MIN_PACKETS = 24_576

# None until the first large call, then (pid, connection); False for good.
_helper = None
_helper_lock = threading.Lock()


def _forget_helper() -> None:
    """After a fork, in the child: close its copy of the connection."""
    global _helper, _helper_lock
    if _helper:
        _helper[1].close()
    _helper, _helper_lock = None, threading.Lock()


@atexit.register
def _close_helper() -> None:
    """Close, stop and reap the helper; route in-process from then on."""
    global _helper
    if _helper:
        _helper[1].close()
        with contextlib.suppress(OSError):
            os.kill(_helper[0], signal.SIGKILL)
            os.waitpid(_helper[0], 0)
    _helper = False


os.register_at_fork(after_in_child=_forget_helper)


def _serve(conn) -> None:
    """The helper's loop, until the parent's end closes (``EOFError``)."""
    core = None
    while True:
        side, ports, pairs, caps = conn.recv()
        if core is None or (core.mesh.side, core.ports) != (side, ports):
            core = SteppingCore(Mesh(side), ports)
        try:
            out = core.run(pairs, max_steps=caps)
            conn.send([(r.steps, r.total_hops, r.max_queue) for r in out])
        except RuntimeError:
            conn.send(None)


def _helper_connection():
    """The helper's connection, forked at first use if no thread runs, or None."""
    global _helper
    cpus = getattr(os, "sched_getaffinity", lambda pid: ())(0)
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    if _helper is None and len(cpus) >= 2 and forkable:
        from multiprocessing import Pipe
        ours, theirs = Pipe()
        pid = os.fork()
        if pid == 0:  # the helper, which never returns
            try:
                ours.close()
                _serve(theirs)
            finally:
                os._exit(0)
        theirs.close()
        _helper = (pid, ours)
    return _helper[1] if _helper else None


def _work(side: int, src: np.ndarray, dst: np.ndarray) -> int:
    """A batch's stepping work: the XY distance of every 16th packet."""
    s, d = src[::16], dst[::16]
    return int(np.abs(d // side - s // side).sum() + np.abs(d % side - s % side).sum())


def _path_traffic(side: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    return xy_path_traffic(side, *np.divmod(src, side), *np.divmod(dst, side))


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
        if tracer.enabled:
            return self._route_many_traced(batches, max_steps, tracer)
        pairs = [(b.src, b.dst) for b in batches]
        big = len(pairs) > 1 and sum(len(s) for s, _ in pairs) >= _SPLIT_MIN_PACKETS
        if big and _helper_lock.acquire(blocking=False):
            try:
                out = self._route_split(pairs, max_steps)
            finally:
                _helper_lock.release()
            if out is not None:
                return out
        return self._core.run(pairs, max_steps=max_steps)

    def _route_split(self, pairs, max_steps) -> list[RouteResult] | None:
        """Validate the whole call as ``SteppingCore.run`` does, then route
        about half of its work in the helper; None routes it in-process."""
        mesh = self.mesh
        sizes = np.array([len(src) for src, _ in pairs], dtype=np.int64)
        if max_steps is None:
            max_steps = 4 * (mesh.diameter + sizes + 8)
        caps = np.asarray(max_steps, dtype=np.int64)
        if caps.ndim == 0:
            caps = np.full(len(pairs), caps)
        elif caps.size != len(pairs):
            raise ValueError("max_steps must align with batches")
        _stamp_stride(mesh.diameter, int(sizes.max()) + 1, caps)
        conn = _helper_connection()
        if conn is None:
            return None
        # Largest first onto the lighter side (whole-mesh legs split up).
        work = [_work(mesh.side, src, dst) for src, dst in pairs]
        far, near, loads = [], [], [0, 0]
        for b in sorted(range(len(pairs)), key=work.__getitem__, reverse=True):
            i = int((loads[0], len(far)) > (loads[1], len(near)))
            (far, near)[i].append(b)
            loads[i] += work[b]
        try:
            conn.send((mesh.side, self.ports, [pairs[b] for b in far], caps[far]))
            try:
                mine = self._core.run([pairs[b] for b in near], max_steps=caps[near])
            except RuntimeError:
                mine = None
            theirs = conn.recv()
        except (EOFError, OSError):  # the helper died
            _close_helper()
            return None
        except BaseException:  # left between send and receive
            _close_helper()
            raise
        if mine is None or theirs is None:
            return None
        out = dict(zip(near, mine))
        for b, counts in zip(far, theirs):  # traffic from copies, on first read
            traffic = partial(_path_traffic, mesh.side, *map(np.copy, pairs[b]))
            out[b] = RouteResult(*counts, traffic)
        return [out[b] for b in range(len(pairs))]

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
