"""Sharded stepping core: submesh shards in lockstep with halo exchange.

Test-only.  Nothing in the package reaches this module: the
shared-memory worker pool that ran the shards and the ``shards`` knob
on the engine, the protocol, the PRAM backend and the CLI were deleted,
because no available host ever measured a win for them (EXPERIMENTS.md,
"Why the sharded stepping core left the product").  The in-process core
stays only while its bit-identity suites (``tests/test_engine_sharded.py``
and ``tests/property/test_sharding.py``) do.

:class:`ShardedSteppingCore` partitions a mesh into ``S`` horizontal
row-block shards (shard ``s`` owns rows ``[s*side/S, (s+1)*side/S)`` —
a contiguous range of linear node ids, so every per-node array is a
plain slice).  Each shard advances its resident packets with the same
step-stamped farthest-first link arbitration as
:class:`repro.mesh.engine_core.SteppingCore` and exchanges *halo
packets* — winners whose hop carried them across a
shard boundary — with its two neighbors between steps, mirroring
fpgagraphlib's per-PE compute units joined by inter-PE FIFOs.

Why the partition is **bit-exact** against the single-shard core:

* Arbitration is link-local and *value*-based: the composite priority
  ``rem * P + (P - 1 - original_index)`` travels with the packet, so
  the winner of a link does not depend on where in which array the
  competing packets happen to live.
* Routing is XY (column phase first): column hops never change the row,
  and a row hop moves exactly one row — so a packet can only ever cross
  into an *adjacent* shard, and at most one packet per boundary link
  per batch per step wins.  A ``batches * side``-slot outbox per
  direction is therefore capacity-exact, and halo exchange is
  nearest-neighbor only.
* Every measured quantity partitions by node: ``max_queue`` is a max
  over per-shard maxima, and deliveries are summed per batch each step
  so every shard observes the same global completion step.
  ``node_traffic`` is not counted by the shards at all: like the single
  core's, it is derived from the XY paths
  (:func:`repro.mesh.engine_core.xy_path_traffic`) on first read.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.mesh.engine_core import RouteResult, _stamp_stride, xy_path_traffic
from repro.mesh.topology import Mesh

__all__ = ["ShardedSteppingCore"]

# Per-packet int64 state of a shard's resident packets, one row each:
# gnode  batch-offset linear node id (batch*n + row*side + col)
# rem    remaining L1 distance to destination
# remc   remaining column (horizontal) distance — >0 means XY column phase
# pv     arbitration priority complement  P - 1 - original_index
# drow   direction code of the row phase (2=S, 3=N)
# ddel   direction delta  (column-phase code - drow)
# srow   gnode delta of one row-phase hop (+-side)
# sdel   gnode delta difference (column-phase hop - srow)
_N_STATE = 8


class _ShardState:
    """One shard's resident packets, link buckets, and counters.

    The link buckets are step-stamped like the single core's: step ``t``
    scatters ``key + t * S``, so :meth:`advance` never resets them.
    Packets that leave the shard (delivered, or handed to a neighbor)
    are parked like the single core's: moved to a sacrificial slot past
    the owned nodes with a key that never wins, and compacted out once
    they exceed a quarter of the resident set.
    """

    def __init__(
        self,
        rank: int,
        nshards: int,
        n: int,
        side: int,
        nb: int,
        ports: str,
        P: int,
        stride: int,
        parked_key: int,
        *,
        state: np.ndarray,
        maxq: np.ndarray,
    ):
        self.rank = rank
        self.n = n
        self.side = side
        self.nb = nb
        self.ln = n // nshards  # local nodes per shard
        self.base = rank * self.ln  # first owned node id
        self.multi = ports == "multi"
        self.P = P
        self.stride = stride  # step-stamp stride S
        self.stamp = 0  # step * S of the next advance
        self.parked_key = parked_key  # pv of a parked packet
        # gnode of a parked packet: its local slot is nb * ln, one past
        # the owned ones, so occupancy and arbitration never see it.
        self.park = nb * n + self.base
        self.state = state  # (_N_STATE, cap) resident packets
        self.m = 0  # resident count, parked packets included
        self.dead = 0  # parked packets among the resident ones
        self.maxq = maxq  # (nb,)
        per = 4 if self.multi else 1
        self.best = np.full((nb * self.ln + 1) * per, -1, dtype=np.int64)

    def _local(self, g: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Batch-offset local slot id of each packet's current node."""
        return b * self.ln + (g - b * self.n - self.base)

    def occupancy(self) -> None:
        """Sample in-transit occupancy over owned nodes into ``maxq``."""
        g = self.state[0, : self.m]
        occ = np.bincount(
            self._local(g, g // self.n), minlength=self.nb * self.ln
        )[: self.nb * self.ln]
        np.maximum(
            self.maxq, occ.reshape(self.nb, self.ln).max(axis=1), out=self.maxq
        )

    def advance(self, out_up: np.ndarray, out_down: np.ndarray):
        """One arbitration + movement step over the resident packets.

        Deliveries among the winners that stayed on-shard are counted
        immediately; winners that crossed a boundary are copied into the
        ``(_N_STATE, nb * side)`` outboxes *with their post-hop state*
        for the neighbor to absorb.  Returns ``(n_up, n_down, deliveries)``
        where deliveries counts only on-shard completions per batch.
        Delivered and departed packets are parked.
        """
        m = self.m
        nb = self.nb
        stamp = self.stamp
        self.stamp += self.stride
        if m == 0:
            return 0, 0, np.zeros(nb, dtype=np.int64)
        st = self.state
        g = st[0, :m]
        rem = st[1, :m]
        remc = st[2, :m]
        pv = st[3, :m]
        drow = st[4, :m]
        ddel = st[5, :m]
        srow = st[6, :m]
        sdel = st[7, :m]

        b = g // self.n
        mc = remc > 0
        d = drow + ddel * mc
        loc = self._local(g, b)
        link = loc * 4 + d if self.multi else loc
        val = rem * self.P + pv + stamp
        best = self.best
        np.maximum.at(best, link, val)
        mv = best[link] == val

        delta = (srow + sdel * mc) * mv
        np.add(g, delta, out=g)
        np.subtract(rem, mv, out=rem)
        np.subtract(remc, mv & mc, out=remc)

        node = g - b * self.n
        up = node < self.base
        down = node >= self.base + self.ln
        crossed = up | down  # only winners can have moved off-shard
        done = mv & ~crossed & (rem == 0)
        deliveries = np.bincount(b[done], minlength=nb)

        n_up = int(np.count_nonzero(up))
        n_down = int(np.count_nonzero(down))
        if n_up:
            out_up[:, :n_up] = st[:, np.flatnonzero(up)]
        if n_down:
            out_down[:, :n_down] = st[:, np.flatnonzero(down)]

        gone = n_up + n_down + int(deliveries.sum())
        if gone:
            left = np.flatnonzero(done | crossed)
            g[left] = self.park
            pv[left] = self.parked_key
            self.dead += gone
            if self.dead * 4 >= m:
                self._compact()
        return n_up, n_down, deliveries

    def _compact(self) -> None:
        """Drop the parked packets (equivalence-neutral: arbitration is
        value-based, so resident order never matters)."""
        st = self.state
        m = self.m
        keep = st[3, :m] >= 0  # parked packets carry a negative key
        k = m - self.dead
        st[:, :k] = np.compress(keep, st[:, :m], axis=1)
        self.m = k
        self.dead = 0

    def absorb(self, inbox: np.ndarray, count: int) -> np.ndarray:
        """Take ``count`` halo packets from a neighbor's outbox.

        The receiver owns the arrival node, so it records any delivery;
        survivors append to the resident set.
        Returns per-batch deliveries among the absorbed packets.
        """
        nb = self.nb
        if count == 0:
            return np.zeros(nb, dtype=np.int64)
        rows = inbox[:, :count]
        b = rows[0] // self.n
        done = rows[1] == 0  # rem already decremented by the sender
        deliveries = np.bincount(b[done], minlength=nb)
        keep = ~done
        k = int(np.count_nonzero(keep))
        # Room is guaranteed: row movement is monotone, so a packet
        # enters and leaves a shard at most once, and the resident
        # packets (parked ones included) plus the arrivals are distinct
        # packets of the run — never more than the state's capacity.
        if k:
            self.state[:, self.m : self.m + k] = rows[:, keep]
            self.m += k
        return deliveries


def _check_cap(step: int, live: np.ndarray, caps: np.ndarray) -> None:
    """The single-shard core's livelock guard, message included."""
    stuck = live[(live > 0) & (caps <= step)]
    if stuck.size:
        raise RuntimeError(
            f"routing exceeded {step} steps; {int(stuck.sum())} stuck"
        )


class ShardedSteppingCore:
    """:class:`SteppingCore`'s routing, run as ``shards`` row-block shards.

    Parameters
    ----------
    mesh, ports
        As for :class:`SteppingCore`.
    shards : int
        Exact shard count: at least 2, and a divisor of ``mesh.side``.
    """

    def __init__(self, mesh: Mesh, ports: str = "multi", *, shards: int):
        if ports not in ("multi", "single"):
            raise ValueError(f"ports must be 'multi' or 'single', got {ports!r}")
        shards = int(shards)
        if shards < 2 or mesh.side % shards:
            raise ValueError(
                f"shards must be >= 2 and divide side {mesh.side}, got {shards}"
            )
        self.mesh = mesh
        self.ports = ports
        self.shards = shards

    def _prepare(self, batches, max_steps):
        mesh = self.mesh
        n, side = mesh.n, mesh.side
        nb = len(batches)
        sizes = np.array([len(s) for s, _ in batches], dtype=np.int64)
        if max_steps is None:
            caps = 4 * (mesh.diameter + sizes + 8)
        elif np.ndim(max_steps) == 0:
            caps = np.full(nb, int(max_steps), dtype=np.int64)
        else:
            caps = np.asarray(max_steps, dtype=np.int64)
            if caps.size != nb:
                raise ValueError("max_steps must align with batches")

        total = int(sizes.sum())
        P = int(sizes.max()) + 1 if total else 1
        S, top = _stamp_stride(mesh.diameter, P, caps)
        state = np.empty((_N_STATE, max(total, 1)), dtype=np.int64)
        counts = np.zeros(nb, dtype=np.int64)
        total_hops = np.zeros(nb, dtype=np.int64)
        paths = []
        m = 0
        for b, (src, dst) in enumerate(batches):
            src = np.asarray(src, dtype=np.int64)
            dst = np.asarray(dst, dtype=np.int64)
            sr, sc = src // side, src % side
            dr, dc = dst // side, dst % side
            paths.append((sr, sc, dr, dc))
            rc = np.abs(dc - sc)
            rr = np.abs(dr - sr)
            act = (rc + rr) > 0
            k = int(np.count_nonzero(act))
            counts[b] = k
            if k == 0:
                continue
            total_hops[b] = int((rc + rr)[act].sum())
            sl = slice(m, m + k)
            state[0, sl] = b * n + src[act]
            state[1, sl] = (rc + rr)[act]
            state[2, sl] = rc[act]
            state[3, sl] = P - 1 - np.flatnonzero(act)
            scol = np.sign(dc - sc)[act]
            srw = np.sign(dr - sr)[act]
            state[4, sl] = np.where(srw == 1, 2, 3)
            state[5, sl] = np.where(scol == 1, 0, 1) - state[4, sl]
            state[6, sl] = srw * side
            state[7, sl] = scol - state[6, sl]
            m += k
        state = state[:, :m]
        # Home shard of each packet's *source* node.
        ln = n // self.shards
        shard_of = (state[0] % n) // ln if m else np.zeros(0, dtype=np.int64)
        # Arbitration constants: priority base, stamp stride, and the
        # key of a parked packet (stamped, it stays below -1).
        keys = (P, S, -1 - top)
        return state, counts, caps, keys, total_hops, shard_of, paths

    def run(self, batches, *, max_steps=None):
        """Advance every batch to completion; see :meth:`SteppingCore.run`.

        The shards advance one after another in this process, in
        lockstep: every shard steps, then every shard absorbs its
        neighbors' halo packets.
        """
        nb = len(batches)
        if nb == 0:
            return []
        state, counts, caps, keys, total_hops, shard_of, paths = self._prepare(
            batches, max_steps
        )
        S = self.shards
        n, side = self.mesh.n, self.mesh.side
        cap = max(1, state.shape[1])
        shard_states = []
        for s in range(S):
            sel = shard_of == s
            k = int(np.count_nonzero(sel))
            local = np.empty((_N_STATE, cap), dtype=np.int64)
            local[:, :k] = state[:, sel]
            st = _ShardState(
                s, S, n, side, nb, self.ports, *keys,
                state=local,
                maxq=np.zeros(nb, dtype=np.int64),
            )
            st.m = k
            shard_states.append(st)

        outbox = np.empty((S, 2, _N_STATE, nb * side), dtype=np.int64)
        obcount = np.zeros((S, 2), dtype=np.int64)
        steps_out = np.zeros(nb, dtype=np.int64)
        live = counts.copy()
        step = 0
        cap_min = int(caps[live > 0].min()) if live.sum() else 0
        while live.sum():
            if step >= cap_min:
                _check_cap(step, live, caps)
            for st in shard_states:
                st.occupancy()
            deliveries = np.zeros(nb, dtype=np.int64)
            for s, st in enumerate(shard_states):
                n_up, n_down, db = st.advance(outbox[s, 0], outbox[s, 1])
                obcount[s, 0] = n_up
                obcount[s, 1] = n_down
                deliveries += db
            for s, st in enumerate(shard_states):
                if s > 0:
                    deliveries += st.absorb(
                        outbox[s - 1, 1], int(obcount[s - 1, 1])
                    )
                if s < S - 1:
                    deliveries += st.absorb(
                        outbox[s + 1, 0], int(obcount[s + 1, 0])
                    )
            step += 1
            finished = (live > 0) & (live == deliveries)
            steps_out[finished] = step
            live -= deliveries
            if not live.sum():
                break
            cap_min = int(caps[live > 0].min())
        maxq = np.zeros(nb, dtype=np.int64)
        for st in shard_states:
            np.maximum(maxq, st.maxq, out=maxq)
        return [
            RouteResult(
                int(steps_out[b]),
                int(total_hops[b]),
                int(maxq[b]),
                partial(xy_path_traffic, side, *paths[b]),
            )
            for b in range(nb)
        ]
