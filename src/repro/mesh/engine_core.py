"""Vectorized stepping core for the synchronous engine.

The seed engine re-derived every per-packet quantity (coordinates,
desired direction, remaining distance) from scratch each synchronous
step and resolved link arbitration with a 3-key ``np.lexsort`` over the
full packet set.  This module replaces that hot loop with one stepping
core that

* keeps a *compacted* active working set — delivered packets are parked
  and then dropped from the arrays instead of masked out, so per-step
  cost tracks the number of packets still in flight;
* carries the routing state of the packet's *current phase*: its link
  id (node and direction code packed as ``4 * node + direction``), the
  link-id delta of one hop, and the composite key of its next event.  A
  step moves the winners with one multiply-add; only the packets whose
  column phase ended this step get their direction and delta switched,
  by a small scatter over their indices;
* resolves farthest-first arbitration with a **bucketed link-key
  max-scatter** over a preallocated bucket array (one slot per directed
  link) instead of sorting: each active packet carries the composite
  key ``remaining * P + (P - 1 - index)`` and scatters it into its
  link's bucket with ``np.maximum.at``; the packets that read their own
  value back are the winners.  The composite makes "max remaining
  distance, ties by lower packet index" a single integer max — the same
  winner the seed's ``lexsort((idx, -remaining, link))`` chose;
* **step-stamps** the scattered value (``key + step * S``, ``S`` above
  every key), so a bucket's value from an earlier step always loses and
  the buckets are reset once per run, not once per step;
* advances *several independent batches* in one loop (`run` takes a
  list): each batch gets a disjoint slab of the bucket space, so batches
  never interact, while the Python-level loop overhead is paid once;
* sets those batches up in **groups**: consecutive batches of together
  at most ``_SETUP_GROUP`` (16,384) packets, a larger batch alone, are
  concatenated and derive their coordinates, keys, links, hops and
  events in one vectorised pass, so a call of many small batches (an
  access-protocol window's legs) pays about 25 NumPy calls per group
  rather than per batch.  A group's temporaries stay within a 2 MB L2;
  one pass over a whole 3 x 16,384-packet call was slower.

Per-node traffic is not counted in the loop.  Whatever the arbitration
decides, every packet follows its fixed XY path, so the hops into each
node are a function of the batch alone: :func:`xy_path_traffic`
computes them in closed form, and a :class:`RouteResult` runs it only
when ``node_traffic`` is first read.

All large buffers (the link buckets, the per-packet state, the step
scratch) are owned by the :class:`SteppingCore` and reused across calls;
compaction ping-pongs between two preallocated buffer sets via
``np.compress(..., out=...)``.

Queue-occupancy accounting: occupancy is sampled **every step** over
**in-transit packets only** — a packet parked at its destination has
left the network and holds no queue slot.

:func:`reference_route` preserves the seed engine's per-step algorithm
(mask + 3-key lexsort, per-step traffic) as the independent oracle for
the golden-equivalence tests and the ``benchmarks/test_perf_engine.py``
speedup measurement.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.mesh.topology import Mesh

__all__ = ["RouteResult", "SteppingCore", "reference_route", "xy_path_traffic"]

_INT64_MAX = int(np.iinfo(np.int64).max)

# Per-packet int64 state carried across steps, in ping-pong slot order:
# link  4 * (batch-offset node id) + direction code (0=E, 1=W, 2=S, 3=N)
# key   composite arbitration key  remaining * P + (P - 1 - index)
# hop   link delta of one hop in the current phase (4 * node delta)
# event key at the packet's next event: the end of its column phase
#       (remaining == row distance) or its delivery (remaining == 0)
# rowhop  link delta of one row-phase hop (+-4 * side), used at the turn
_N_STATE = 5

#: Consecutive batches are set up together, one vectorised pass per
#: group of at most this many packets (a larger batch is its own group):
#: the per-batch NumPy calls of a many-batch call are paid once per
#: group, and a group's temporaries stay within a 2 MB L2 cache.
_SETUP_GROUP = 16_384


def _stamp_stride(diameter: int, P: int, caps: np.ndarray) -> tuple[int, int]:
    """The step-stamp stride ``S`` and the largest stamp ``max(caps) * S``.

    Every key ``remaining * P + (P - 1 - index)`` is below
    ``S = (diameter + 1) * P``, so when step ``t`` scatters
    ``key + t * S`` a value left in a bucket by an earlier step is below
    every value of step ``t``.  Raises ``ValueError`` when the largest
    stamp would overflow int64.
    """
    S = (diameter + 1) * P
    top = max(int(caps.max()), 1) * S
    if top > _INT64_MAX:
        raise ValueError(
            f"step cap {int(caps.max())} times stamp stride {S} "
            "overflows int64"
        )
    return S, top


def xy_path_traffic(side: int, sr, sc, dr, dc) -> np.ndarray:
    """Hops into each node when every packet follows its XY path.

    A packet at ``(sr, sc)`` bound for ``(dr, dc)`` first walks row
    ``sr`` to column ``dc``, then column ``dc`` to row ``dr``, entering
    every node of that path but its source.  Each walk is an interval of
    one mesh line, so per-line difference arrays (one ``+1`` where the
    interval starts, one ``-1`` past its end) and a cumulative sum give
    the per-node totals in O(packets + n).  Returns the row-major int64
    array of length ``side * side``.
    """
    width = side + 1

    def entered(line, start, stop):
        # Cells of `line` entered walking from `start` to `stop`: the
        # interval (start, stop] or [stop, start).
        walks = start != stop
        line, start, stop = line[walks], start[walks], stop[walks]
        lo = np.minimum(start, stop) + (stop > start)
        hi = np.maximum(start, stop) - (stop < start)
        diff = np.bincount(line * width + lo, minlength=side * width)
        diff -= np.bincount(line * width + hi + 1, minlength=side * width)
        return np.cumsum(diff.reshape(side, width), axis=1)[:, :side]

    traffic = entered(sr, sc, dc)  # [row, col]: the column phase
    traffic += entered(dc, sr, dr).T  # [col, row]: the row phase
    return traffic.reshape(-1)


class RouteResult:
    """Outcome of routing one batch.

    Attributes
    ----------
    steps : int
        Synchronous steps until the last packet arrived.
    total_hops : int
        Sum over packets of hops traversed (= total link-step usage).
    max_queue : int
        Largest number of **in-transit** packets co-resident at one node
        at the start of any step, a proxy for buffer pressure.  Packets
        already parked at their destination have left the network and
        are not counted; occupancy is sampled every step, so transient
        peaks are never missed.  (Both properties fix seed-engine bugs:
        it sampled every 8th step only and counted delivered packets.)
    node_traffic : np.ndarray
        Hops *into* each node over the whole run — the congestion map
        (rendered by :func:`repro.mesh.viz.load_heatmap`).  An int64
        array of length ``n`` (empty when the result was built without
        one).  The stepping core passes a function of the batch's XY
        paths (:func:`xy_path_traffic`) instead of an array; it runs on
        the first read and its array is kept, so callers that never read
        the map never pay for it.
    """

    __slots__ = ("steps", "total_hops", "max_queue", "_traffic")

    def __init__(self, steps: int, total_hops: int, max_queue: int, node_traffic=None):
        self.steps = steps
        self.total_hops = total_hops
        self.max_queue = max_queue
        # An ndarray, a zero-argument function returning one, or None.
        self._traffic = node_traffic

    @property
    def node_traffic(self) -> np.ndarray:
        traffic = self._traffic
        if traffic is None:
            traffic = np.zeros(0, dtype=np.int64)
        elif callable(traffic):
            traffic = traffic()
        self._traffic = traffic
        return traffic

    def __repr__(self) -> str:
        return (
            f"RouteResult(steps={self.steps}, total_hops={self.total_hops}, "
            f"max_queue={self.max_queue})"
        )


class SteppingCore:
    """Reusable stepping state for one ``(mesh, ports)`` configuration.

    Owns the grow-only scratch buffers; a :class:`SynchronousEngine`
    keeps one instance and funnels every ``route``/``route_many`` call
    through it, so repeated routing (protocol stages, benchmark sweeps)
    never reallocates the hot-loop arrays.
    """

    def __init__(self, mesh: Mesh, ports: str = "multi"):
        if ports not in ("multi", "single"):
            raise ValueError(f"ports must be 'multi' or 'single', got {ports!r}")
        self.mesh = mesh
        self.ports = ports
        self._cap = 0  # per-packet buffer capacity
        self._nbuckets = 0  # link-bucket capacity
        self._state: list[list[np.ndarray]] = [[], []]
        self._scratch: dict[str, np.ndarray] = {}
        self._best = np.empty(0, dtype=np.int64)

    # -- buffer management -------------------------------------------------

    def _ensure_capacity(self, npkt: int, nbatches: int) -> int:
        """Grow the buffers to ``npkt`` packets and ``nbatches`` batches;
        returns the number of link buckets this run uses."""
        per_node = 4 if self.ports == "multi" else 1
        # +1 node: the shared parking slot delivered packets idle in
        # between lazy compactions.
        nbuckets = (nbatches * self.mesh.n + 1) * per_node
        if nbuckets > self._nbuckets:
            # Release the outgrown buffer before allocating the bigger
            # one, so peak RSS never holds both generations at once.
            self._best = np.empty(0, dtype=np.int64)
            self._best = np.empty(nbuckets, dtype=np.int64)
            self._nbuckets = nbuckets
        if npkt > self._cap:
            # Same release-first discipline for the big per-packet
            # generations: drop the old state/scratch arrays *before*
            # allocating the grown ones (growth is copy-free — every
            # run refills the state from its batches — so nothing needs
            # both generations live, and holding them doubled the
            # transient footprint of every growth).
            self._state = [[], []]
            self._scratch = {}
            self._state = [
                [np.empty(npkt, dtype=np.int64) for _ in range(_N_STATE)]
                for _ in range(2)
            ]
            self._scratch = {
                "node": np.empty(npkt, dtype=np.int64),
                "val": np.empty(npkt, dtype=np.int64),
                "got": np.empty(npkt, dtype=np.int64),
                "tmp": np.empty(npkt, dtype=np.int64),
                "flag": np.empty(npkt, dtype=bool),
            }
            self._cap = npkt
        return nbuckets

    # -- main loop ---------------------------------------------------------

    def run(
        self,
        batches,
        *,
        max_steps=None,
        observer=None,
        occupancy=None,
    ) -> list[RouteResult]:
        """Advance every batch to completion in one stepping loop.

        Parameters
        ----------
        batches : sequence of (src, dst) int64 array pairs
            Independent routing problems.  Batches do not interact: each
            gets its own slab of the link-bucket space, so the measured
            ``steps`` of batch ``b`` is identical to running it alone.
        max_steps : int, sequence of int, or None
            Per-batch livelock guard (seed formula when None).
        observer : callable, optional
            Called once per step *before* packets move with a dict of
            copies (step, starts, counts, node, direction, remaining,
            pri, winners) — the hook the invariant checker uses.  The
            hot loop pays nothing when it is None.
        occupancy : callable, optional
            Called once per step with the in-transit per-node occupancy
            vector (length ``nbatches * n``, the same array the
            ``max_queue`` sampling reads) — the observability layer's
            queue-histogram hook.  Like ``observer``, a ``None`` costs
            the loop a single predictable branch per step.

        Returns
        -------
        list[RouteResult], aligned with ``batches``.  Each result's
        ``node_traffic`` is derived from the batch's XY paths on first
        read; later changes to the caller's arrays do not affect it.

        Raises
        ------
        RuntimeError
            When a batch is still undelivered after its step cap.
        ValueError
            When the largest step cap times the stamp stride would
            overflow int64 (the stamped arbitration values must fit).
        """
        mesh = self.mesh
        n, side = mesh.n, mesh.side
        multi = self.ports == "multi"
        nb = len(batches)
        if nb == 0:
            return []

        sizes = np.array([len(s) for s, _ in batches], dtype=np.int64)
        if any(len(d) != size for (_, d), size in zip(batches, sizes)):
            raise ValueError("every batch needs as many destinations as sources")
        if max_steps is None:
            caps = 4 * (mesh.diameter + sizes + 8)
        elif np.ndim(max_steps) == 0:
            caps = np.full(nb, int(max_steps), dtype=np.int64)
        else:
            caps = np.asarray(max_steps, dtype=np.int64)
            if caps.size != nb:
                raise ValueError("max_steps must align with batches")

        # Arbitration priority base: any bound > every per-batch index.
        P = int(sizes.max()) + 1
        S, top = _stamp_stride(mesh.diameter, P, caps)
        # Parked packets carry this key: stamped, it stays below the -1
        # the buckets start at, so they never win and never move.
        parked_key = -1 - top

        total = int(sizes.sum())
        nbuckets = self._ensure_capacity(max(total, 1), nb)
        cur = self._state[0]
        alt = self._state[1]
        link, key, hop, event, rowhop = cur

        counts = np.zeros(nb, dtype=np.int64)  # in-flight packets per batch
        total_hops = np.zeros(nb, dtype=np.int64)
        steps_out = np.zeros(nb, dtype=np.int64)
        maxq = np.zeros(nb, dtype=np.int64)
        paths = []

        # Set-up: one vectorised pass per group of consecutive batches
        # (at least one, at most _SETUP_GROUP packets unless one batch
        # is larger), written batch-major into the state arrays.
        ends = np.cumsum(sizes)
        m = 0
        first = 0
        while first < nb:
            base = int(ends[first] - sizes[first])
            last = max(
                first + 1,
                int(np.searchsorted(ends, base + _SETUP_GROUP, side="right")),
            )
            # A batch alone needs no concatenation and no per-packet
            # batch offsets, so a large batch costs what it did alone.
            alone = last - first == 1
            if alone:
                src, dst = (np.asarray(a, dtype=np.int64) for a in batches[first])
            else:
                group = batches[first:last]
                src = np.concatenate([np.asarray(s, dtype=np.int64) for s, _ in group])
                dst = np.concatenate([np.asarray(d, dtype=np.int64) for _, d in group])
            sr, sc = np.divmod(src, side)
            dr, dc = np.divmod(dst, side)
            # Each batch's packets, as offsets into the group.
            bounds = np.concatenate(([0], ends[first:last] - base))
            for b in range(first, last):
                view = slice(bounds[b - first], bounds[b - first + 1])
                paths.append((sr[view], sc[view], dr[view], dc[view]))
            cols = dc - sc
            rows = dr - sr
            dist = np.abs(cols) + np.abs(rows)
            act = np.flatnonzero(dist)
            active = np.diff(np.searchsorted(act, bounds))
            counts[first:last] = active
            k = act.size
            if k:
                cols, rows, dist = cols[act], rows[act], dist[act]
                # Hops per batch: sums over its (contiguous) active packets.
                moving = active > 0
                total_hops[first:last][moving] = np.add.reduceat(
                    dist, (np.cumsum(active) - active)[moving]
                )
                sl = slice(m, m + k)
                # pv = P - 1 - (index within the packet's batch); slab =
                # the batch's node-id offset b * n in the bucket space.
                if alone:
                    pv, slab = (P - 1) - act, first * n
                else:
                    pv = np.repeat(bounds[:-1] + (P - 1), active) - act
                    slab = np.repeat(np.arange(first, last) * n, active)
                key[sl] = dist * P + pv
                rowhop[sl] = np.sign(rows) * (4 * side)
                incol = cols != 0
                direction = np.where(
                    incol, np.where(cols > 0, 0, 1), np.where(rows > 0, 2, 3)
                )
                link[sl] = 4 * (slab + src[act]) + direction
                hop[sl] = np.where(incol, 4 * np.sign(cols), rowhop[sl])
                event[sl] = np.where(incol & (rows != 0), np.abs(rows) * P + pv, pv)
                m += k
            first = last

        best = self._best[:nbuckets]
        best.fill(-1)
        sc_ = self._scratch
        step = 0
        stamp = 0  # step * S
        live = m  # undelivered packets across all batches
        dead = 0  # delivered packets still parked in the arrays
        # seg_end[b]: end of batch b's segment in the arrays, including
        # parked dead packets; collapses to the live counts at each
        # compaction.
        seg_end = np.cumsum(counts)
        park = nb * n  # sacrificial node id delivered packets idle at
        cap_min = int(caps[counts > 0].min()) if live else 0
        # Delivered packets are dropped lazily: they are parked (moved
        # to the sacrificial node, excluded from occupancy, keyed so they
        # never win) and physically compacted out only once they exceed
        # a quarter of the working set — so the per-step cost of the
        # state copy is amortized, and all views over the state arrays
        # are rebuilt only when m changes.  The observer path compacts
        # eagerly so step records never contain corpses.
        eager = observer is not None

        def _views(m):
            return (
                link[:m], key[:m], hop[:m], event[:m],
                sc_["node"][:m], sc_["val"][:m], sc_["got"][:m],
                sc_["tmp"][:m], sc_["flag"][:m],
            )

        lk, ky, hp, ev, node, val, got, tmp, flag = _views(m)
        while live:
            if step >= cap_min:
                stuck = counts[(counts > 0) & (caps <= step)]
                if stuck.size:
                    raise RuntimeError(
                        f"routing exceeded {step} steps; {int(stuck.sum())} stuck"
                    )
            # In-transit queue occupancy, sampled at the top of every
            # step (covers the initial placement at step 0); parked
            # packets sit at `park`, beyond the counted slots.
            np.right_shift(lk, 2, out=node)
            occ = np.bincount(node, minlength=nb * n)[: nb * n]
            if occupancy is not None:
                occupancy(occ)
            if nb == 1:
                q = int(occ.max())
                if q > maxq[0]:
                    maxq[0] = q
            else:
                np.maximum(maxq, occ.reshape(nb, n).max(axis=1), out=maxq)

            # Farthest-first arbitration: the stamped key of every packet
            # goes into its link's bucket (its node's, single-port); the
            # packets that read their own value back won the link.
            bucket = lk if multi else node
            np.add(ky, stamp, out=val)
            np.maximum.at(best, bucket, val)
            # mode="clip" skips the buffered bounds check of "raise";
            # every bucket index is in range by construction.
            np.take(best, bucket, out=got, mode="clip")
            np.equal(got, val, out=flag)

            if observer is not None:
                starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
                observer(
                    {
                        "step": step,
                        "starts": starts,
                        "counts": counts.copy(),
                        "node": node % n,
                        "direction": lk & 3,
                        "remaining": ky // P,
                        "pri": P - 1 - ky % P,
                        "winners": flag.copy(),
                    }
                )

            # Advance the winners one hop; each hop costs P of key.
            np.multiply(hp, flag, out=tmp)
            np.add(lk, tmp, out=lk)
            np.multiply(flag, P, out=tmp)
            np.subtract(ky, tmp, out=ky)
            step += 1
            stamp += S

            # Only a packet that just moved can reach its event key.
            np.equal(ky, ev, out=flag)
            hit = np.flatnonzero(flag)
            if not hit.size:
                continue
            hit_key = ky[hit]
            arrived = hit_key < P  # remaining == 0
            turned = hit[~arrived]
            if turned.size:
                # Column phase over: switch to the row direction, whose
                # next event is delivery.
                row_hop = rowhop[turned]
                lk[turned] = (lk[turned] & ~3) | np.where(row_hop > 0, 2, 3)
                hp[turned] = row_hop
                ev[turned] = hit_key[~arrived] % P
            done = hit[arrived]
            if not done.size:
                continue
            delivered = np.bincount(
                np.searchsorted(seg_end, done, side="right"), minlength=nb
            )
            counts -= delivered
            steps_out[(counts == 0) & (delivered > 0)] = step
            live -= done.size
            dead += done.size
            if live == 0:
                break
            # Park the fresh corpses at the sacrificial node.
            lk[done] = 4 * park
            ky[done] = parked_key
            cap_min = int(caps[counts > 0].min())
            if eager or dead * 4 >= m:
                np.greater_equal(ky, 0, out=flag)  # not parked
                for i in range(_N_STATE):
                    np.compress(flag, cur[i][:m], out=alt[i][:live])
                cur, alt = alt, cur
                link, key, hop, event, rowhop = cur
                m = live
                dead = 0
                seg_end = np.cumsum(counts)
                lk, ky, hp, ev, node, val, got, tmp, flag = _views(m)

        return [
            RouteResult(
                int(steps_out[b]),
                int(total_hops[b]),
                int(maxq[b]),
                partial(xy_path_traffic, side, *paths[b]),
            )
            for b in range(nb)
        ]


def reference_route(mesh: Mesh, src, dst, *, ports: str = "multi", max_steps=None):
    """The seed engine's per-step algorithm, kept as the golden reference.

    Re-derives every quantity from the coordinate arrays each step and
    arbitrates with the original 3-key lexsort.  Returns
    ``(steps, total_hops, node_traffic)`` — the step-count-preserving
    contract the refactored core must reproduce exactly.  (The seed's
    ``max_queue`` accounting is deliberately *not* reproduced: it was
    the bug this refactor fixes.)
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    npkt = src.size
    if npkt == 0:
        return 0, 0, np.zeros(mesh.n, dtype=np.int64)
    if max_steps is None:
        max_steps = 4 * (mesh.diameter + npkt + 8)
    side = mesh.side
    cur_row, cur_col = src // side, src % side
    dst_row, dst_col = dst // side, dst % side
    cur_row = cur_row.copy()
    cur_col = cur_col.copy()
    steps = 0
    total_hops = 0
    node_traffic = np.zeros(mesh.n, dtype=np.int64)
    active = (cur_row != dst_row) | (cur_col != dst_col)
    idx_all = np.arange(npkt, dtype=np.int64)
    while np.any(active):
        if steps >= max_steps:
            raise RuntimeError(
                f"routing exceeded {max_steps} steps; {active.sum()} stuck"
            )
        act = idx_all[active]
        r, c = cur_row[act], cur_col[act]
        dr, dc = dst_row[act], dst_col[act]
        move_col = dc != c
        step_c = np.where(move_col, np.sign(dc - c), 0)
        step_r = np.where(move_col, 0, np.sign(dr - r))
        direction = np.where(
            step_c == 1, 0,
            np.where(step_c == -1, 1, np.where(step_r == 1, 2, 3)),
        )
        node = r * side + c
        if ports == "multi":
            link = node * 4 + direction
        else:
            link = node
        remaining = np.abs(dr - r) + np.abs(dc - c)
        order = np.lexsort((act, -remaining, link))
        sorted_link = link[order]
        first = np.ones(sorted_link.size, dtype=bool)
        first[1:] = sorted_link[1:] != sorted_link[:-1]
        winners = act[order[first]]
        wr = cur_row[winners]
        wc = cur_col[winners]
        wdc = dst_col[winners]
        mc = wdc != wc
        cur_col[winners] = np.where(mc, wc + np.sign(wdc - wc), wc)
        cur_row[winners] = np.where(mc, wr, wr + np.sign(dst_row[winners] - wr))
        np.add.at(node_traffic, cur_row[winners] * side + cur_col[winners], 1)
        total_hops += winners.size
        steps += 1
        active[winners] = (cur_row[winners] != dst_row[winners]) | (
            cur_col[winners] != dst_col[winners]
        )
    return steps, total_hops, node_traffic
