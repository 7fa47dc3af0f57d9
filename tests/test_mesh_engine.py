"""Tests for the cycle-accurate routing engine, sorting and routing strategies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import (
    Mesh,
    PacketBatch,
    SteppingCore,
    SynchronousEngine,
    Tessellation,
    reference_route,
    route_direct,
    route_via_submeshes,
    shearsort,
    shearsort_steps,
    snake_order,
)
from repro.util.grouping import rank_within_groups


class TestPacketBatch:
    def test_lengths_validated(self):
        with pytest.raises(ValueError):
            PacketBatch(np.array([1, 2]), np.array([3]))

    def test_default_tags(self):
        batch = PacketBatch(np.array([0, 1]), np.array([2, 3]))
        np.testing.assert_array_equal(batch.tag, [0, 1])

    def test_tag_is_always_ndarray(self):
        """__post_init__ contract: tag is a real array after init, even
        when the caller omitted it or passed a list."""
        for batch in (
            PacketBatch(np.array([0, 1]), np.array([2, 3])),
            PacketBatch(np.array([0, 1]), np.array([2, 3]), [5, 6]),
            PacketBatch(np.zeros(0), np.zeros(0)),
        ):
            assert isinstance(batch.tag, np.ndarray)
            assert batch.tag.dtype == np.int64
            assert batch.tag.shape == batch.src.shape

    def test_empty_batch_round_trips(self):
        empty = PacketBatch(np.zeros(0), np.zeros(0))
        rev = empty.reversed()
        assert len(rev) == 0 and isinstance(rev.tag, np.ndarray)
        res = SynchronousEngine(Mesh(4)).route(rev)
        assert res.steps == 0 and res.max_queue == 0
        assert isinstance(res.node_traffic, np.ndarray)
        assert res.node_traffic.shape == (16,) and res.node_traffic.sum() == 0

    def test_reversed_preserves_tags(self):
        batch = PacketBatch(np.array([0, 1]), np.array([2, 3]), np.array([9, 8]))
        rev = batch.reversed()
        np.testing.assert_array_equal(rev.tag, [9, 8])
        # Round trip restores the original batch.
        back = rev.reversed()
        np.testing.assert_array_equal(back.src, batch.src)
        np.testing.assert_array_equal(back.dst, batch.dst)
        np.testing.assert_array_equal(back.tag, batch.tag)

    def test_l1_l2(self):
        batch = PacketBatch(np.array([0, 0, 1]), np.array([2, 2, 2]))
        assert batch.max_per_source() == 2
        assert batch.max_per_destination() == 3

    def test_reversed(self):
        batch = PacketBatch(np.array([0, 1]), np.array([2, 3]))
        rev = batch.reversed()
        np.testing.assert_array_equal(rev.src, [2, 3])
        np.testing.assert_array_equal(rev.dst, [0, 1])


class TestEngine:
    def test_empty_batch(self):
        res = SynchronousEngine(Mesh(4)).route(PacketBatch(np.zeros(0), np.zeros(0)))
        assert res.steps == 0

    def test_single_packet_takes_distance_steps(self):
        mesh = Mesh(8)
        res = SynchronousEngine(mesh).route(
            PacketBatch(np.array([0]), np.array([mesh.n - 1]))
        )
        assert res.steps == mesh.diameter
        assert res.total_hops == mesh.diameter

    def test_already_delivered(self):
        mesh = Mesh(4)
        res = SynchronousEngine(mesh).route(PacketBatch(np.array([5]), np.array([5])))
        assert res.steps == 0

    def test_permutation_routing_delivers(self):
        mesh = Mesh(8)
        rng = np.random.default_rng(0)
        dst = rng.permutation(mesh.n)
        res = SynchronousEngine(mesh).route(PacketBatch(np.arange(mesh.n), dst))
        assert res.steps >= 1
        # Permutation routing is at most ~3x diameter for greedy XY on 8x8.
        assert res.steps <= 4 * mesh.diameter

    def test_steps_at_least_max_distance(self):
        mesh = Mesh(8)
        rng = np.random.default_rng(3)
        src = rng.integers(0, mesh.n, 40)
        dst = rng.integers(0, mesh.n, 40)
        res = SynchronousEngine(mesh).route(PacketBatch(src, dst))
        assert res.steps >= int(mesh.distance(src, dst).max())

    def test_hotspot_serializes(self):
        """All packets to one node: the node receives <= 4 per step, so
        steps >= ceil(P/4) — the contention the HMOS exists to avoid."""
        mesh = Mesh(8)
        src = np.arange(mesh.n - 1)
        dst = np.full(mesh.n - 1, mesh.n - 1)
        res = SynchronousEngine(mesh).route(PacketBatch(src, dst))
        assert res.steps >= (mesh.n - 1) // 4

    def test_max_steps_guard(self):
        mesh = Mesh(4)
        with pytest.raises(RuntimeError):
            SynchronousEngine(mesh).route(
                PacketBatch(np.array([0]), np.array([15])), max_steps=2
            )

    def test_max_queue_counts_in_transit_peak_every_step(self):
        """Regression for the queue-occupancy accounting bug.

        Four packets from row 3 (columns 2, 3, 5, 6) all target node
        (7, 4).  The two inner packets reach (3, 4) after one step and
        contend for the south link; at the start of step 2 the loser is
        joined by both outer packets — a true in-transit peak of THREE
        at (3, 4), on a step that is not a multiple of 8.

        The seed engine reported 4: it sampled occupancy only on steps
        divisible by 8 (plus the final step), where the in-flight peak
        had already drained, and its bincount included the packets
        already parked at the shared destination (7, 4).
        """
        mesh = Mesh(8)
        src = mesh.node_id(np.array([3, 3, 3, 3]), np.array([2, 3, 5, 6]))
        dst = np.full(4, int(mesh.node_id(7, 4)))
        res = SynchronousEngine(mesh).route(PacketBatch(src, dst))
        assert res.max_queue == 3

    def test_max_queue_ignores_packets_parked_at_destination(self):
        """A packet whose src == dst never occupies a queue slot."""
        mesh = Mesh(8)
        # One mover plus three packets already home at the mover's dst.
        src = np.array([0, 9, 9, 9], dtype=np.int64)
        dst = np.array([9, 9, 9, 9], dtype=np.int64)
        res = SynchronousEngine(mesh).route(PacketBatch(src, dst))
        assert res.max_queue == 1

    def test_max_queue_counts_initial_placement(self):
        """Several undelivered packets stacked on one source node are
        queue pressure from step 0."""
        mesh = Mesh(8)
        src = np.zeros(5, dtype=np.int64)
        dst = np.arange(1, 6, dtype=np.int64)
        res = SynchronousEngine(mesh).route(PacketBatch(src, dst))
        assert res.max_queue == 5

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60))
    def test_random_batches_always_deliver(self, seed, count):
        mesh = Mesh(8)
        rng = np.random.default_rng(seed)
        src = rng.integers(0, mesh.n, count)
        dst = rng.integers(0, mesh.n, count)
        res = SynchronousEngine(mesh).route(PacketBatch(src, dst))
        lower = int(mesh.distance(src, dst).max()) if count else 0
        assert res.steps >= lower
        assert res.total_hops == int(mesh.distance(src, dst).sum())

    def test_livelock_message(self):
        """The guard names the step it gave up at and the packets still
        undelivered in the batches whose cap ran out."""
        mesh = Mesh(8)
        batches = _random_batches(np.random.default_rng(13), mesh.n, (115, 41))
        for max_steps, message in (
            (2, "routing exceeded 2 steps; 139 stuck"),
            ([2, 500], "routing exceeded 2 steps; 104 stuck"),
            ([500, 3], "routing exceeded 3 steps; 33 stuck"),
        ):
            with pytest.raises(RuntimeError) as exc:
                SteppingCore(mesh).run(batches, max_steps=max_steps)
            assert str(exc.value) == message

    def test_node_traffic_ignores_later_batch_changes(self):
        """The congestion map is derived on first read, from arrays the
        core owns: changing the batch after routing changes nothing."""
        mesh = Mesh(8)
        rng = np.random.default_rng(4)
        src = rng.integers(0, mesh.n, 100)
        dst = rng.integers(0, mesh.n, 100)
        _, _, expected = reference_route(mesh, src, dst)
        batch = PacketBatch(src.copy(), dst.copy())
        res = SynchronousEngine(mesh).route(batch)
        batch.src[:] = 0
        batch.dst[:] = mesh.n - 1
        np.testing.assert_array_equal(res.node_traffic, expected)

    def test_occupancy_hook_counts_the_observed_packets(self):
        """Each step's occupancy vector is the per-node count of the
        in-transit packets the observer sees at that step."""
        mesh = Mesh(8)
        batches = _random_batches(np.random.default_rng(6), mesh.n, (150, 9, 60))
        occupancy, observed = [], []
        SteppingCore(mesh).run(
            batches,
            observer=observed.append,
            occupancy=lambda occ: occupancy.append(occ.copy()),
        )
        assert len(occupancy) == len(observed) > 0
        for occ, rec in zip(occupancy, observed):
            batch = np.repeat(np.arange(len(batches)), rec["counts"])
            node = batch * mesh.n + rec["node"]
            np.testing.assert_array_equal(
                occ, np.bincount(node, minlength=len(batches) * mesh.n)
            )


def _assert_results_equal(ref, got):
    assert len(ref) == len(got)
    for r, g in zip(ref, got):
        assert (r.steps, r.total_hops, r.max_queue) == (
            g.steps, g.total_hops, g.max_queue,
        )
        np.testing.assert_array_equal(r.node_traffic, g.node_traffic)


def _random_batches(rng, n, counts):
    return [(rng.integers(0, n, k), rng.integers(0, n, k)) for k in counts]


class TestStampedBuckets:
    """The link buckets are reset once per run; within a run every value
    carries its step's stamp, so a value left by an earlier step (or an
    earlier run) can never win."""

    @pytest.mark.parametrize("ports", ["multi", "single"])
    def test_reused_core_matches_fresh_core(self, ports):
        mesh = Mesh(8)
        core = SteppingCore(mesh, ports)
        rng = np.random.default_rng(37)
        # Packet and batch counts grow and shrink between runs, so each
        # run reuses bucket and state slots an earlier, longer or wider,
        # run wrote.
        for counts in (
            (300,), (5, 200, 0, 70), (12,), (400, 400), (1,), (90, 3, 150),
        ):
            batches = _random_batches(rng, mesh.n, counts)
            fresh = SteppingCore(mesh, ports).run(batches)
            _assert_results_equal(fresh, core.run(batches))

    def test_long_single_port_run_after_reuse(self):
        """A single-port hot spot runs for hundreds of steps, far beyond
        the runs before and after it on the same core."""
        mesh = Mesh(8)
        core = SteppingCore(mesh, "single")
        rng = np.random.default_rng(41)
        short = _random_batches(rng, mesh.n, (64, 20))
        hot = [(np.repeat(np.arange(mesh.n), 4), np.zeros(4 * mesh.n, np.int64))]
        for batches in (short, hot, short, hot):
            fresh = SteppingCore(mesh, "single").run(batches)
            _assert_results_equal(fresh, core.run(batches))
        # The corner node 0 has two neighbours, so it takes in at most
        # two of the 4n - 4 packets bound for it per step.
        assert fresh[0].steps >= (4 * mesh.n - 4) // 2
        _, _, traffic = reference_route(mesh, *hot[0], ports="single")
        np.testing.assert_array_equal(fresh[0].node_traffic, traffic)

    def test_stamp_overflow_rejected(self):
        """A step cap whose stamped values would not fit in int64 is
        refused up front instead of wrapping around mid-run."""
        mesh = Mesh(4)
        core = SteppingCore(mesh)
        batch = [(np.array([0, 1]), np.array([15, 14]))]
        # P = 3 and S = (diameter + 1) * P = 21: the largest cap that
        # still fits is floor((2**63 - 1) / 21).
        fits = (2**63 - 1) // 21
        (res,) = core.run(batch, max_steps=fits)
        assert res.steps == mesh.diameter
        with pytest.raises(ValueError, match="overflows int64"):
            core.run(batch, max_steps=fits + 1)
        with pytest.raises(ValueError, match="overflows int64"):
            core.run(batch + batch, max_steps=[50, fits + 1])


class TestShearsort:
    def test_snake_order_shape(self):
        order = snake_order(4)
        assert order.tolist() == [0, 1, 2, 3, 7, 6, 5, 4, 8, 9, 10, 11, 15, 14, 13, 12]

    @pytest.mark.parametrize("side", [2, 4, 8, 16])
    def test_sorts_random(self, side):
        mesh = Mesh(side)
        rng = np.random.default_rng(side)
        vals = rng.integers(0, 1000, mesh.n)
        sorted_vals, steps = shearsort(mesh, vals)
        # Reading in snake order must give a sorted sequence.
        snake = sorted_vals[snake_order(side)]
        np.testing.assert_array_equal(snake, np.sort(vals))
        assert steps == shearsort_steps(side)

    def test_steps_scaling(self):
        # O(sqrt(n) log n): doubling the side roughly doubles steps (x ~2.?)
        assert shearsort_steps(32) < 3 * shearsort_steps(16)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            shearsort(Mesh(4), np.arange(5))

    def test_wrong_size_message(self):
        """The intended validation fires (it used to be shadowed by the
        reshape raising first, making the error message unreachable)."""
        with pytest.raises(ValueError, match="need exactly 16 values"):
            shearsort(Mesh(4), np.arange(5))
        with pytest.raises(ValueError, match="need exactly 16 values"):
            shearsort(Mesh(4), np.arange(64))


class TestRankWithinGroups:
    def test_basic(self):
        groups = np.array([2, 0, 2, 1, 0, 2])
        ranks = rank_within_groups(groups)
        # Stable: first occurrence of each group gets 0.
        assert ranks.tolist() == [0, 0, 1, 0, 1, 2]

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=50))
    def test_property(self, groups):
        groups = np.array(groups)
        ranks = rank_within_groups(groups)
        for g in np.unique(groups):
            got = ranks[groups == g]
            assert sorted(got.tolist()) == list(range(got.size))


class TestRouteViaSubmeshes:
    def test_delivers_and_breaks_down(self):
        mesh = Mesh(8)
        tess = Tessellation.uniform(mesh.n, 4)
        rng = np.random.default_rng(7)
        src = rng.permutation(mesh.n)
        dst = rng.integers(0, mesh.n, mesh.n)
        res = route_via_submeshes(mesh, PacketBatch(src, dst), tess)
        assert res.steps == res.sort_steps + res.spread_steps + res.deliver_steps
        assert res.sort_steps > 0

    def test_empty(self):
        mesh = Mesh(4)
        res = route_via_submeshes(
            mesh, PacketBatch(np.zeros(0), np.zeros(0)), Tessellation.uniform(16, 4)
        )
        assert res.steps == 0

    def test_spread_balances_receivers(self):
        """After the spread phase no node should hold more than
        ceil(packets_to_submesh / m) + small packets — the whole point of
        rank-based spreading."""
        mesh = Mesh(8)
        tess = Tessellation.uniform(mesh.n, 4)
        # Adversarial: every packet to the same final node.
        src = np.arange(mesh.n)
        dst = np.zeros(mesh.n, dtype=np.int64)
        res = route_via_submeshes(mesh, PacketBatch(src, dst), tess)
        assert res.steps > 0

    def test_beats_direct_on_skewed_load(self):
        """The Section 2 claim: when delta << l2, staged routing wins."""
        mesh = Mesh(16)
        tess = Tessellation.uniform(mesh.n, 16)
        # l2 large: 8 hot nodes each receiving n/8 packets; delta small:
        # the hot nodes are spread across different submeshes.
        rng = np.random.default_rng(11)
        src = np.arange(mesh.n)
        hot = mesh.node_of_rank(np.arange(8) * (mesh.n // 8))  # 1 per 2 submeshes
        dst = np.repeat(hot, mesh.n // 8)
        direct = route_direct(mesh, PacketBatch(src, dst))
        staged = route_via_submeshes(mesh, PacketBatch(src, dst), tess)
        # The deliver phase (the contended part) must be far below the
        # direct routing's serialized cost.
        assert staged.deliver_steps + staged.spread_steps < direct.steps


class TestSinglePort:
    def test_rejects_unknown_ports(self):
        with pytest.raises(ValueError):
            SynchronousEngine(Mesh(4), ports="dual")

    def test_single_port_delivers(self):
        mesh = Mesh(8)
        rng = np.random.default_rng(1)
        batch = PacketBatch(np.arange(mesh.n), rng.permutation(mesh.n))
        res = SynchronousEngine(mesh, ports="single").route(batch)
        assert res.total_hops == int(mesh.distance(batch.src, batch.dst).sum())

    def test_single_port_never_faster(self):
        """Per-node arbitration is a strict restriction of per-link."""
        mesh = Mesh(8)
        rng = np.random.default_rng(2)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            src = np.arange(mesh.n)
            dst = rng.integers(0, mesh.n, mesh.n)
            multi = SynchronousEngine(mesh, ports="multi").route(PacketBatch(src, dst))
            single = SynchronousEngine(mesh, ports="single").route(PacketBatch(src, dst))
            assert single.steps >= multi.steps

    def test_multi_source_single_port_slower(self):
        """With 4 packets per source, multi-port nodes drain 4 links at
        once while single-port nodes emit one packet per step."""
        mesh = Mesh(8)
        rng = np.random.default_rng(5)
        src = np.repeat(np.arange(mesh.n), 4)
        dst = rng.permutation(np.repeat(np.arange(mesh.n), 4))
        multi = SynchronousEngine(mesh, ports="multi").route(PacketBatch(src, dst))
        single = SynchronousEngine(mesh, ports="single").route(PacketBatch(src, dst))
        assert single.steps > multi.steps
