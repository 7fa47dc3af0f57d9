"""Tests for the fault-tolerance extension (failed nodes, degraded culling)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.culling import cull
from repro.hmos import HMOS, FaultInjector
from repro.protocol import AccessProtocol


@pytest.fixture()
def scheme():
    return HMOS(n=256, alpha=1.25, q=3, k=2)


class TestFaultInjector:
    def test_initially_healthy(self, scheme):
        inj = FaultInjector(scheme)
        assert inj.failed_nodes.size == 0
        assert inj.allowed_mask(np.arange(10)).all()

    def test_fail_and_heal(self, scheme):
        inj = FaultInjector(scheme)
        inj.fail_nodes([3, 7])
        np.testing.assert_array_equal(inj.failed_nodes, [3, 7])
        inj.heal_nodes([3])
        np.testing.assert_array_equal(inj.failed_nodes, [7])

    def test_fail_idempotent(self, scheme):
        inj = FaultInjector(scheme)
        inj.fail_nodes([5])
        inj.fail_nodes([5])
        assert inj.failed_nodes.size == 1

    def test_rejects_bad_node(self, scheme):
        with pytest.raises(ValueError):
            FaultInjector(scheme).fail_nodes([scheme.params.n])

    def test_allowed_mask_reflects_failures(self, scheme):
        inj = FaultInjector(scheme)
        v = np.arange(20)
        before = inj.allowed_mask(v)
        assert before.all()
        inj.fail_nodes(scheme.copy_nodes(np.array([0]), np.array([0])))
        after = inj.allowed_mask(v)
        assert not after[0, 0]

    def test_recoverable_all_healthy(self, scheme):
        assert FaultInjector(scheme).recoverable(np.arange(50)).all()


class TestFaultyCulling:
    def test_matches_normal_when_healthy(self, scheme):
        variables = np.arange(64)
        allowed = np.ones((64, scheme.redundancy), dtype=bool)
        res = cull(scheme, variables, allowed=allowed)
        assert scheme.is_target_set(res.selected).all()
        np.testing.assert_array_equal(res.start_levels, 0)
        assert cull(scheme, variables).start_levels is None
        # An all-available mask changes nothing: same selection, same
        # iteration stats, same charge, on full-load request sets.
        rng = np.random.default_rng(0)
        for config in ((64, 1.5, 3, 2), (256, 1.25, 3, 2), (1024, 1.5, 3, 2),
                       (64, 1.5, 4, 1)):
            other = HMOS.cached(*config)
            n = other.params.n
            variables = rng.choice(other.num_variables, n, replace=False)
            ones = np.ones((n, other.redundancy), dtype=bool)
            healthy = cull(other, variables, allowed=ones)
            plain = cull(other, variables)
            np.testing.assert_array_equal(healthy.selected, plain.selected)
            assert healthy.iterations == plain.iterations
            assert healthy.charged_steps == plain.charged_steps
            np.testing.assert_array_equal(healthy.start_levels, 0)
            assert plain.start_levels is None

    def test_selected_avoid_failed_copies(self, scheme):
        inj = FaultInjector(scheme)
        rng = np.random.default_rng(1)
        inj.fail_nodes(rng.choice(scheme.params.n, 10, replace=False))
        variables = np.arange(64)
        allowed = inj.allowed_mask(variables)
        if not inj.recoverable(variables).all():
            pytest.skip("random failures too damaging for this seed")
        res = cull(scheme, variables, allowed=allowed)
        assert not np.any(res.selected & ~allowed)
        assert scheme.is_target_set(res.selected).all()

    def test_unrecoverable_reported(self, scheme):
        variables = np.arange(8)
        allowed = np.ones((8, scheme.redundancy), dtype=bool)
        allowed[3] = False  # variable 3 lost every copy
        with pytest.raises(RuntimeError, match="unrecoverable"):
            cull(scheme, variables, allowed=allowed)

    def test_degraded_start_levels(self, scheme):
        """Knocking out one copy forces a weaker starting level for the
        affected variable (level-0 needs all q^k copies for q=3)."""
        variables = np.arange(8)
        allowed = np.ones((8, scheme.redundancy), dtype=bool)
        allowed[2, 0] = False
        res = cull(scheme, variables, allowed=allowed)
        assert res.start_levels[2] > 0
        assert res.start_levels[1] == 0


class TestFaultyProtocol:
    def test_consistency_under_failures(self, scheme):
        """Write healthy, fail some nodes, read back: values survive."""
        inj = FaultInjector(scheme)
        proto = AccessProtocol(scheme, engine="model", faults=inj)
        variables = np.arange(100, 164)
        proto.write(variables, variables * 3, timestamp=1)
        rng = np.random.default_rng(7)
        inj.fail_nodes(rng.choice(scheme.params.n, 8, replace=False))
        if not inj.recoverable(variables).all():
            pytest.skip("random failures too damaging for this seed")
        res = proto.read(variables)
        np.testing.assert_array_equal(res.values, variables * 3)

    def test_write_after_failure_then_heal(self, scheme):
        """Stale resurrected copies lose to timestamps."""
        inj = FaultInjector(scheme)
        proto = AccessProtocol(scheme, engine="model", faults=inj)
        v = np.arange(16)
        proto.write(v, np.full(16, 1), timestamp=1)
        dead = scheme.copy_nodes(v[:1], np.array([0]))
        inj.fail_nodes(dead)
        if not inj.recoverable(v).all():
            pytest.skip("failure too damaging")
        proto.write(v, np.full(16, 2), timestamp=2)  # skips dead copies
        inj.heal_nodes(dead)  # stale copy (value 1, ts 1) reappears
        res = proto.read(v)
        np.testing.assert_array_equal(res.values, 2)

    @pytest.mark.parametrize("engine", ["model", "cycle"])
    def test_request_checks_apply_under_failures(self, engine):
        """Failed nodes do not bypass CULLING's request checks: more
        requests than processors and a 2-D request array are refused as
        on a healthy mesh, and an empty step costs nothing."""
        scheme = HMOS.cached(64, 1.5, 3, 2)
        inj = FaultInjector(scheme)
        inj.fail_nodes([5])
        proto = AccessProtocol(scheme, engine=engine, faults=inj)
        with pytest.raises(ValueError, match="at most one request per processor"):
            proto.read(np.arange(scheme.params.n + 1))
        with pytest.raises(ValueError, match="1-D"):
            proto.read(np.arange(8).reshape(2, 4))
        empty = proto.read(np.zeros(0, dtype=np.int64))
        assert empty.total_steps == 0.0
        assert empty.culling.start_levels.size == 0

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_failure_property(self, seed):
        scheme = HMOS(n=256, alpha=1.25, q=3, k=2)
        inj = FaultInjector(scheme)
        proto = AccessProtocol(scheme, engine="model", faults=inj)
        rng = np.random.default_rng(seed)
        variables = rng.choice(scheme.num_variables, 32, replace=False)
        proto.write(variables, variables + 5, timestamp=1)
        inj.fail_nodes(rng.choice(scheme.params.n, 5, replace=False))
        if not inj.recoverable(variables).all():
            return  # too damaging; recoverability correctly reported
        res = proto.read(variables)
        np.testing.assert_array_equal(res.values, variables + 5)


class TestWriteSurvival:
    def test_intact_write_survives(self, scheme):
        from repro.hmos import write_survives

        written = scheme.initial_target_masks(4)
        allowed = np.ones_like(written)
        assert write_survives(scheme, written, allowed).all()

    def test_quorum_intersection(self, scheme):
        """Destroying exactly a written target set destroys *every* read
        target set too — the quorum-intersection property that makes
        recoverability imply freshness."""
        from repro.hmos.copytree import extract_min_target_set

        q, k = scheme.params.q, scheme.params.k
        full = np.ones((1, scheme.redundancy), dtype=bool)
        _, written, _ = extract_min_target_set(full, full, q, k, k)
        survivors = ~written
        # No target set exists among the survivors: the variable is
        # unrecoverable, so no read can ever return a stale value.
        assert not scheme.is_target_set(survivors).any()

    def test_recoverable_implies_fresh(self, scheme):
        """Empirical check of the freshness theorem: for random failure
        patterns, whenever a target set survives, it contains a written
        survivor."""
        from repro.hmos import write_survives
        from repro.hmos.copytree import extract_min_target_set

        q, k = scheme.params.q, scheme.params.k
        rng = np.random.default_rng(0)
        full = np.ones((1, scheme.redundancy), dtype=bool)
        _, written, _ = extract_min_target_set(full, full, q, k, k)
        for _ in range(200):
            allowed = rng.random((1, scheme.redundancy)) < 0.6
            if scheme.is_target_set(allowed)[0]:
                # Freshness theorem premise holds => written survivor exists.
                assert write_survives(scheme, written, allowed)[0]

    def test_partial_damage(self, scheme):
        from repro.hmos import write_survives

        written = scheme.initial_target_masks(1)  # all 9 copies written
        allowed = np.ones_like(written)
        allowed[0, :2] = False
        assert write_survives(scheme, written, allowed)[0]

    def test_adversarial_last_copy_standing(self, scheme):
        """Adversary destroys written copies one by one: the write
        survives until the very last written copy falls, and at that
        point the variable is unrecoverable (never a stale read)."""
        from repro.hmos import write_survives
        from repro.hmos.copytree import extract_min_target_set

        q, k = scheme.params.q, scheme.params.k
        full = np.ones((1, scheme.redundancy), dtype=bool)
        _, written, _ = extract_min_target_set(full, full, q, k, k)
        allowed = np.ones_like(written)
        hit_list = np.nonzero(written[0])[0]
        for copy in hit_list[:-1]:
            allowed[0, copy] = False
            assert write_survives(scheme, written, allowed)[0]
        allowed[0, hit_list[-1]] = False
        assert not write_survives(scheme, written, allowed)[0]
        assert not scheme.is_target_set(allowed)[0]

    def test_adversarial_spare_written_copies(self, scheme):
        """Mirror attack: destroy everything *except* the written target
        set — reads are then forced onto the written copies and the
        write trivially survives (quorum intersection from the other
        side)."""
        from repro.hmos import write_survives

        written = scheme.initial_target_masks(1)
        allowed = written.copy()
        assert scheme.is_target_set(allowed)[0]
        assert write_survives(scheme, written, allowed)[0]
