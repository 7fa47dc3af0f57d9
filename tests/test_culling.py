"""Tests for procedure CULLING and the Theorem 3 congestion bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.culling import audit_theorem3, cull, page_congestion
from repro.culling.procedure import _mark_with_cap
from repro.hmos import HMOS
from repro.hmos.copytree import target_set_size


@pytest.fixture(scope="module")
def scheme64():
    return HMOS(n=64, alpha=1.5, q=3, k=2)


@pytest.fixture(scope="module")
def scheme256():
    return HMOS(n=256, alpha=1.5, q=3, k=2)


class TestMarkWithCap:
    def test_respects_cap(self):
        keys = np.array([[0, 0, 0, 1, 1, 2]])
        sel = np.ones((1, 6), dtype=bool)
        marked = _mark_with_cap(keys, sel, cap=2)
        # Page 0 has 3 selected -> 2 marked; page 1 -> 2; page 2 -> 1.
        assert marked.sum() == 5
        assert marked[0, :3].sum() == 2

    def test_marks_only_selected(self):
        keys = np.array([[0, 0, 0]])
        sel = np.array([[True, False, True]])
        marked = _mark_with_cap(keys, sel, cap=5)
        assert not marked[0, 1]
        assert marked.sum() == 2

    def test_maximal_marking(self):
        """Pages with more than cap selected get exactly cap marked."""
        keys = np.zeros((1, 10), dtype=np.int64)
        sel = np.ones((1, 10), dtype=bool)
        marked = _mark_with_cap(keys, sel, cap=4)
        assert marked.sum() == 4

    def test_empty_selection(self):
        marked = _mark_with_cap(np.zeros((1, 3), dtype=np.int64), np.zeros((1, 3), bool), 2)
        assert marked.sum() == 0


class TestCull:
    def test_final_masks_are_target_sets(self, scheme64):
        variables = np.arange(scheme64.params.n)
        result = cull(scheme64, variables)
        assert scheme64.is_target_set(result.selected).all()

    def test_final_masks_are_minimal_level_k(self, scheme64):
        p = scheme64.params
        result = cull(scheme64, np.arange(p.n))
        sizes = result.selected.sum(axis=1)
        np.testing.assert_array_equal(sizes, target_set_size(p.q, p.k, p.k))

    def test_shrinking_from_initial(self, scheme64):
        p = scheme64.params
        result = cull(scheme64, np.arange(p.n))
        # Final (level-k minimal) sets are strictly smaller than the
        # initial level-0 sets whenever supermajority > majority.
        assert result.total_selected < p.n * target_set_size(p.q, p.k, 0)

    def test_iterations_reported(self, scheme64):
        result = cull(scheme64, np.arange(10))
        assert len(result.iterations) == scheme64.params.k
        assert [it.level for it in result.iterations] == [1, 2]
        for it in result.iterations:
            assert it.cap > 0 and it.max_page_load >= 0

    def test_charged_steps_positive_and_scales(self, scheme64, scheme256):
        r64 = cull(scheme64, np.arange(64))
        r256 = cull(scheme256, np.arange(256))
        assert r64.charged_steps > 0
        # Eq. (2): the sort term is proportional to sqrt(n) -> ratio 2 for
        # 4x nodes (the O(q^k) local-work term is n-independent).
        red, k = 9, 2
        sort64 = r64.charged_steps - k * red
        sort256 = r256.charged_steps - k * red
        assert sort256 == pytest.approx(2 * sort64)

    def test_rejects_duplicates(self, scheme64):
        with pytest.raises(ValueError):
            cull(scheme64, np.array([1, 1]))

    @pytest.mark.parametrize(
        "healthy", [False, True], ids=["allowed=None", "allowed=ones"]
    )
    def test_rejects_non_adjacent_duplicates(self, scheme64, healthy):
        variables = np.array([5, 1, 5])
        allowed = (
            np.ones((variables.size, scheme64.redundancy), dtype=bool)
            if healthy
            else None
        )
        with pytest.raises(ValueError, match="distinct"):
            cull(scheme64, variables, allowed=allowed)

    def test_rejects_too_many_requests(self, scheme64):
        with pytest.raises(ValueError):
            cull(scheme64, np.arange(scheme64.params.n + 1))

    def test_rejects_out_of_range(self, scheme64):
        with pytest.raises(ValueError):
            cull(scheme64, np.array([scheme64.num_variables]))

    def test_deterministic(self, scheme64):
        variables = np.arange(0, 64)
        a = cull(scheme64, variables)
        b = cull(scheme64, variables)
        np.testing.assert_array_equal(a.selected, b.selected)


class TestTheorem3:
    def test_full_request_set(self, scheme64):
        variables = np.arange(scheme64.params.n)
        result = cull(scheme64, variables)
        loads = audit_theorem3(scheme64, variables, result.selected)
        assert len(loads) == scheme64.params.k
        for load in loads:
            assert load.within_bound

    def test_adversarial_stride_requests(self, scheme256):
        """Variables chosen to collide in level-1 modules as much as the
        BIBD permits (same residue class)."""
        p = scheme256.params
        variables = (np.arange(p.n) * (p.num_variables // p.n)) % p.num_variables
        variables = np.unique(variables)
        result = cull(scheme256, variables)
        audit_theorem3(scheme256, variables, result.selected)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_request_sets(self, seed):
        scheme = HMOS(n=64, alpha=1.5, q=3, k=2)
        rng = np.random.default_rng(seed)
        variables = rng.choice(scheme.num_variables, size=64, replace=False)
        result = cull(scheme, variables)
        assert scheme.is_target_set(result.selected).all()
        audit_theorem3(scheme, variables, result.selected)

    def test_page_congestion_shape(self, scheme64):
        variables = np.arange(32)
        result = cull(scheme64, variables)
        counts = page_congestion(scheme64, variables, result.selected, 1)
        assert counts.sum() == result.total_selected


class TestAccounting:
    def test_measured_accounting_uses_kk_sort_schedule(self, scheme64):
        from repro.mesh.ksort import kk_sort_steps

        res = cull(scheme64, np.arange(64), accounting="measured")
        p = scheme64.params
        expected = p.k * (kk_sort_steps(p.side, p.redundancy) + p.redundancy)
        assert res.charged_steps == expected

    def test_measured_ge_model(self, scheme64):
        """The real shearsort schedule carries a log factor the cited
        bound does not."""
        model = cull(scheme64, np.arange(64), accounting="model")
        measured = cull(scheme64, np.arange(64), accounting="measured")
        assert measured.charged_steps >= model.charged_steps
        np.testing.assert_array_equal(model.selected, measured.selected)

    def test_bad_accounting_rejected(self, scheme64):
        with pytest.raises(ValueError, match="accounting"):
            cull(scheme64, np.arange(4), accounting="vibes")
