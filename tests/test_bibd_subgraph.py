"""Tests for the balanced prefix subgraph (paper appendix, Theorem 5)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bibd import (
    AffineBIBD,
    BalancedSubgraph,
    bibd_num_inputs,
    verify_balanced_degrees,
    verify_strong_expansion,
)


class TestDecomposition:
    def test_full_design_params(self):
        sg = BalancedSubgraph(3, 2, bibd_num_inputs(3, 2))
        assert sg.l == 2 and sg.w == 0 and sg.z == 0

    def test_m_decomposition_identity(self):
        for q, d in [(3, 2), (3, 3), (4, 2), (5, 2)]:
            full = bibd_num_inputs(q, d)
            for m in range(1, full + 1, max(1, full // 23)):
                sg = BalancedSubgraph(q, d, m)
                rebuilt = q ** (d - 1) * ((q**sg.l - 1) // (q - 1) + sg.w) + sg.z
                assert rebuilt == m
                assert 0 <= sg.w < q**sg.l or (sg.w == 0 and sg.l == d)
                assert 0 <= sg.z < q ** (d - 1)

    def test_rejects_oversized_m(self):
        with pytest.raises(ValueError):
            BalancedSubgraph(3, 2, bibd_num_inputs(3, 2) + 1)

    def test_rejects_zero_m(self):
        with pytest.raises(ValueError):
            BalancedSubgraph(3, 2, 0)


class TestTheorem5:
    @pytest.mark.parametrize("q,d", [(2, 2), (3, 2), (3, 3), (4, 2), (5, 2)])
    def test_balanced_degrees_sweep(self, q, d):
        full = bibd_num_inputs(q, d)
        for m in sorted({1, 2, full // 3, full // 2, full - 1, full}):
            if m >= 1:
                verify_balanced_degrees(BalancedSubgraph(q, d, m))

    def test_rho_bound_tightness(self):
        # When q^d | q*m every output has exactly the same degree.
        q, d = 3, 2
        m = 3 * q ** (d - 1)  # q*m = 81 = 9 * q^d
        sg = BalancedSubgraph(q, d, m)
        hist = verify_balanced_degrees(sg)
        assert hist == {3: 9}

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from([(3, 2), (4, 2), (3, 3), (5, 2)]),
        st.integers(1, 10**6),
    )
    def test_theorem5_property(self, case, m_seed):
        q, d = case
        full = bibd_num_inputs(q, d)
        m = 1 + m_seed % full
        verify_balanced_degrees(BalancedSubgraph(q, d, m))


class TestSubgraphIncidence:
    def test_adjacent_inputs_match_degree(self):
        sg = BalancedSubgraph(3, 3, 20)
        for u in range(sg.num_outputs):
            lines = sg.adjacent_inputs(u)
            assert lines.size == int(sg.output_degree(u))
            # All selected, all incident.
            assert (lines < sg.num_inputs).all()
            nbrs = sg.neighbors(lines)
            assert (nbrs == u).any(axis=1).all() if lines.size else True

    def test_ranks_are_contiguous(self):
        sg = BalancedSubgraph(3, 3, 25)
        for u in range(0, sg.num_outputs, 3):
            lines = sg.adjacent_inputs(u)
            if lines.size == 0:
                continue
            ranks = sg.input_rank_at_output(lines, np.full(lines.shape, u))
            np.testing.assert_array_equal(np.sort(ranks), np.arange(lines.size))

    def test_neighbors_rejects_unselected_input(self):
        sg = BalancedSubgraph(3, 2, 5)
        with pytest.raises(ValueError):
            sg.neighbors(5)


def test_materialize_transient_memory_is_bounded():
    """Building the n = 4096 scheme's largest level graph peaks at <= 6x
    the tables it keeps.  NumPy reports its buffers to tracemalloc, so
    the peak is deterministic."""
    sg = BalancedSubgraph(3, 7, 796797)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        sg.materialize()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    table_bytes = sum(t.nbytes for t in sg.tables())
    assert peak - before <= 6 * table_bytes, (peak - before) / table_bytes


class TestStrongExpansion:
    @pytest.mark.parametrize("q,d", [(3, 2), (3, 3), (5, 2)])
    def test_lemma1_all_k(self, q, d):
        design = AffineBIBD(q, d)
        degree = design.output_degree
        for k in range(1, q + 1):
            size = verify_strong_expansion(design, 0, min(4, degree), k, seed=k)
            assert size == (k - 1) * min(4, degree) + 1

    def test_lemma1_full_subset(self):
        design = AffineBIBD(3, 2)
        verify_strong_expansion(design, 4, design.output_degree, 3)

    def test_lemma1_rejects_bad_k(self):
        with pytest.raises(ValueError):
            verify_strong_expansion(AffineBIBD(3, 2), 0, 2, 4)
