"""Tests for copy-tree access semantics and minimal target-set extraction."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hmos.copytree import (
    _TABLE_MAX_LEAVES,
    _extract_dp,
    access_mask,
    extract_min_target_set,
    is_target_set,
    majority,
    supermajority,
    target_set_size,
)

#: Every tabulated tree and level: q >= 3 and q^k within the table limit.
_TABULATED = [
    (q, k, level)
    for q in range(3, _TABLE_MAX_LEAVES + 1)
    for k in range(1, _TABLE_MAX_LEAVES)
    if q**k <= _TABLE_MAX_LEAVES
    for level in range(k + 1)
]


class TestThresholds:
    def test_majority_values(self):
        assert majority(3) == 2 and majority(5) == 3 and majority(4) == 3

    def test_supermajority_values(self):
        assert supermajority(3) == 3 and supermajority(5) == 4

    def test_supermajority_rejects_q2(self):
        with pytest.raises(ValueError):
            supermajority(2)

    def test_target_set_sizes_q3(self):
        # q=3, k=2: level-0 -> 9 (all), level-1 -> 6, level-2 -> 4.
        assert target_set_size(3, 2, 0) == 9
        assert target_set_size(3, 2, 1) == 6
        assert target_set_size(3, 2, 2) == 4


class TestAccessMask:
    def test_all_leaves_accesses_root(self):
        mask = np.ones((1, 9), dtype=bool)
        assert access_mask(mask, 3, 2).all()

    def test_no_leaves(self):
        mask = np.zeros((1, 9), dtype=bool)
        assert not access_mask(mask, 3, 2).any()

    def test_known_q3_k1(self):
        # Root accessed iff >= 2 of 3 leaves reached.
        cases = np.array(
            [[1, 1, 0], [1, 0, 0], [0, 1, 1], [1, 1, 1], [0, 0, 0]], dtype=bool
        )
        got = access_mask(cases, 3, 1)
        np.testing.assert_array_equal(got, [True, False, True, True, False])

    def test_known_q3_k2(self):
        """Majority of subtree majorities: leaves grouped [0:3],[3:6],[6:9]."""
        # Two full subtrees accessed -> root accessed.
        m = np.zeros((1, 9), dtype=bool)
        m[0, [0, 1, 3, 4]] = True
        assert access_mask(m, 3, 2)[0]
        # One subtree only -> not accessed.
        m2 = np.zeros((1, 9), dtype=bool)
        m2[0, [0, 1, 2]] = True
        assert not access_mask(m2, 3, 2)[0]
        # Only one subtree majority -> root lacks its own majority.
        m3 = np.zeros((1, 9), dtype=bool)
        m3[0, [0, 3, 6, 1]] = True
        assert not access_mask(m3, 3, 2)[0]
        # One leaf per subtree: no subtree accessed at all.
        m4 = np.zeros((1, 9), dtype=bool)
        m4[0, [0, 3, 6]] = True
        assert not access_mask(m4, 3, 2)[0]
        # Minimal target set: majorities in two subtrees (4 leaves).
        m5 = np.zeros((1, 9), dtype=bool)
        m5[0, [0, 1, 3, 5]] = True
        assert access_mask(m5, 3, 2)[0]

    def test_level0_requires_supermajority(self):
        # q=3 level-0: every internal node needs all 3 children.
        m = np.ones((1, 9), dtype=bool)
        m[0, 0] = False
        assert access_mask(m, 3, 2, level=0)[0] == False  # noqa: E712
        assert access_mask(np.ones((1, 9), bool), 3, 2, level=0)[0]

    def test_level_monotonicity(self):
        """A level-i target set is a level-j target set for all j >= i."""
        rng = np.random.default_rng(5)
        masks = rng.random((200, 27)) < 0.7
        for i in range(3):
            ok_i = access_mask(masks, 3, 3, level=i)
            for j in range(i + 1, 4):
                ok_j = access_mask(masks, 3, 3, level=j)
                assert not np.any(ok_i & ~ok_j)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            access_mask(np.ones((2, 8), bool), 3, 2)
        with pytest.raises(ValueError):
            access_mask(np.ones((2, 9), bool), 3, 2, level=3)


class TestExtraction:
    def test_extracts_exact_minimal_size(self):
        q, k = 3, 2
        full = np.ones((4, q**k), dtype=bool)
        for lvl in range(k + 1):
            feasible, chosen, added = extract_min_target_set(full, full, q, k, lvl)
            assert feasible.all()
            np.testing.assert_array_equal(chosen.sum(axis=1), target_set_size(q, k, lvl))
            np.testing.assert_array_equal(added, 0)

    def test_chosen_is_target_set(self):
        q, k = 3, 2
        rng = np.random.default_rng(0)
        allowed = rng.random((300, q**k)) < 0.8
        preferred = allowed & (rng.random((300, q**k)) < 0.5)
        for lvl in range(k + 1):
            feasible, chosen, added = extract_min_target_set(preferred, allowed, q, k, lvl)
            # Feasibility agrees with direct access check on `allowed`.
            np.testing.assert_array_equal(feasible, access_mask(allowed, q, k, lvl))
            got = is_target_set(chosen[feasible], q, k, lvl)
            assert got.all()
            # Chosen leaves come from allowed; rows infeasible -> empty.
            assert not np.any(chosen & ~allowed)
            assert not np.any(chosen[~feasible])

    def test_prefers_marked_copies(self):
        q, k = 3, 1
        # Marked copies {0,1} already form a level-1 (majority) target set.
        preferred = np.array([[True, True, False]])
        allowed = np.ones((1, 3), dtype=bool)
        feasible, chosen, added = extract_min_target_set(preferred, allowed, q, k, 1)
        assert feasible[0]
        np.testing.assert_array_equal(chosen[0], [True, True, False])
        assert added[0] == 0

    def test_augments_when_marked_insufficient(self):
        q, k = 3, 1
        preferred = np.array([[True, False, False]])
        allowed = np.ones((1, 3), dtype=bool)
        feasible, chosen, added = extract_min_target_set(preferred, allowed, q, k, 1)
        assert feasible[0]
        assert chosen[0, 0]  # keeps the marked one
        assert chosen[0].sum() == 2
        assert added[0] == 1

    def test_minimality_every_leaf_needed(self):
        """Removing any chosen leaf must break the target-set property."""
        q, k = 3, 2
        rng = np.random.default_rng(1)
        allowed = rng.random((50, q**k)) < 0.9
        preferred = np.zeros_like(allowed)
        for lvl in range(k + 1):
            feasible, chosen, _ = extract_min_target_set(preferred, allowed, q, k, lvl)
            rows = np.nonzero(feasible)[0][:10]
            for r in rows:
                leaves = np.nonzero(chosen[r])[0]
                for leaf in leaves:
                    reduced = chosen[r : r + 1].copy()
                    reduced[0, leaf] = False
                    assert not is_target_set(reduced, q, k, lvl)[0]

    def test_rejects_preferred_outside_allowed(self):
        with pytest.raises(ValueError):
            extract_min_target_set(
                np.array([[True, False, False]]),
                np.array([[False, True, True]]),
                3,
                1,
                1,
            )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([(3, 1), (3, 2), (5, 1), (3, 3), (4, 2)]))
    def test_extraction_property(self, seed, qk):
        q, k = qk
        rng = np.random.default_rng(seed)
        allowed = rng.random((20, q**k)) < rng.uniform(0.3, 1.0)
        preferred = allowed & (rng.random((20, q**k)) < 0.5)
        lvl = int(rng.integers(0, k + 1))
        feasible, chosen, added = extract_min_target_set(preferred, allowed, q, k, lvl)
        np.testing.assert_array_equal(feasible, access_mask(allowed, q, k, lvl))
        if feasible.any():
            assert is_target_set(chosen[feasible], q, k, lvl).all()
            np.testing.assert_array_equal(
                added[feasible], (chosen & ~preferred).sum(axis=1)[feasible]
            )
        # Added counts are minimal in the simple saturating case:
        sat = preferred.all(axis=1)
        assert not np.any(added[sat & feasible])


@pytest.mark.parametrize("q, k, level", _TABULATED)
def test_table_equals_dp_on_every_leaf_pattern(q, k, level):
    """The pattern table answers exactly as the DP on all 3^(q^k) patterns
    (leaf state 0 = not allowed, 1 = allowed, 2 = preferred)."""
    states = np.array(list(itertools.product(range(3), repeat=q**k)))
    preferred, allowed = states == 2, states >= 1
    got = extract_min_target_set(preferred, allowed, q, k, level)
    want = _extract_dp(preferred, allowed, q, k, level)
    for name, g, w in zip(("feasible", "chosen", "added"), got, want):
        assert g.dtype == w.dtype, name
        np.testing.assert_array_equal(g, w, err_msg=name)
