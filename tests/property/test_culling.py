"""CULLING properties: target-set validity, determinism, idempotence.

Every output of CULLING must be a minimal level-k target set per
variable (Definition 2's access guarantee), the procedure must be a
pure function of the request set, and re-running it on its own output
must change nothing — the properties every refactor of the marking /
extraction code has to preserve.  Page marking is also checked alone,
on pages crowded past their cap, which CULLING runs at test sizes never
reach.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.culling import audit_theorem3, cull
from repro.culling.procedure import _mark_with_cap, _max_page_load
from repro.hmos import HMOS
from repro.hmos.copytree import is_target_set, target_set_size


@pytest.fixture(scope="module")
def scheme():
    return HMOS(n=64, alpha=1.5, q=3, k=2)


@st.composite
def request_sets(draw):
    size = draw(st.integers(1, 64))
    # num_variables = 1080 for the module fixture's configuration.
    return np.array(
        draw(
            st.lists(
                st.integers(0, 1079), min_size=size, max_size=size, unique=True
            )
        ),
        dtype=np.int64,
    )


@st.composite
def crowded_pages(draw):
    """Page keys of an (N, q^k) copy grid over a few pages, a selection
    and a marking cap of 1-4, so pages often hold more than ``cap``."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 9))
    pages = draw(st.integers(1, 5))
    size = rows * cols
    keys = draw(st.lists(st.integers(0, pages - 1), min_size=size, max_size=size))
    picks = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    return (
        np.array(keys, dtype=np.int64).reshape(rows, cols),
        np.array(picks, dtype=bool).reshape(rows, cols),
        draw(st.integers(1, 4)),
    )


@given(case=crowded_pages())
def test_marking_and_page_load_match_reference_loop(case):
    """Each page marks its first ``cap`` selected copies in row-major
    (variable row, path) order; the page load is the largest count."""
    keys, selected, cap = case
    want = np.zeros_like(selected)
    load = Counter()
    for row, path in np.ndindex(*selected.shape):
        if selected[row, path]:
            page = keys[row, path]
            want[row, path] = load[page] < cap
            load[page] += 1
    np.testing.assert_array_equal(_mark_with_cap(keys, selected, cap), want)
    assert _max_page_load(keys, selected) == max(load.values(), default=0)


class TestCullingProperties:
    @given(variables=request_sets())
    def test_output_is_minimal_target_set(self, scheme, variables):
        res = cull(scheme, variables)
        q, k = scheme.params.q, scheme.params.k
        assert is_target_set(res.selected, q, k).all()
        assert (
            res.selected.sum(axis=1) == target_set_size(q, k, level=k)
        ).all()

    @given(variables=request_sets())
    def test_deterministic(self, scheme, variables):
        a = cull(scheme, variables)
        b = cull(scheme, variables)
        assert np.array_equal(a.selected, b.selected)
        assert a.iterations == b.iterations
        assert a.charged_steps == b.charged_steps

    @given(variables=request_sets())
    def test_idempotent_under_permutation_of_requests(self, scheme, variables):
        """Selection per variable is independent of request order up to
        row alignment: culling is driven by (variable, page) structure,
        not by the arbitrary processor numbering."""
        perm = np.argsort(variables, kind="stable")
        res_a = cull(scheme, variables)
        res_b = cull(scheme, variables[perm])
        assert np.array_equal(res_a.selected[perm], res_b.selected)

    @given(variables=request_sets())
    def test_congestion_cap(self, scheme, variables):
        res = cull(scheme, variables)
        loads = audit_theorem3(scheme, variables, res.selected)  # raises if broken
        assert all(load.within_bound for load in loads)

    @given(variables=request_sets())
    def test_marking_caps_respected(self, scheme, variables):
        res = cull(scheme, variables)
        for it in res.iterations:
            assert it.max_page_load <= scheme.params.theorem3_bound(it.level)
            assert it.augmented_copies >= 0
