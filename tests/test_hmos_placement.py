"""Tests for the physical placement of copies and the HMOS facade."""

import numpy as np
import pytest

from repro.hmos import HMOS, HMOSParams, Placement
from repro.hmos.placement import SCALE
from repro.mesh import Mesh


@pytest.fixture(scope="module")
def small():
    return HMOS(n=64, alpha=1.5, q=3, k=2)


@pytest.fixture(scope="module")
def medium():
    return HMOS(n=256, alpha=1.25, q=3, k=2)


class TestChains:
    def test_chain_shape_and_ranges(self, small):
        p = small.params
        v = np.arange(min(100, p.num_variables))
        paths = np.zeros_like(v)
        chains = small.placement.chains(v, paths)
        assert chains.shape == (v.size, p.k)
        for j in range(p.k):
            assert chains[:, j].min() >= 0
            assert chains[:, j].max() < p.m[j + 1]

    def test_chain_follows_graph_edges(self, small):
        place = small.placement
        v, path = 5, 7
        chain = place.chains(np.array([v]), np.array([path]))[0]
        e = place.path_digits(np.array([path]))[0]
        u = v
        for j in range(small.params.k):
            nbrs = place.graphs[j].neighbors(u)
            assert chain[j] == nbrs[e[j]]
            u = int(chain[j])

    def test_distinct_first_level_modules(self, small):
        """The q first-level branches of one variable hit q distinct modules."""
        q = small.params.q
        v = np.zeros(q, dtype=np.int64)
        paths = np.arange(q) * q ** (small.params.k - 1)  # e_1 = 0..q-1, rest 0
        chains = small.placement.chains(v, paths)
        assert len(set(chains[:, 0].tolist())) == q

    @pytest.mark.parametrize("materialized", [False, True])
    @pytest.mark.parametrize(
        "q, k, n", [(3, 1, 64), (3, 2, 64), (3, 3, 256), (4, 2, 256), (5, 2, 256)]
    )
    def test_grid_chains_match_per_copy_chains(self, q, k, n, materialized):
        """``chains(v)`` is the per-copy form over every path, in order."""
        p = HMOSParams(n=n, alpha=1.5, q=q, k=k)
        place = Placement(p)
        if materialized:
            for g in place.graphs:
                g.materialize()
        red = p.redundancy
        v = np.random.default_rng(q * 10 + k).choice(
            p.num_variables, size=min(40, p.num_variables), replace=False
        )
        per_copy = place.chains(np.repeat(v, red), np.tile(np.arange(red), v.size))
        np.testing.assert_array_equal(place.chains(v), per_copy.reshape(v.size, red, k))
        empty = place.chains(np.zeros(0, dtype=np.int64))
        assert empty.shape == (0, red, k) and empty.dtype == np.int64

    def test_path_digit_order(self, small):
        place = small.placement
        q, k = small.params.q, small.params.k
        path = q ** (k - 1) * 2  # e_1 = 2, others 0
        digits = place.path_digits(np.array([path]))[0]
        assert digits[0] == 2
        assert (digits[1:] == 0).all()


class TestIntervals:
    def test_nesting(self, small):
        """Level-(i-1) intervals nest inside level-i intervals."""
        p = small.params
        rng = np.random.default_rng(0)
        v = rng.integers(0, p.num_variables, 50)
        paths = rng.integers(0, p.redundancy, 50)
        chains = small.placement.chains(v, paths)
        prev = None
        for level in range(p.k, -1, -1):
            start, stop = small.placement.page_intervals(level, v, paths, chains)
            assert np.all(start <= stop)
            if prev is not None:
                pstart, pstop = prev
                assert np.all(start >= pstart) and np.all(stop <= pstop)
            prev = (start, stop)

    def test_top_level_partition(self, small):
        """Level-k intervals partition the virtual space by module."""
        p = small.params
        nS = p.n * SCALE
        # Module u_k owns [u_k*nS//m_k, (u_k+1)*nS//m_k).
        v = np.arange(min(200, p.num_variables))
        paths = np.zeros_like(v)
        chains = small.placement.chains(v, paths)
        start, stop = small.placement.page_intervals(p.k, v, paths, chains)
        u_k = chains[:, p.k - 1]
        np.testing.assert_array_equal(start, (u_k * nS) // p.m[p.k])
        np.testing.assert_array_equal(stop, ((u_k + 1) * nS) // p.m[p.k])

    def test_same_page_same_interval(self, small):
        """Copies in the same level-1 page get the same level-1 interval."""
        p = small.params
        v = np.arange(p.num_variables)
        paths = np.full(v.shape, 0)
        keys = small.page_keys(1, v, paths)
        start, _ = small.placement.page_intervals(1, v, paths)
        for key in np.unique(keys)[:20]:
            sel = keys == key
            assert len(set(start[sel].tolist())) == 1


class TestCopyNodes:
    def test_nodes_in_range(self, small):
        p = small.params
        v = np.repeat(np.arange(min(50, p.num_variables)), p.redundancy)
        paths = np.tile(np.arange(p.redundancy), min(50, p.num_variables))
        nodes = small.copy_nodes(v, paths)
        assert nodes.min() >= 0 and nodes.max() < p.n

    def test_deterministic(self, small):
        v = np.array([3, 7, 11])
        paths = np.array([0, 4, 8])
        a = small.copy_nodes(v, paths)
        b = small.copy_nodes(v, paths)
        np.testing.assert_array_equal(a, b)
        rebuilt = HMOS(n=64, alpha=1.5, q=3, k=2)
        np.testing.assert_array_equal(rebuilt.copy_nodes(v, paths), a)

    def test_copy_node_inside_page_span(self, small):
        p = small.params
        rng = np.random.default_rng(2)
        v = rng.integers(0, p.num_variables, 100)
        paths = rng.integers(0, p.redundancy, 100)
        nodes = small.copy_nodes(v, paths)
        ranks = small.mesh.rank_of(nodes)
        for level in range(1, p.k + 1):
            first, last = small.placement.page_node_spans(level, v, paths)
            assert np.all(ranks >= first) and np.all(ranks <= last)

    def test_storage_balanced(self, medium):
        """Per-node storage should be near-uniform: every module's pages are
        evenly spread, so no node stores more than a few times the mean."""
        counts = medium.placement.storage_count_per_node()
        total = medium.params.num_variables * medium.params.redundancy
        assert counts.sum() == total
        mean = total / medium.params.n
        assert counts.max() <= 8 * mean
        assert counts.min() >= 0


class TestPageKeys:
    def test_key_uniqueness_counts(self, small):
        """Number of distinct level-i pages matches m_i * q^(k-i) (each page
        used by at least one copy for a full enumeration)."""
        p = small.params
        v = np.repeat(np.arange(p.num_variables), p.redundancy)
        paths = np.tile(np.arange(p.redundancy), p.num_variables)
        for level in range(1, p.k + 1):
            keys = small.page_keys(level, v, paths)
            assert len(np.unique(keys)) <= p.num_pages(level)
            # For the full design level 1, every page holds copies.
            if level == 1:
                assert len(np.unique(keys)) == p.num_pages(1)

    def test_same_module_and_suffix_same_key(self, small):
        p = small.params
        q, k = p.q, p.k
        # Two different variables may share a level-1 module on some branch;
        # verify key = module * q^(k-1) + suffix.
        v = np.arange(min(500, p.num_variables))
        paths = np.full(v.shape, 3)  # same suffix digits for all
        chains = small.placement.chains(v, paths)
        keys = small.page_keys(1, v, paths)
        expect = chains[:, 0] * q ** (k - 1) + 3 % q ** (k - 1)
        np.testing.assert_array_equal(keys, expect)

    def test_rejects_level0(self, small):
        with pytest.raises(ValueError):
            small.page_keys(0, np.array([0]), np.array([0]))


TABLE_SCHEMES = [
    (64, 1.5, 3, 1, "morton"),
    (256, 1.5, 3, 2, "morton"),
    (256, 2.0, 3, 3, "morton"),
    (64, 1.5, 4, 2, "morton"),
    (256, 1.5, 5, 2, "morton"),
    (1024, 1.5, 3, 2, "hilbert"),
]


def _placement(n, alpha, q, k, curve, materialized):
    params = HMOSParams(n=n, alpha=alpha, q=q, k=k)
    place = Placement(params, Mesh(params.side, curve=curve))
    if materialized:
        for g in place.graphs:
            g.materialize()
    return place


def _reference_span(start, stop):
    first = start // SCALE
    return first, np.maximum(first, (stop - 1) // SCALE)


@pytest.mark.parametrize("materialized", [False, True], ids=["arithmetic", "cached"])
@pytest.mark.parametrize(
    "scheme", TABLE_SCHEMES, ids=["-".join(map(str, s)) for s in TABLE_SCHEMES]
)
class TestPageTables:
    """Per-level page tables reproduce the per-copy ``page_intervals``
    walk, which stays the definition."""

    def test_every_page_matches_the_walk(self, scheme, materialized):
        place = _placement(*scheme, materialized)
        p = place.params
        q, k = p.q, p.k
        for level in range(1, k + 1):
            per = p.pages_per_module(level)
            keys = np.arange(p.num_pages(level))
            # The page's chain: its module, then one full neighbour row
            # per level indexed by the key's branch digits.
            chains = np.zeros((keys.size, k), dtype=np.int64)
            chains[:, level - 1] = keys // per
            for j in range(level, k):
                digit = (keys % per) // q ** (k - 1 - j) % q
                nbrs = place.graphs[j].neighbors(chains[:, j - 1])
                chains[:, j] = nbrs[np.arange(keys.size), digit]
            zeros = np.zeros_like(keys)
            start, stop = place.page_intervals(level, zeros, zeros, chains)
            table = place.page_table(level)
            np.testing.assert_array_equal(table[0], start)
            np.testing.assert_array_equal(table[1], stop)
            for got, want in zip(table[2:], _reference_span(start, stop)):
                np.testing.assert_array_equal(got, want)
        if k == 1:  # the level-1 table is the outermost module range
            u = np.arange(p.m[1])
            nS = p.n * SCALE
            np.testing.assert_array_equal(place.page_table(1)[0], u * nS // p.m[1])

    def test_random_copies_match_the_walk(self, scheme, materialized):
        place = _placement(*scheme, materialized)
        p = place.params
        rng = np.random.default_rng(p.n + p.q + p.k)
        v = rng.integers(0, p.num_variables, 2000)
        paths = rng.integers(0, p.redundancy, 2000)
        start, _ = place.page_intervals(0, v, paths)
        nodes = place.mesh.node_of_rank(start // SCALE)
        chains = place.chains(v, paths)
        keys1 = place.page_keys(1, v, paths)
        np.testing.assert_array_equal(place.copy_nodes(v, paths), nodes)
        np.testing.assert_array_equal(place.copy_nodes(v, paths, chains), nodes)
        np.testing.assert_array_equal(place.copy_nodes(v, paths, keys=keys1), nodes)
        for level in range(0, p.k + 1):
            want = _reference_span(*place.page_intervals(level, v, paths))
            got = place.page_node_spans(level, v, paths)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
            if level:
                keys = place.page_keys(level, v, paths)
                got = place.page_node_spans(level, v, paths, keys=keys)
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])


class TestFacade:
    def test_initial_target_masks(self, small):
        masks = small.initial_target_masks(5)
        assert masks.shape == (5, small.redundancy)
        assert small.is_target_set(masks).all()

    def test_describe_contains_structure(self, small):
        text = small.describe()
        assert "BIBD" in text
        assert "copies" in text

    def test_placement_mesh_mismatch_rejected(self):
        params = HMOSParams(n=64, alpha=1.5, q=3, k=2)
        with pytest.raises(ValueError):
            Placement(params, Mesh(16))
