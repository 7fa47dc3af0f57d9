"""Tests for Morton encoding, mesh topology and regions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mesh import (
    Mesh,
    Region,
    Tessellation,
    morton_decode,
    morton_encode,
    split_region,
)


class TestMorton:
    def test_known_values(self):
        # (row=0,col=0)->0, (0,1)->1, (1,0)->2, (1,1)->3 (2x2 Z pattern)
        assert int(morton_encode(0, 0, 1)) == 0
        assert int(morton_encode(0, 1, 1)) == 1
        assert int(morton_encode(1, 0, 1)) == 2
        assert int(morton_encode(1, 1, 1)) == 3

    @given(st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1))
    def test_roundtrip(self, row, col):
        rank = morton_encode(row, col, 10)
        r, c = morton_decode(rank, 10)
        assert (int(r), int(c)) == (row, col)

    def test_bijection_small(self):
        rows, cols = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        ranks = morton_encode(rows.ravel(), cols.ravel(), 3)
        assert sorted(ranks.tolist()) == list(range(64))

    def test_aligned_range_is_square(self):
        """Aligned 4^b Morton ranges are 2^b x 2^b squares — the property
        that makes Morton tessellations genuine submeshes."""
        for start in range(0, 64, 16):
            rows, cols = morton_decode(np.arange(start, start + 16), 3)
            assert rows.max() - rows.min() == 3
            assert cols.max() - cols.min() == 3

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            morton_encode(4, 0, 2)
        with pytest.raises(ValueError):
            morton_decode(16, 2)


class TestMesh:
    def test_basic_properties(self):
        mesh = Mesh(8)
        assert mesh.n == 64
        assert mesh.diameter == 14
        assert mesh.bits == 3

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Mesh(6)

    def test_coords_roundtrip(self):
        mesh = Mesh(16)
        ids = np.arange(mesh.n)
        row, col = mesh.coords(ids)
        np.testing.assert_array_equal(mesh.node_id(row, col), ids)

    def test_morton_roundtrip(self):
        mesh = Mesh(8)
        ids = np.arange(mesh.n)
        np.testing.assert_array_equal(mesh.node_of_rank(mesh.rank_of(ids)), ids)

    def test_morton_is_permutation(self):
        mesh = Mesh(8)
        ranks = mesh.rank_of(np.arange(mesh.n))
        assert sorted(ranks.tolist()) == list(range(mesh.n))

    def test_distance(self):
        mesh = Mesh(4)
        assert int(mesh.distance(0, 15)) == 6  # (0,0) -> (3,3)
        assert int(mesh.distance(5, 5)) == 0

    def test_neighbors_degree_bounded(self):
        mesh = Mesh(4)
        for node in range(mesh.n):
            nbrs = mesh.neighbors(node)
            assert 2 <= len(nbrs) <= 4
            for nb in nbrs:
                assert int(mesh.distance(node, nb)) == 1

    def test_corner_neighbors(self):
        mesh = Mesh(4)
        assert sorted(mesh.neighbors(0)) == [1, 4]

    def test_rejects_bad_ids(self):
        mesh = Mesh(4)
        with pytest.raises(ValueError):
            mesh.coords(16)
        with pytest.raises(ValueError):
            mesh.node_of_rank(-1)


class TestRegions:
    def test_region_validation(self):
        with pytest.raises(ValueError):
            Region(3, 3)
        with pytest.raises(ValueError):
            Region(-1, 3)

    def test_membership_and_local_index(self):
        region = Region(4, 10)
        assert region.size == 6
        np.testing.assert_array_equal(
            region.contains(np.array([3, 4, 9, 10])), [False, True, True, False]
        )
        np.testing.assert_array_equal(region.local_index(np.array([4, 9])), [0, 5])
        np.testing.assert_array_equal(region.nth(np.array([0, 5])), [4, 9])

    def test_local_index_rejects_outside(self):
        with pytest.raises(ValueError):
            Region(0, 4).local_index(4)

    def test_split_even(self):
        parts = split_region(Region(0, 12), 3)
        assert [p.size for p in parts] == [4, 4, 4]

    def test_split_uneven_sizes_differ_by_one(self):
        parts = split_region(Region(0, 13), 4)
        sizes = [p.size for p in parts]
        assert sum(sizes) == 13
        assert max(sizes) - min(sizes) <= 1

    def test_split_rejects_too_many_parts(self):
        with pytest.raises(ValueError):
            split_region(Region(0, 3), 4)

    def test_split_covers_contiguously(self):
        parts = split_region(Region(5, 30), 7)
        assert parts[0].start == 5
        assert parts[-1].stop == 30
        for a, b in zip(parts, parts[1:]):
            assert a.stop == b.start

    @given(st.integers(1, 200), st.integers(1, 50))
    def test_split_property(self, size, parts):
        if parts > size:
            return
        out = split_region(Region(0, size), parts)
        assert sum(p.size for p in out) == size
        assert max(p.size for p in out) - min(p.size for p in out) <= 1


class TestTessellation:
    def test_uniform(self):
        tess = Tessellation.uniform(64, 4)
        assert tess.num_regions == 4
        assert tess.max_region_size() == 16

    def test_region_of(self):
        tess = Tessellation.uniform(12, 3)
        np.testing.assert_array_equal(
            tess.region_of(np.array([0, 3, 4, 11])), [0, 0, 1, 2]
        )

    def test_region_of_rejects_outside(self):
        with pytest.raises(ValueError):
            Tessellation.uniform(12, 3).region_of(12)

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            Tessellation([Region(0, 3), Region(4, 6)])

    def test_nested_refinement(self):
        outer = Tessellation.uniform(64, 4)
        inner = Tessellation(
            [r for reg in outer.regions for r in split_region(reg, 4)]
        )
        # Every inner region nests in exactly one outer region.
        for r in inner.regions:
            outer_idx = tuple(np.unique(outer.region_of(np.arange(r.start, r.stop))))
            assert len(outer_idx) == 1
