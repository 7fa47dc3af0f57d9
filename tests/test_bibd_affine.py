"""Tests for the explicit (q^d, q)-BIBD construction (lines of AG(d, q))."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bibd import (
    AffineBIBD,
    BalancedSubgraph,
    bibd_num_inputs,
    verify_input_degrees,
    verify_lambda_one,
)
from repro.bibd.affine import _TABLE_CAP, _block_width
from repro.util.intmath import digits_from_int, int_from_digits

CASES = [(2, 2), (3, 2), (3, 3), (4, 2), (5, 2), (7, 2), (9, 2), (2, 4)]


# -- reference: the Phi(h, A, B) definition on base-q digit vectors --------


def _ref_line_vectors(design, ids):
    """Return (base, direction) digit vectors, shape (..., d), LSD first."""
    h, A, B = design.decode_inputs(ids)
    d, q = design.d, design.q
    a = digits_from_int(A, q, d - 1)  # (..., d-1)
    b = digits_from_int(B, q, d - 1)  # only the first h digits are used
    shape = h.shape + (d,)
    base = np.zeros(shape, dtype=np.int64)
    direction = np.zeros(shape, dtype=np.int64)
    hf = h.reshape(-1)
    af = a.reshape(-1, d - 1)
    bf = b.reshape(-1, b.shape[-1])
    basef = base.reshape(-1, d)
    dirf = direction.reshape(-1, d)
    for j in range(d):
        below_j = hf > j
        above_j = hf < j
        at_j = hf == j
        # base: a_j below h, 0 at h, a_{j-1} above h
        basef[below_j, j] = af[below_j, j] if j < d - 1 else 0
        if j >= 1:
            basef[above_j, j] = af[above_j, j - 1]
        dirf[at_j, j] = 1
        if j < bf.shape[1]:
            dirf[below_j, j] = bf[below_j, j]
    return base, direction


def ref_neighbors(design, input_ids):
    """``base + x * direction`` for every x, digit by digit (d >= 2)."""
    base, direction = _ref_line_vectors(design, input_ids)
    fld = design.field
    x = fld.elements()
    pts = fld.add(base[..., None, :], fld.mul(x[:, None], direction[..., None, :]))
    return int_from_digits(pts, design.q)


def ref_line_through_with_params(design, u, h, B):
    """A of the line Phi(h, A, B) through u, digit by digit (d >= 2)."""
    u = np.asarray(u, dtype=np.int64)
    h = np.asarray(h, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    fld, d, q = design.field, design.d, design.q
    pts = digits_from_int(u, q, d)
    b = digits_from_int(B, q, d - 1)
    # x = u[h]; base = u - x * direction; A = base digits minus pos h.
    hb = np.broadcast_to(h, u.shape)
    x = np.take_along_axis(pts, hb[..., None], axis=-1)[..., 0]
    shape = np.broadcast_shapes(pts.shape[:-1], hb.shape)
    direction = np.zeros(shape + (d,), dtype=np.int64)
    dirf = direction.reshape(-1, d)
    hf = np.broadcast_to(hb, shape).reshape(-1)
    bf = np.broadcast_to(b, shape + (b.shape[-1],)).reshape(-1, b.shape[-1])
    for j in range(d):
        dirf[hf == j, j] = 1
        if j < bf.shape[1]:
            below_j = hf > j
            dirf[below_j, j] = bf[below_j, j]
    base = fld.sub(pts, fld.mul(x[..., None], direction))
    basef = base.reshape(-1, d)
    a = np.zeros((basef.shape[0], d - 1), dtype=np.int64)
    for j in range(d):
        below_j = hf > j
        above_j = hf < j
        if j < d - 1:
            a[below_j, j] = basef[below_j, j]
        if j >= 1:
            a[above_j, j - 1] = basef[above_j, j]
    return int_from_digits(a, q).reshape(shape)


def _same(got, want):
    assert type(got) is type(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def _every_point_and_param(design):
    """Every (u, h, B) triple as three equal-shaped 2-D arrays."""
    h = np.concatenate([np.full(design.q**j, j) for j in range(design.d)])
    B = np.concatenate([np.arange(design.q**j) for j in range(design.d)])
    u = np.arange(design.num_outputs)
    return np.broadcast_arrays(u[:, None], h[None, :], B[None, :])


def _sampled_params(design, rng, size):
    u = rng.integers(0, design.num_outputs, size)
    h = rng.integers(0, design.d, size)
    return u, h, rng.integers(0, design.q**h)


class TestBlockArithmetic:
    """Integer point ids through digit-block tables equal the digit-vector
    definition of the lines, bit for bit."""

    @pytest.mark.parametrize(
        "q,d", [(2, 5), (3, 4), (4, 3), (5, 3), (7, 2), (8, 2), (9, 2)]
    )
    def test_every_input(self, q, d):
        design = AffineBIBD(q, d)
        ids = np.arange(design.num_inputs)
        _same(design.neighbors(ids), ref_neighbors(design, ids))
        u, h, B = _every_point_and_param(design)
        _same(
            design.line_through_with_params(u, h, B),
            ref_line_through_with_params(design, u, h, B),
        )

    @pytest.mark.parametrize("q,d,blocks", [(3, 7, 2), (3, 9, 2), (2, 17, 3)])
    def test_sampled_inputs_across_blocks(self, q, d, blocks):
        assert -(-d // _block_width(q, d)) == blocks
        design = AffineBIBD(q, d)
        rng = np.random.default_rng(q * 100 + d)
        ids = rng.integers(0, design.num_inputs, 20_000)
        _same(design.neighbors(ids), ref_neighbors(design, ids))
        u, h, B = _sampled_params(design, rng, 20_000)
        _same(
            design.line_through_with_params(u, h, B),
            ref_line_through_with_params(design, u, h, B),
        )

    def test_scalar_2d_and_broadcast_arguments(self):
        design = AffineBIBD(3, 4)
        for ids in (7, np.int64(1079), np.arange(12).reshape(3, 4)):
            _same(design.neighbors(ids), ref_neighbors(design, ids))
        u = np.arange(81).reshape(9, 9)
        rows = np.arange(9)[:, None]
        h = rows % 4
        for args in [
            (40, 2, 5),
            (u, np.int64(2), np.int64(5)),
            (u, 3, 26),
            (u, h, rows * 7 % 3**h),
        ]:
            _same(
                design.line_through_with_params(*args),
                ref_line_through_with_params(design, *args),
            )

    def test_field_beyond_the_table_cap(self):
        """Even q^2 exceeds the cap: the blocking stops at width 1."""
        q, d = 257, 2
        assert q**2 > _TABLE_CAP and _block_width(q, d) == 1
        design = AffineBIBD(q, d)
        rng = np.random.default_rng(257)
        ids = rng.integers(0, design.num_inputs, 5_000)
        _same(design.neighbors(ids), ref_neighbors(design, ids))
        u, h, B = _sampled_params(design, rng, 5_000)
        _same(
            design.line_through_with_params(u, h, B),
            ref_line_through_with_params(design, u, h, B),
        )

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_one_dimensional_design_lists_its_line(self, q):
        """AG(1, q) has one line, through all q points in field order."""
        design = AffineBIBD(q, 1)
        _same(design.neighbors(0), np.arange(q, dtype=np.int64))
        nbr, rank, outdeg = BalancedSubgraph(q, 1, 1).tables()
        np.testing.assert_array_equal(nbr, np.arange(q)[None, :])
        assert rank.tolist() == [0] and outdeg.tolist() == [1] * q


class TestCounts:
    @pytest.mark.parametrize("q,d", CASES)
    def test_input_count_formula(self, q, d):
        assert bibd_num_inputs(q, d) == q ** (d - 1) * (q**d - 1) // (q - 1)

    def test_known_small(self):
        # AG(2,3): 9 points, 12 lines.
        assert bibd_num_inputs(3, 2) == 12
        assert AffineBIBD(3, 2).num_outputs == 9

    def test_degree_formulas(self):
        design = AffineBIBD(3, 3)
        assert design.input_degree == 3
        assert design.output_degree == (27 - 1) // 2  # (m-1)/(q-1)


class TestCodec:
    @pytest.mark.parametrize("q,d", CASES)
    def test_roundtrip_all_ids(self, q, d):
        design = AffineBIBD(q, d)
        ids = np.arange(design.num_inputs)
        h, A, B = design.decode_inputs(ids)
        np.testing.assert_array_equal(design.encode_inputs(h, A, B), ids)

    def test_h_ranges(self):
        design = AffineBIBD(3, 2)
        h, A, B = design.decode_inputs(np.arange(design.num_inputs))
        assert h.min() == 0 and h.max() == 1
        assert np.all(B < 3**h)

    def test_rejects_out_of_range(self):
        design = AffineBIBD(3, 2)
        with pytest.raises(ValueError):
            design.decode_inputs(design.num_inputs)
        with pytest.raises(ValueError):
            design.neighbors(-1)


class TestIncidence:
    @pytest.mark.parametrize("q,d", CASES)
    def test_neighbors_distinct(self, q, d):
        design = AffineBIBD(q, d)
        nbrs = design.neighbors(np.arange(design.num_inputs))
        assert nbrs.shape == (design.num_inputs, q)
        for row in nbrs:
            assert len(set(row.tolist())) == q

    @pytest.mark.parametrize("q,d", CASES)
    def test_lambda_one(self, q, d):
        sample = None if AffineBIBD(q, d).num_outputs <= 128 else 500
        verify_lambda_one(AffineBIBD(q, d), sample=sample)

    @pytest.mark.parametrize("q,d", [(2, 2), (3, 2), (3, 3), (4, 2), (5, 2)])
    def test_output_degrees_uniform(self, q, d):
        verify_input_degrees(AffineBIBD(q, d))

    @pytest.mark.parametrize("q,d", CASES)
    def test_line_through_incident(self, q, d):
        design = AffineBIBD(q, d)
        rng = np.random.default_rng(1)
        u1 = rng.integers(0, design.num_outputs, size=200)
        u2 = rng.integers(0, design.num_outputs, size=200)
        keep = u1 != u2
        u1, u2 = u1[keep], u2[keep]
        lines = design.line_through(u1, u2)
        nbrs = design.neighbors(lines)
        assert (nbrs == u1[:, None]).any(axis=1).all()
        assert (nbrs == u2[:, None]).any(axis=1).all()

    def test_line_through_rejects_equal_points(self):
        with pytest.raises(ValueError):
            AffineBIBD(3, 2).line_through(4, 4)

    @pytest.mark.parametrize("q,d", [(3, 2), (4, 2), (3, 3)])
    def test_line_through_is_canonical(self, q, d):
        """Any two points of a line map back to that same line."""
        design = AffineBIBD(q, d)
        for line in range(design.num_inputs):
            pts = design.neighbors(line)
            for i in range(q):
                for j in range(q):
                    if i != j:
                        assert int(design.line_through(pts[i], pts[j])) == line

    @pytest.mark.parametrize("q,d", [(3, 2), (3, 3), (5, 2), (4, 2)])
    def test_adjacent_inputs(self, q, d):
        design = AffineBIBD(q, d)
        for u in range(0, design.num_outputs, max(1, design.num_outputs // 7)):
            lines = design.adjacent_inputs(u)
            assert lines.size == design.output_degree
            nbrs = design.neighbors(lines)
            assert (nbrs == u).any(axis=1).all()
            # Rank order: ranks are 0..degree-1 in order.
            ranks = design.input_rank_at_output(lines, np.full(lines.shape, u))
            np.testing.assert_array_equal(ranks, np.arange(lines.size))

    def test_rank_rejects_non_incident(self):
        design = AffineBIBD(3, 2)
        line = 0
        non_nbrs = [u for u in range(9) if u not in set(design.neighbors(line).tolist())]
        with pytest.raises(ValueError):
            design.input_rank_at_output(line, non_nbrs[0])

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(CASES), st.data())
    def test_partition_property(self, case, data):
        """For fixed (h, B) the lines partition the points (property test)."""
        q, d = case
        design = AffineBIBD(q, d)
        h = data.draw(st.integers(0, d - 1))
        B = data.draw(st.integers(0, q**h - 1))
        A = design.line_through_with_params(
            np.arange(design.num_outputs), np.int64(h), np.int64(B)
        )
        # Each A value is hit by exactly q points (the line's q points).
        _, counts = np.unique(A, return_counts=True)
        assert (counts == q).all()
        assert A.size == design.num_outputs
