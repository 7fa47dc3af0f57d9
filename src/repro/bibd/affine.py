"""The explicit ``(q^d, q)``-BIBD of [PP93a]: lines of AG(d, q).

Encoding (paper appendix).  An input (line) is a pair ``Phi(h, A, B)``::

    base      = (a_{d-2}, ..., a_h, 0, a_{h-1}, ..., a_1, a_0)
    direction = (0, ..., 0, 1, b_{h-1}, ..., b_1, b_0)

with ``h`` the position of the leading 1 of the (monic-normalized)
direction, ``A in [0, q^{d-1})`` the base-q integer of the remaining base
coordinates and ``B in [0, q^h)`` that of the direction tail.  The line's
q points (its BIBD neighbors) are ``base + x * direction`` for every
``x in GF(q)``.

Input ids enumerate ``(h, B, A)`` lexicographically::

    id(h, A, B) = q^{d-1} * (q^h - 1)/(q - 1)  +  B * q^{d-1}  +  A

This order is exactly the one the appendix's balanced prefix selection
(V1 | V2 | V3) requires, so a :class:`repro.bibd.BalancedSubgraph` is
simply "the first m inputs".

Points stay integer ids ``sum_j p_j q^j``.  An id splits into blocks of
w base-q digits, and the digit-wise GF(q) sum or scaling of a block is
one lookup in a per-field table, ``add[u*Q + v]`` or ``scale[x*Q + v]``
with ``Q = q^w``.  The tables hold at most ``_TABLE_CAP`` entries (q^2
when w = 1 exceeds that) whatever the number of points, so incidence
still needs only constant internal storage.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.ff import get_field
from repro.util.intmath import digits_from_int, int_from_digits
from repro.util.validate import check_positive

__all__ = ["AffineBIBD", "bibd_num_inputs"]

# Most entries a block table may hold; the add table has q^(2w).
_TABLE_CAP = 1 << 16


def bibd_num_inputs(q: int, d: int) -> int:
    """Number of inputs (lines) ``f(d) = q^{d-1} (q^d - 1)/(q - 1)``."""
    check_positive("q", q, minimum=2)
    check_positive("d", d, minimum=1)
    return q ** (d - 1) * (q**d - 1) // (q - 1)


def _block_width(q: int, d: int) -> int:
    """Width w of the fewest w-digit blocks that cover d digits with
    ``q^(2w) <= _TABLE_CAP``; 1 when even ``q^2`` exceeds the cap."""
    blocks = 1
    while True:
        w = -(-d // blocks)
        if w == 1 or q ** (2 * w) <= _TABLE_CAP:
            return w
        blocks += 1


@functools.lru_cache(maxsize=None)
def _block_tables(q: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """GF(q) digit-wise ``add[u*Q + v]`` and ``scale[x*Q + v]`` on w-digit
    blocks ``u, v < Q = q^w`` and field elements ``x``.  Built on first
    use and kept for the process; the arrays are read-only."""
    fld = get_field(q)
    digits = digits_from_int(np.arange(q**w), q, w)  # (Q, w)
    add = int_from_digits(fld.add(digits[:, None], digits[None]), q).ravel()
    scale = int_from_digits(fld.mul(fld.elements()[:, None, None], digits), q).ravel()
    for table in (add, scale):
        table.flags.writeable = False
    return add, scale


class AffineBIBD:
    """Explicit ``(q^d, q)``-BIBD with arithmetic (storage-free) incidence.

    Parameters
    ----------
    q : int
        Prime power; the block size (line length) and input degree.
    d : int
        Dimension; there are ``q^d`` outputs (points).

    Notes
    -----
    All id-typed arguments are vectorized: methods accept ints or int64
    arrays and broadcast.  No adjacency is ever materialized, matching the
    constant-internal-storage claim of [PP93a].
    """

    def __init__(self, q: int, d: int):
        self.field = get_field(q)
        self.q = int(q)
        self.d = check_positive("d", d, minimum=1)
        self.num_outputs = self.q**self.d
        self.num_inputs = bibd_num_inputs(self.q, self.d)
        # Per-h offsets of the input id space: offset[h] = q^{d-1}*(q^h-1)/(q-1).
        geo = (self.q ** np.arange(self.d + 1, dtype=np.int64) - 1) // (self.q - 1)
        self._offsets = self.q ** (self.d - 1) * geo  # length d+1; [d] = num_inputs
        self.input_degree = self.q
        self.output_degree = (self.q**self.d - 1) // (self.q - 1)
        self._width = _block_width(self.q, self.d)

    # -- id codecs --------------------------------------------------------

    def decode_inputs(self, ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized ``id -> (h, A, B)``."""
        ids = self._check_ids(ids, self.num_inputs, "input")
        h = (np.searchsorted(self._offsets, ids, side="right") - 1).astype(np.int64)
        rem = ids - self._offsets[h]
        qd1 = self.q ** (self.d - 1)
        B = rem // qd1
        A = rem % qd1
        return h, A, B

    def encode_inputs(self, h, A, B) -> np.ndarray:
        """Vectorized ``(h, A, B) -> id`` (inverse of :meth:`decode_inputs`)."""
        h = np.asarray(h, dtype=np.int64)
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        if np.any((h < 0) | (h >= self.d)):
            raise ValueError("h out of range")
        if np.any((A < 0) | (A >= self.q ** (self.d - 1))):
            raise ValueError("A out of range")
        if np.any((B < 0) | (B >= self.q**h)):
            raise ValueError("B out of range")
        return self._offsets[h] + B * self.q ** (self.d - 1) + A

    def _check_ids(self, ids, size: int, kind: str) -> np.ndarray:
        arr = np.asarray(ids, dtype=np.int64)
        if np.any((arr < 0) | (arr >= size)):
            raise ValueError(f"{kind} id out of range [0, {size})")
        return arr

    # -- geometry ---------------------------------------------------------

    def _axpy(self, u, x, v) -> np.ndarray:
        """Point ids of ``u + x * v`` in AG(d, q), digit by digit in GF(q).

        Ids are split into ``w``-digit blocks; each block is one lookup
        in the scale table and one in the add table.  Broadcasts.
        """
        add, scale = _block_tables(self.q, self._width)
        Q = self.q**self._width
        out = 0
        for j in reversed(range(-(-self.d // self._width))):
            block = scale[x * Q + v // Q**j % Q] + u // Q**j % Q * Q
            out = out * Q + add[block]
        return out

    def _line_ids(self, input_ids) -> tuple[np.ndarray, np.ndarray]:
        """Point ids of each line's base (digit h is 0) and direction
        (digit h is 1, B's digits below it).  Separate from
        :meth:`neighbors` so the decoded arrays are freed before its
        ``(q, ...)`` passes, which set the build's peak memory."""
        h, A, B = self.decode_inputs(input_ids)
        qh = self.q**h
        return A % qh + A // qh * (qh * self.q), qh + B

    def neighbors(self, input_ids) -> np.ndarray:
        """Output ids of the q points on each line; shape ``(..., q)``.

        Neighbor ``[..., x]`` is the point ``base + x * direction`` — the
        slot index x is the field element multiplying the direction, which
        gives every input a canonical 0..q-1 labelling of its edges (these
        labels are the "which copy" digits of the HMOS copy trees).
        """
        base, direction = self._line_ids(input_ids)
        # Slot axis first, so every NumPy pass runs along the long id axis.
        x = self.field.elements().reshape((-1,) + (1,) * base.ndim)
        pts = self._axpy(base, x, direction)
        return np.ascontiguousarray(np.moveaxis(pts, 0, -1))

    def line_through(self, u1, u2) -> np.ndarray:
        """The unique input (line) through two *distinct* points.

        This is the constructive witness of the lambda = 1 property: the
        direction is ``u2 - u1`` normalized monic, and the base point is
        the point of the line whose h-th coordinate is zero.
        """
        u1 = self._check_ids(u1, self.num_outputs, "output")
        u2 = self._check_ids(u2, self.num_outputs, "output")
        if np.any(u1 == u2):
            raise ValueError("line_through requires distinct points")
        fld = self.field
        p1 = digits_from_int(u1, self.q, self.d)
        p2 = digits_from_int(u2, self.q, self.d)
        delta = fld.sub(p2, p1)  # (..., d), non-zero somewhere
        # h = highest index with delta != 0
        nz = delta != 0
        pos = np.arange(self.d, dtype=np.int64)
        h = np.max(np.where(nz, pos, -1), axis=-1)
        lead = np.take_along_axis(delta, h[..., None], axis=-1)[..., 0]
        direction = fld.mul(delta, fld.inv(lead)[..., None])
        # Base point: p1 - p1[h] * direction  (h-th coordinate becomes 0).
        coeff = np.take_along_axis(p1, h[..., None], axis=-1)[..., 0]
        base = fld.sub(p1, fld.mul(coeff[..., None], direction))
        return self._encode_line(h, base, direction)

    def _encode_line(self, h, base, direction) -> np.ndarray:
        """Encode (h, base digits, direction digits) back to an input id."""
        d, q = self.d, self.q
        hf = np.asarray(h, dtype=np.int64).reshape(-1)
        basef = base.reshape(-1, d)
        dirf = direction.reshape(-1, d)
        n = hf.size
        a = np.zeros((n, max(d - 1, 1)), dtype=np.int64)
        b = np.zeros((n, max(d - 1, 1)), dtype=np.int64)
        for j in range(d):
            sel_below = hf > j
            sel_above = hf < j
            if j < d - 1:
                a[sel_below, j] = basef[sel_below, j]
            if j >= 1:
                a[sel_above, j - 1] = basef[sel_above, j]
            if j < b.shape[1]:
                b[sel_below, j] = dirf[sel_below, j]
        A = int_from_digits(a, q) if d > 1 else np.zeros(n, dtype=np.int64)
        B = int_from_digits(b, q)
        out = self.encode_inputs(hf, A, B)
        return out.reshape(np.asarray(h).shape)

    def line_through_with_params(self, u, h, B) -> np.ndarray:
        """The unique ``A`` with line ``Phi(h, A, B)`` passing through point u.

        Used by the balanced subgraph to compute output degrees and input
        ranks without enumeration: for fixed (h, B) the lines partition
        the points, so each point determines A.
        """
        u = self._check_ids(u, self.num_outputs, "output")
        qh = self.q ** np.asarray(h, dtype=np.int64)
        direction = qh + B
        # x = u[h]; base = u - x * direction; A = base digits minus pos h.
        x = u // qh % self.q
        base = self._axpy(u, self.field.neg(x), direction)
        return np.asarray(base % qh + base // (qh * self.q) * qh)

    def input_rank_at_output(self, input_ids, output_ids) -> np.ndarray:
        """Rank (0-based) of a line among all lines through a given point.

        Lines through a point, listed in input-id order, are ordered by
        ``(h, B)`` with exactly one line per pair, so the rank is the
        closed form ``(q^h - 1)/(q - 1) + B`` — O(1) per query, which is
        what makes the HMOS memory map constant-storage.

        ``output_ids`` is accepted (and validated for incidence) so the
        subgraph subclass can share the signature.
        """
        h, A, B = self.decode_inputs(input_ids)
        expected_A = self.line_through_with_params(output_ids, h, B)
        if np.any(expected_A != A):
            raise ValueError("input is not incident to output")
        return (self.q**h - 1) // (self.q - 1) + B

    def input_rank(self, input_ids) -> np.ndarray:
        """Rank of each line at *any* of its points: ``(q^h-1)/(q-1) + B``.

        The rank depends only on the line's own ``(h, B)`` pair, never on
        which incident point is asked, so callers that already hold a
        valid incidence (e.g. a copy chain) can skip the incidence check
        of :meth:`input_rank_at_output`.
        """
        h, _, B = self.decode_inputs(input_ids)
        return (self.q**h - 1) // (self.q - 1) + B

    def adjacent_inputs(self, output_id: int) -> np.ndarray:
        """All lines through one point, in rank order (size ``output_degree``).

        Enumerative (O(degree) work) — used for audits and page layout,
        not on hot paths.
        """
        hs = []
        Bs = []
        for h in range(self.d):
            count = self.q**h
            hs.append(np.full(count, h, dtype=np.int64))
            Bs.append(np.arange(count, dtype=np.int64))
        h = np.concatenate(hs)
        B = np.concatenate(Bs)
        u = np.full(h.shape, output_id, dtype=np.int64)
        A = self.line_through_with_params(u, h, B)
        return self.encode_inputs(h, A, B)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AffineBIBD(q={self.q}, d={self.d})"
