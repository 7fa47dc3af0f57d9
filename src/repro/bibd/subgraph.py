"""Balanced prefix subgraph of a ``(q^d, q)``-BIBD (paper appendix, Thm 5).

Given ``m`` < f(d) desired inputs, the appendix keeps the input sets::

    V1 = { Phi(h, A, B) : h < l }                      (all of levels h < l)
    V2 = { Phi(l, A, B) : B < w }                      (first w direction tails)
    V3 = { Phi(l, A, w) : A < z }                      (partial last tail)

where ``m = q^{d-1} ((q^l - 1)/(q - 1) + w) + z``.  Because our input ids
enumerate ``(h, B, A)`` lexicographically, this selection is exactly the
id prefix ``[0, m)`` — so the subgraph is "the first m lines", and every
output keeps degree ``floor(qm/q^d)`` or ``ceil(qm/q^d)`` (Theorem 5).

The default incidence queries are arithmetic (storage-free, matching the
paper's constant-internal-storage claim); :meth:`BalancedSubgraph
.materialize` trades that storage bound for throughput by precomputing
neighbor/rank/degree tables (``O(m q)`` ints), turning every hot-path
query into a fancy-indexing lookup.  :mod:`repro.cache` memoizes the
materialized graphs in process memory.
"""

from __future__ import annotations

import numpy as np

from repro.bibd.affine import AffineBIBD, bibd_num_inputs
from repro.util.validate import check_positive

__all__ = ["BalancedSubgraph"]


class BalancedSubgraph:
    """The first ``m`` inputs of an :class:`AffineBIBD`, degrees balanced.

    Exposes the same incidence API as the full design restricted to the
    selected inputs.  When ``m == f(d)`` this *is* the full design.

    Attributes
    ----------
    l, w, z : int
        The appendix decomposition ``m = q^{d-1}((q^l-1)/(q-1) + w) + z``.
    rho_min, rho_max : int
        The two possible output degrees (Theorem 5).
    """

    def __init__(self, q: int, d: int, m: int):
        self.design = AffineBIBD(q, d)
        self.q = self.design.q
        self.d = self.design.d
        full = bibd_num_inputs(q, d)
        check_positive("m", m, minimum=1)
        if m > full:
            raise ValueError(f"m={m} exceeds the design's {full} inputs")
        self.num_inputs = m
        self.num_outputs = self.design.num_outputs
        self.input_degree = self.q
        # Decompose m = q^{d-1} ((q^l - 1)/(q - 1) + w) + z.
        qd1 = self.q ** (self.d - 1)
        blocks, self.z = divmod(m, qd1)
        l = 0
        acc = 0
        while l < self.d and acc + self.q**l <= blocks:
            acc += self.q**l
            l += 1
        self.l = l
        self.w = blocks - acc
        # Theorem 5 bounds.
        self.rho_min = (self.q * m) // self.num_outputs
        self.rho_max = -((-self.q * m) // self.num_outputs)
        # Materialized fast-path tables (None until materialize()).
        self._nbr_table: np.ndarray | None = None
        self._rank_table: np.ndarray | None = None
        self._outdeg_table: np.ndarray | None = None

    # -- materialization ---------------------------------------------------

    @property
    def is_materialized(self) -> bool:
        return self._nbr_table is not None

    def materialize(self) -> "BalancedSubgraph":
        """Precompute the incidence tables; idempotent, returns self.

        * ``nbr[i, x]`` — the slot-x neighbor of input ``i``;
        * ``rank[i]`` — the rank of input ``i`` at any incident output;
        * ``outdeg[u]`` — the exact subgraph degree of output ``u``.
        """
        if self._nbr_table is None:
            ids = np.arange(self.num_inputs, dtype=np.int64)
            nbr = self.design.neighbors(ids)
            rank = self.design.input_rank(ids)
            outdeg = self.output_degree(
                np.arange(self.num_outputs, dtype=np.int64)
            )
            self._nbr_table = np.ascontiguousarray(nbr, dtype=np.int64)
            self._rank_table = np.ascontiguousarray(rank, dtype=np.int64)
            self._outdeg_table = np.ascontiguousarray(outdeg, dtype=np.int64)
        return self

    def tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``(nbr, rank, outdeg)`` tables (materializing on demand)."""
        self.materialize()
        return self._nbr_table, self._rank_table, self._outdeg_table

    # -- incidence ---------------------------------------------------------

    def _check_inputs(self, ids) -> np.ndarray:
        arr = np.asarray(ids, dtype=np.int64)
        if np.any((arr < 0) | (arr >= self.num_inputs)):
            raise ValueError(f"input id out of range [0, {self.num_inputs})")
        return arr

    def neighbors(self, input_ids) -> np.ndarray:
        """The q output neighbors of each selected input; shape ``(..., q)``."""
        arr = self._check_inputs(input_ids)
        if self._nbr_table is not None:
            # A row gather: np.take beats fancy indexing several times.
            return np.take(self._nbr_table, arr, axis=0)
        return self.design.neighbors(arr)

    def neighbor_at(self, input_ids, slots) -> np.ndarray:
        """The single slot-``slots`` neighbor of each input (chain hot path).

        Equivalent to ``neighbors(input_ids)[..., slots]`` element-wise,
        without materializing the full ``(..., q)`` block when tables are
        present.
        """
        arr = self._check_inputs(input_ids)
        slots = np.asarray(slots, dtype=np.int64)
        if self._nbr_table is not None:
            return self._nbr_table[arr, slots]
        nbrs = self.design.neighbors(arr)
        return np.take_along_axis(nbrs, slots[..., None], axis=-1)[..., 0]

    def input_rank(self, input_ids) -> np.ndarray:
        """Rank of each selected line at any incident point (no incidence
        check; see :meth:`AffineBIBD.input_rank`)."""
        arr = self._check_inputs(input_ids)
        if self._rank_table is not None:
            return self._rank_table[arr]
        return self.design.input_rank(arr)

    def output_degree(self, output_ids) -> np.ndarray:
        """Exact degree of each output in the subgraph (Theorem 5 witness).

        Every output sees one line per ``(h, B)`` pair, so its degree is
        ``(q^l - 1)/(q - 1) + w`` plus one iff its unique line at
        ``(h=l, B=w)`` has ``A < z``.
        """
        u = np.asarray(output_ids, dtype=np.int64)
        if self._outdeg_table is not None:
            return self._outdeg_table[u]
        base_deg = (self.q**self.l - 1) // (self.q - 1) + self.w
        deg = np.full(u.shape, base_deg, dtype=np.int64)
        if self.z > 0 and self.l < self.d:
            A = self.design.line_through_with_params(
                u, np.int64(self.l), np.int64(self.w)
            )
            deg = deg + (A < self.z)
        return deg

    def input_rank_at_output(self, input_ids, output_ids) -> np.ndarray:
        """Rank of a selected line among selected lines through the point.

        Identical to the full design's closed form because the selection
        is a prefix in ``(h, B)`` order.
        """
        return self.design.input_rank_at_output(input_ids, output_ids)

    def adjacent_inputs(self, output_id: int) -> np.ndarray:
        """Selected lines through one point, in rank order."""
        all_inputs = self.design.adjacent_inputs(output_id)
        return all_inputs[all_inputs < self.num_inputs]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BalancedSubgraph(q={self.q}, d={self.d}, m={self.num_inputs},"
            f" rho=[{self.rho_min},{self.rho_max}])"
        )
