"""Square mesh topology: coordinates, space-filling ranks, distances.

Node identity convention used throughout the code base:

* a *node id* is the row-major linear index ``row * side + col``;
* a *rank* is the node's position along the mesh's space-filling curve
  (Morton/Z-order by default; Hilbert and plain row-major are available
  for the placement-locality ablation E16).

The HMOS placement works in ranks (contiguous ranges = submeshes); the
routing engine works in coordinates.  :class:`Mesh` converts between the
representations with vectorized O(1) maps.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.hilbert import hilbert_decode, hilbert_encode
from repro.mesh.morton import morton_decode, morton_encode
from repro.util.intmath import is_power_of
from repro.util.validate import check_positive

__all__ = ["Mesh", "CURVES"]

CURVES = ("morton", "hilbert", "row")

#: Largest mesh whose curve rank tables are memoized.
_TABLE_MAX_N = 1 << 20


class Mesh:
    """An ``side x side`` mesh-connected computer (``n = side**2`` nodes).

    ``side`` must be a power of two so that curve ranges tessellate the
    mesh into well-shaped submeshes at every scale.  ``curve`` selects
    the space-filling order used for tessellations:

    * ``"morton"`` (default) — Z-order; aligned ``4^b`` ranges are exact
      squares;
    * ``"hilbert"`` — strictly better worst-case range diameter (every
      range of t nodes spans ``O(sqrt(t))`` with a smaller constant);
    * ``"row"`` — row-major strips; deliberately poor locality, kept as
      the ablation baseline.
    """

    def __init__(self, side: int, curve: str = "morton"):
        check_positive("side", side)
        if not is_power_of(side, 2):
            raise ValueError(f"mesh side must be a power of 2, got {side}")
        if curve not in CURVES:
            raise ValueError(f"curve must be one of {CURVES}, got {curve!r}")
        self.side = int(side)
        self.n = self.side * self.side
        self.bits = self.side.bit_length() - 1
        self.curve = curve
        # Lazily memoized curve rank tables (rank -> node and inverse).
        # One vectorized decode over all n ranks replaces a per-call
        # decode in every placement/routing query; meshes above the
        # threshold keep the direct arithmetic path.
        self._rank_to_node: np.ndarray | None = None
        self._node_to_rank: np.ndarray | None = None

    def _tables(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The memoized ``(rank -> node, node -> rank)`` tables, built on
        first use; None for curves/sizes where they don't pay off."""
        if self.curve == "row" or self.n > _TABLE_MAX_N:
            return None
        if self._rank_to_node is None:
            ranks = np.arange(self.n, dtype=np.int64)
            if self.curve == "hilbert":
                row, col = hilbert_decode(ranks, self.bits)
            else:
                row, col = morton_decode(ranks, self.bits)
            table = row * self.side + col
            inverse = np.empty(self.n, dtype=np.int64)
            inverse[table] = np.arange(self.n, dtype=np.int64)
            self._rank_to_node = table
            self._node_to_rank = inverse
        return self._rank_to_node, self._node_to_rank

    # -- conversions -------------------------------------------------------

    def coords(self, node_ids) -> tuple[np.ndarray, np.ndarray]:
        """Node id -> ``(row, col)``."""
        ids = self._check(node_ids)
        return ids // self.side, ids % self.side

    def node_id(self, row, col) -> np.ndarray:
        """``(row, col)`` -> node id."""
        row = np.asarray(row, dtype=np.int64)
        col = np.asarray(col, dtype=np.int64)
        if np.any((row < 0) | (row >= self.side) | (col < 0) | (col >= self.side)):
            raise ValueError("coordinates out of range")
        return row * self.side + col

    def rank_of(self, node_ids) -> np.ndarray:
        """Node id -> rank along the mesh's space-filling curve."""
        ids = self._check(node_ids)
        if self.curve == "row":
            return ids.copy()
        tables = self._tables()
        if tables is not None:
            return tables[1][ids]
        row, col = ids // self.side, ids % self.side
        if self.curve == "hilbert":
            return hilbert_encode(row, col, self.bits)
        return morton_encode(row, col, self.bits)

    def node_of_rank(self, ranks) -> np.ndarray:
        """Rank along the curve -> node id."""
        ranks = np.asarray(ranks, dtype=np.int64)
        if np.any((ranks < 0) | (ranks >= self.n)):
            raise ValueError(f"rank out of range [0, {self.n})")
        if self.curve == "row":
            return ranks.copy()
        tables = self._tables()
        if tables is not None:
            return tables[0][ranks]
        if self.curve == "hilbert":
            row, col = hilbert_decode(ranks, self.bits)
        else:
            row, col = morton_decode(ranks, self.bits)
        return row * self.side + col

    def _check(self, node_ids) -> np.ndarray:
        ids = np.asarray(node_ids, dtype=np.int64)
        if np.any((ids < 0) | (ids >= self.n)):
            raise ValueError(f"node id out of range [0, {self.n})")
        return ids

    # -- metric ------------------------------------------------------------

    def distance(self, a, b) -> np.ndarray:
        """L1 (hop) distance between nodes."""
        ra, ca = self.coords(a)
        rb, cb = self.coords(b)
        return np.abs(ra - rb) + np.abs(ca - cb)

    def neighbors(self, node_id: int) -> list[int]:
        """The <= 4 mesh neighbors of one node (bounded degree witness)."""
        row, col = (int(x) for x in self.coords(node_id))
        out = []
        if row > 0:
            out.append(node_id - self.side)
        if row < self.side - 1:
            out.append(node_id + self.side)
        if col > 0:
            out.append(node_id - 1)
        if col < self.side - 1:
            out.append(node_id + 1)
        return out

    @property
    def diameter(self) -> int:
        """Worst-case hop distance ``2 (side - 1)``."""
        return 2 * (self.side - 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Mesh({self.side}x{self.side}, n={self.n}, curve={self.curve})"
