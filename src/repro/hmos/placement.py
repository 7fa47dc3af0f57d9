"""Physical mapping of copies onto the mesh through nested tessellations.

The HMOS is laid out exactly as Section 3.3 prescribes, in Morton-rank
space:

* the *outermost* tessellation gives each of the ``m_k`` level-k modules
  a consecutive Morton range of ``~n/m_k`` nodes;
* recursively, the range of a level-(i+1) page is split among the
  ``p_{i+1}`` level-i pages it contains, each sub-range located by the
  page's *rank* — the O(1) closed-form position of the level-i module
  among the module's BIBD-neighbors (Eq. 3 guarantees the near-even
  split);
* inside its level-1 page, a variable's copy sits at the sub-position
  given by its rank among the module's ``p_1`` copies.

To support meshes too small for every page to own a whole processor
(t_i < 1 — the paper assumes n large enough that t_i >= 1, see
DESIGN.md), ranges are maintained in *virtual* coordinates: ``SCALE``
units per node.  Page ranges may then be narrower than one node, in
which case several pages simply share it; all index arithmetic stays in
exact int64.

A level-i page's range depends only on the page, so the walk runs once
per page, not once per copy: each level i >= 1 keeps a table, indexed
by page key, of every page's interval and node span, built from
:meth:`Placement.page_intervals` on first use.  Level i holds
``num_pages(i) = m_i q^{k-i}`` pages, at most ``q^{k+2} n`` by Eq. (1)
(6,561 level-1 pages at n = 4096), four int64 each.  A copy's node is
its level-1 page's entry plus one refinement by the variable's rank.
The tables are derived, never persisted; the closed-form walk stays the
definition.
"""

from __future__ import annotations

import numpy as np

from repro.bibd.subgraph import BalancedSubgraph
from repro.hmos.params import HMOSParams
from repro.mesh.topology import Mesh
from repro.util.intmath import digits_from_int

__all__ = ["Placement", "SCALE"]

SCALE = 1 << 16  # virtual units per mesh node


class Placement:
    """Copy -> mesh-node map for one HMOS instance."""

    def __init__(
        self,
        params: HMOSParams,
        mesh: Mesh | None = None,
        *,
        graphs: list[BalancedSubgraph] | None = None,
    ):
        self.params = params
        self.mesh = mesh if mesh is not None else Mesh(params.side)
        if self.mesh.n != params.n:
            raise ValueError(
                f"mesh has {self.mesh.n} nodes but params expect {params.n}"
            )
        q, k = params.q, params.k
        # graphs[i] is the bipartite graph U_i -> U_{i+1}: a balanced
        # subgraph of the (q^{d_{i+1}}, q)-BIBD keeping m_i inputs.
        # For i = 0 (variables -> level-1 modules) the subgraph is the
        # full design since m_0 = f(d_1).  Prebuilt (possibly
        # materialized) graphs may be injected by the artifact cache.
        if graphs is not None:
            if len(graphs) != k:
                raise ValueError(f"need {k} level graphs, got {len(graphs)}")
            for i, g in enumerate(graphs):
                if (g.q, g.d, g.num_inputs) != (q, params.d[i], params.m[i]):
                    raise ValueError(
                        f"level-{i + 1} graph {g!r} does not match params"
                    )
            self.graphs = list(graphs)
        else:
            self.graphs = [
                BalancedSubgraph(q, params.d[i], params.m[i]) for i in range(k)
            ]
        self._digit_table: np.ndarray | None = None
        self._page_tables: dict[int, tuple[np.ndarray, ...]] = {}
        for i, g in enumerate(self.graphs):
            if g.num_outputs != params.m[i + 1]:
                raise AssertionError(
                    f"level-{i + 1} graph outputs {g.num_outputs} != m={params.m[i + 1]}"
                )
        self._virtual_total = params.n * SCALE

    # -- copy tree traversal ------------------------------------------------

    def path_digits(self, paths) -> np.ndarray:
        """Path int -> branch digits ``(e_1 .. e_k)``, e_1 first."""
        q, k = self.params.q, self.params.k
        digits = digits_from_int(paths, q, k)  # LSD first
        return digits[..., ::-1]

    @property
    def digit_table(self) -> np.ndarray:
        """Branch digits of all ``q^k`` paths, shape ``(q^k, k)`` (memoized)."""
        if self._digit_table is None:
            self._digit_table = self.path_digits(
                np.arange(self.params.redundancy, dtype=np.int64)
            )
        return self._digit_table

    def chains(self, variables, paths=None) -> np.ndarray:
        """Module chain ``(u_1, ..., u_k)`` of each copy; shape (N, k).

        ``u_1`` is the level-1 module holding the copy, ``u_j`` the
        level-j module holding the enclosing level-(j-1) page.

        Without ``paths``, returns the chains of *every* copy of each
        variable, shape ``(N, q^k, k)``, indexed by path.  Paths are in
        leaf order with ``e_1`` most significant, so level j's modules
        are the q neighbours of level j-1's: one neighbour lookup per
        tree node instead of one per copy and level.
        """
        variables = np.asarray(variables, dtype=np.int64)
        if paths is None:
            q, k = self.params.q, self.params.k
            nodes = variables.reshape(-1, 1)  # the variables: level 0
            out = np.empty((nodes.shape[0], q**k, k), dtype=np.int64)
            for j in range(k):
                nodes = self.graphs[j].neighbors(nodes).reshape(-1, q ** (j + 1))
                # Level j's module is shared by q^(k-1-j) consecutive paths.
                out.reshape(-1, q ** (j + 1), q ** (k - 1 - j), k)[..., j] = nodes[
                    :, :, None
                ]
            return out
        paths = np.asarray(paths, dtype=np.int64)
        variables, paths = np.broadcast_arrays(variables, paths)
        shape = variables.shape
        v = variables.reshape(-1)
        e = self.digit_table[paths.reshape(-1)]  # (N, k)
        n = v.size
        out = np.empty((n, self.params.k), dtype=np.int64)
        cur = v
        for j in range(self.params.k):
            cur = self.graphs[j].neighbor_at(cur, e[:, j])
            out[:, j] = cur
        return out.reshape(*shape, self.params.k)

    # -- intervals ------------------------------------------------------------

    def page_intervals(
        self, level: int, variables, paths, chains: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Virtual interval ``[start, stop)`` of each copy's level-``level``
        page (level k = outermost module range; level 0 = the copy itself).
        """
        params = self.params
        k = params.k
        if not 0 <= level <= k:
            raise ValueError(f"level must be in [0, {k}]")
        variables = np.asarray(variables, dtype=np.int64).reshape(-1)
        paths = np.asarray(paths, dtype=np.int64).reshape(-1)
        if chains is None:
            chains = self.chains(variables, paths)
        chains = chains.reshape(-1, k)
        nS = self._virtual_total
        u_k = chains[:, k - 1]
        start = (u_k * nS) // params.m[k]
        stop = ((u_k + 1) * nS) // params.m[k]
        # Refine: j counts the level whose page interval we are inside.
        for j in range(k, level, -1):
            inner = chains[:, j - 2] if j >= 2 else variables
            rank, parts = self._rank_parts(j, inner, chains[:, j - 1])
            size = stop - start
            new_start = start + (rank * size) // parts
            stop = start + ((rank + 1) * size) // parts
            start = new_start
        return start, stop

    def _rank_parts(self, j: int, inner, u_j) -> tuple[np.ndarray, np.ndarray]:
        """Rank of each level-(j-1) page among the ``parts`` that split
        its level-j page (module ``u_j``)."""
        g = self.graphs[j - 1]  # U_{j-1} -> U_j
        # The chain guarantees (inner, u_j) incidence, so the
        # materialized fast path skips the incidence check; the
        # arithmetic path keeps it as defense in depth.
        if g.is_materialized:
            rank = g.input_rank(inner)
        else:
            rank = g.input_rank_at_output(inner, u_j)
        return rank, g.output_degree(u_j)

    def page_table(self, level: int) -> tuple[np.ndarray, ...]:
        """``(start, stop, first, last)`` of every level-``level`` page
        (``1 <= level <= k``), indexed by page key; built on first use.

        A key names the page's module ``u_level`` and branch digits
        ``(e_{level+1}, ..., e_k)``; one neighbour lookup per level gives
        the rest of its chain, and :meth:`page_intervals` the entry.
        """
        if level not in self._page_tables:
            params, k = self.params, self.params.k
            per_module = params.pages_per_module(level)
            keys = np.arange(params.num_pages(level), dtype=np.int64)
            digits = self.digit_table[keys % per_module]
            chains = np.zeros((keys.size, k), dtype=np.int64)
            chains[:, level - 1] = keys // per_module
            for j in range(level, k):
                chains[:, j] = self.graphs[j].neighbor_at(
                    chains[:, j - 1], digits[:, j]
                )
            # Variables and paths only matter below level 1.
            start, stop = self.page_intervals(level, 0, 0, chains)
            self._page_tables[level] = (start, stop, *_node_span(start, stop))
        return self._page_tables[level]

    def copy_nodes(
        self, variables, paths, chains: np.ndarray | None = None, *, keys=None
    ) -> np.ndarray:
        """Mesh node id storing each copy: its level-1 page's interval,
        refined by the variable's rank at the page's module.

        ``keys`` may carry the copies' level-1 page keys (CULLING has
        them); otherwise they are derived, from ``chains`` if given.
        """
        variables = np.asarray(variables, dtype=np.int64).reshape(-1)
        if keys is None:
            keys = self.page_keys(1, variables, np.reshape(paths, -1), chains)
        start, stop, _, _ = self.page_table(1)
        lo = start[keys]
        u_1 = keys // self.params.pages_per_module(1)
        rank, parts = self._rank_parts(1, variables, u_1)
        return self.mesh.node_of_rank(
            (lo + (rank * (stop[keys] - lo)) // parts) // SCALE
        )

    def page_node_spans(
        self, level: int, variables, paths, chains: np.ndarray | None = None,
        *, keys=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Morton-rank node span ``[first, last]`` of each copy's
        level-``level`` page (inclusive; possibly a single node).

        ``keys`` may carry the copies' level-``level`` page keys.
        """
        if level == 0:
            return _node_span(*self.page_intervals(0, variables, paths, chains))
        if keys is None:
            keys = self.page_keys(
                level, np.reshape(variables, -1), np.reshape(paths, -1), chains
            )
        _, _, first, last = self.page_table(level)
        return first[keys], last[keys]

    # -- identifiers ----------------------------------------------------------

    def page_keys(
        self, level: int, variables, paths, chains: np.ndarray | None = None
    ) -> np.ndarray:
        """Globally unique id of each copy's level-``level`` page.

        A level-i page is determined by its module ``u_i`` plus the branch
        digits ``(e_{i+1}, ..., e_k)`` selecting which replica chain it
        lies on; the key packs both into one int64.
        """
        params = self.params
        k, q = params.k, params.q
        if not 1 <= level <= k:
            raise ValueError(f"level must be in [1, {k}]")
        variables = np.asarray(variables, dtype=np.int64)
        paths = np.asarray(paths, dtype=np.int64)
        if chains is None:
            chains = self.chains(variables, paths)
        u = chains[..., level - 1]
        suffix = paths % q ** (k - level)
        return u * q ** (k - level) + suffix

    def storage_count_per_node(self) -> np.ndarray:
        """Copies stored on each node (exhaustive; small instances only).

        Used by capacity audits: with ``m_0`` variables and redundancy
        ``q^k`` this enumerates ``m_0 q^k`` copies.
        """
        params = self.params
        total = params.num_variables * params.redundancy
        if total > 8_000_000:
            raise ValueError(
                f"refusing to enumerate {total} copies; use a smaller instance"
            )
        v = np.repeat(np.arange(params.num_variables), params.redundancy)
        p = np.tile(np.arange(params.redundancy), params.num_variables)
        nodes = self.copy_nodes(v, p)
        return np.bincount(nodes, minlength=params.n)


def _node_span(start: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive node-rank span ``[first, last]`` of virtual intervals."""
    first = start // SCALE
    return first, np.maximum(first, (stop - 1) // SCALE)
