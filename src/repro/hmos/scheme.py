"""The :class:`HMOS` facade — one object per simulated machine.

Bundles the validated parameters, the level graphs + physical placement,
and the timestamped copy store, and exposes the vocabulary the rest of
the stack (CULLING, the access protocol, the PRAM executor) speaks:
copy chains, page keys, node addresses, target-set masks.
"""

from __future__ import annotations

import numpy as np

from repro.hmos.copytree import access_mask, extract_min_target_set, target_set_size
from repro.hmos.memory import CopyMemory
from repro.hmos.params import HMOSParams
from repro.hmos.placement import Placement
from repro.mesh.topology import Mesh

__all__ = ["HMOS"]


class HMOS:
    """A Hierarchical Memory Organization Scheme instance.

    Parameters
    ----------
    n : int
        Mesh/PRAM size; must be a power-of-4 perfect square.
    alpha : float
        Shared-memory exponent, ``1 < alpha <= 2``.
    q : int, default 3
        Prime-power replication factor (>= 3).
    k : int, default 2
        Hierarchy depth.

    Examples
    --------
    >>> scheme = HMOS(n=64, alpha=1.5, q=3, k=2)
    >>> scheme.params.redundancy
    9
    """

    def __init__(
        self, n: int, alpha: float, q: int = 3, k: int = 2, *, curve: str = "morton"
    ):
        self.params = HMOSParams(n=n, alpha=alpha, q=q, k=k)
        self.mesh = Mesh(self.params.side, curve=curve)
        self.placement = Placement(self.params, self.mesh)
        self.memory = CopyMemory(self.params)
        self._initial_row: np.ndarray | None = None

    @classmethod
    def cached(
        cls,
        n: int,
        alpha: float,
        q: int = 3,
        k: int = 2,
        *,
        curve: str = "morton",
        cache=None,
    ) -> "HMOS":
        """Build an HMOS through the artifact cache (:mod:`repro.cache`).

        The expensive immutable parts — level graphs with *materialized*
        incidence tables, the mesh, the initial target-set row — are
        shared in process memory between all instances with the same
        ``(n, alpha, q, k, curve)`` key; every call returns a new
        instance with its own fresh :class:`CopyMemory`, so cached
        schemes never share memory state.
        """
        from repro.cache import default_cache

        cache = cache if cache is not None else default_cache()
        return cache.scheme(n, alpha, q, k, curve=curve)

    @classmethod
    def _from_parts(
        cls, params: HMOSParams, mesh, placement, initial_row=None
    ) -> "HMOS":
        """Assemble an instance around prebuilt immutable parts."""
        self = cls.__new__(cls)
        self.params = params
        self.mesh = mesh
        self.placement = placement
        self.memory = CopyMemory(params)
        self._initial_row = initial_row
        return self

    # -- convenience -------------------------------------------------------

    @property
    def num_variables(self) -> int:
        return self.params.num_variables

    @property
    def redundancy(self) -> int:
        return self.params.redundancy

    def initial_target_masks(self, count: int) -> np.ndarray:
        """CULLING's starting point ``C_v^0``: a minimal *level-0* target
        set per variable (supermajority at every tree level).

        All variables share the same leaf pattern because the tree shape
        is variable-independent; shape ``(count, q^k)``.  The single row
        is memoized per scheme (it never changes), so repeated CULLING
        passes pay only the ``np.repeat``.
        """
        if self._initial_row is None:
            q, k = self.params.q, self.params.k
            full = np.ones((1, self.params.redundancy), dtype=bool)
            feasible, chosen, _ = extract_min_target_set(full, full, q, k, level=0)
            assert feasible.all()
            assert chosen.sum() == target_set_size(q, k, 0)
            self._initial_row = chosen
        return np.repeat(self._initial_row, count, axis=0)

    def is_target_set(self, masks: np.ndarray) -> np.ndarray:
        """Definition 2 check: do the reached leaves access the root?"""
        return access_mask(masks, self.params.q, self.params.k)

    # -- geometry shortcuts --------------------------------------------------

    def copy_nodes(self, variables, paths) -> np.ndarray:
        """Mesh node storing each (variable, path) copy."""
        return self.placement.copy_nodes(variables, paths)

    def page_keys(self, level: int, variables, paths) -> np.ndarray:
        """Unique id of each copy's level-``level`` page."""
        return self.placement.page_keys(level, variables, paths)

    def describe(self) -> str:
        """Multi-line structural summary (regenerates Figure 1's content)."""
        p = self.params
        lines = [p.summary(), "", "HMOS graph structure (Figure 1):"]
        lines.append(
            f"  U_0: {p.m[0]} variables, q={p.q} edges each to level-1 modules"
        )
        for lvl in range(1, p.k + 1):
            g = self.placement.graphs[lvl - 1]
            lines.append(
                f"  U_{lvl - 1} -> U_{lvl}: subgraph of ({p.q}^{p.d[lvl - 1]}, {p.q})-BIBD, "
                f"{g.num_inputs} inputs, {g.num_outputs} outputs, "
                f"in-degree [{g.rho_min}, {g.rho_max}]"
            )
        lines.append(
            f"  every variable -> {p.redundancy} copies "
            f"(complete {p.q}-ary tree of depth {p.k})"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        p = self.params
        return f"HMOS(n={p.n}, alpha={p.alpha}, q={p.q}, k={p.k})"
