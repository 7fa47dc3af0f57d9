"""In-process memo of expensive HMOS building blocks.

Every sweep (E8/E13-E17), fuzz campaign, and long PRAM run used to
rebuild the same immutable artifacts once per case: the
:class:`~repro.bibd.subgraph.BalancedSubgraph` incidence structures
(whose *materialized* neighbor/rank/degree tables are the protocol hot
path), the :class:`~repro.hmos.placement.Placement` graphs, and the
initial target-set row.  This module memoizes them at two granularities:

* **subgraph artifacts**, keyed ``(q, d, m)`` — the per-level incidence
  tables, shared by every scheme that uses the same level graph;
* **scheme artifacts**, keyed ``(n, alpha, q, k, curve)`` — the fully
  assembled immutable parts of one HMOS (params, mesh, materialized
  placement, initial target-set row).

The artifacts are derived data: every table comes from the BIBD's
constructive neighbor function, and a cold build of the ``n = 4096``
scheme takes about 0.2 s.  They therefore live in process memory only;
nothing is written to disk.  :meth:`ArtifactCache.scheme` returns a
*new* :class:`~repro.hmos.scheme.HMOS` per call around the shared
immutable parts, with a fresh :class:`~repro.hmos.memory.CopyMemory`:
cached schemes never share mutable memory state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bibd.subgraph import BalancedSubgraph
from repro.hmos.params import HMOSParams
from repro.hmos.placement import Placement
from repro.hmos.scheme import HMOS
from repro.mesh.topology import Mesh
from repro.obs import tracer as _obs

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "default_cache",
    "reset_default_cache",
]


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`ArtifactCache` instance."""

    memory_hits: int = 0
    memory_misses: int = 0
    builds: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.memory_hits + self.memory_misses
        return self.memory_hits / total if total else 0.0


@dataclass
class _SchemeParts:
    """Immutable skeleton shared by all cached instances of one key."""

    params: HMOSParams
    mesh: Mesh
    placement: Placement
    initial_row: np.ndarray = field(repr=False)


class ArtifactCache:
    """In-process memo of HMOS artifacts."""

    def __init__(self):
        self.stats = CacheStats()
        self._subgraphs: dict[tuple, BalancedSubgraph] = {}
        self._schemes: dict[tuple, _SchemeParts] = {}

    def _tally(self, field: str) -> None:
        """Bump one :class:`CacheStats` counter, mirrored to the tracer."""
        setattr(self.stats, field, getattr(self.stats, field) + 1)
        tracer = _obs.current()
        if tracer.enabled:
            tracer.count(f"cache.{field}")

    def subgraph(self, q: int, d: int, m: int) -> BalancedSubgraph:
        """A *materialized* ``BalancedSubgraph(q, d, m)`` (shared instance)."""
        key = (int(q), int(d), int(m))
        hit = self._subgraphs.get(key)
        if hit is not None:
            self._tally("memory_hits")
            return hit
        self._tally("memory_misses")
        self._tally("builds")
        graph = BalancedSubgraph(*key).materialize()
        self._subgraphs[key] = graph
        return graph

    def scheme(
        self, n: int, alpha: float, q: int = 3, k: int = 2, *, curve: str = "morton"
    ) -> HMOS:
        """A cache-backed HMOS instance (fresh memory, shared skeleton)."""
        key = (int(n), float(alpha), int(q), int(k), str(curve))
        parts = self._schemes.get(key)
        if parts is not None:
            self._tally("memory_hits")
            return HMOS._from_parts(
                parts.params, parts.mesh, parts.placement, parts.initial_row
            )
        self._tally("memory_misses")
        params = HMOSParams(n=n, alpha=alpha, q=q, k=k)
        mesh = Mesh(params.side, curve=curve)
        graphs = [
            self.subgraph(params.q, params.d[i], params.m[i])
            for i in range(params.k)
        ]
        placement = Placement(params, mesh, graphs=graphs)
        self._tally("builds")
        probe = HMOS._from_parts(params, mesh, placement)
        initial_row = probe.initial_target_masks(1).astype(bool)
        self._schemes[key] = _SchemeParts(
            params=params,
            mesh=mesh,
            placement=placement,
            initial_row=initial_row,
        )
        return HMOS._from_parts(params, mesh, placement, initial_row)

    def clear(self) -> None:
        """Drop every memoized artifact (the counters survive)."""
        self._subgraphs.clear()
        self._schemes.clear()


_default: ArtifactCache | None = None


def default_cache() -> ArtifactCache:
    """The process-wide cache (created on first use)."""
    global _default
    if _default is None:
        _default = ArtifactCache()
    return _default


def reset_default_cache() -> None:
    """Forget the process-wide cache (tests and benchmarks start empty)."""
    global _default
    _default = None
