"""High-level routing strategies from Section 2 of the paper.

Two strategies are exposed:

* :func:`route_direct` — plain greedy ``(l1, l2)``-routing, the baseline
  Theorem 2 covers;
* :func:`route_via_submeshes` — the 4-step ``(l1, l2, delta, m)``-routing:
  sort and rank packets by destination submesh, spread each submesh's
  packets evenly over its nodes (rank ``i`` goes to local node
  ``i mod m``), then deliver within submeshes.  Profitable when
  ``l1, delta << l2`` — exactly the regime the access protocol engineers
  via CULLING.

Both return measured cycle-accurate results plus the phase breakdown, so
experiments can compare against the closed-form charges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.engine import RouteResult, SynchronousEngine
from repro.mesh.packets import PacketBatch
from repro.mesh.regions import Tessellation
from repro.mesh.sorting import shearsort_steps
from repro.mesh.topology import Mesh
from repro.util.grouping import rank_within_groups

__all__ = ["StagedRouteResult", "route_direct", "route_via_submeshes"]


@dataclass(frozen=True)
class StagedRouteResult:
    """Measured outcome of a multi-phase routing strategy.

    ``steps`` is the grand total; the remaining fields break it down so
    experiments can attribute cost to sorting vs the two routing phases.
    """

    steps: int
    sort_steps: int
    spread_steps: int
    deliver_steps: int
    max_queue: int
    final_positions: np.ndarray


def route_direct(mesh: Mesh, batch: PacketBatch, *, ports: str = "multi") -> RouteResult:
    """One-shot greedy ``(l1, l2)``-routing (the Theorem 2 baseline)."""
    return SynchronousEngine(mesh, ports=ports).route(batch)


def route_via_submeshes(
    mesh: Mesh,
    batch: PacketBatch,
    tessellation: Tessellation,
    *,
    ports: str = "multi",
) -> StagedRouteResult:
    """Section 2's ``(l1, l2, delta, m)``-routing algorithm, steps 1-4.

    1. index the processors in each submesh (Morton-local offsets);
    2. sort and rank all packets by destination submesh (charged as one
       shearsort of the mesh — the deterministic [KSS94] schedule);
    3. route each packet to the node of local index ``rank mod m`` in its
       destination submesh;
    4. route packets to their final destinations (within submeshes).

    The packet movement of phases 3 and 4 is simulated cycle-accurately;
    phase 2's data movement is order-equivalent to shearsort, so its cost
    is the measured shearsort step count for this mesh side.
    """
    engine = SynchronousEngine(mesh, ports=ports)
    if len(batch) == 0:
        return StagedRouteResult(0, 0, 0, 0, 0, np.zeros(0, dtype=np.int64))
    dst_ranks = mesh.rank_of(batch.dst)
    region_idx = tessellation.region_of(dst_ranks)
    ranks = rank_within_groups(region_idx)
    sizes = np.array([r.size for r in tessellation.regions], dtype=np.int64)
    starts = np.array([r.start for r in tessellation.regions], dtype=np.int64)
    m = sizes[region_idx]
    proxy_rank = starts[region_idx] + ranks % m
    proxy_node = mesh.node_of_rank(proxy_rank)

    sort_cost = shearsort_steps(mesh.side) * max(batch.max_per_source(), 1)

    # Both legs are fully determined up front (the deliver leg starts at
    # the proxy nodes, not at wherever the spread leg's packets "are"),
    # so one route_many call advances them in a single stepping loop.
    spread, deliver = engine.route_many(
        [
            PacketBatch(batch.src, proxy_node, batch.tag),
            PacketBatch(proxy_node, batch.dst, batch.tag),
        ]
    )
    total = sort_cost + spread.steps + deliver.steps
    return StagedRouteResult(
        steps=total,
        sort_steps=sort_cost,
        spread_steps=spread.steps,
        deliver_steps=deliver.steps,
        max_queue=max(spread.max_queue, deliver.max_queue),
        final_positions=batch.dst.copy(),
    )
