"""The mesh-connected computer: topology, routing, sorting, cost models.

This subpackage is the "hardware" substrate of the reproduction.  The
machine is an ``s x s`` square mesh (``n = s^2`` nodes, ``s`` a power of
two) operating synchronously: in one *step* every node may transmit one
packet over each of its <= 4 point-to-point links.  Two interchangeable
execution engines are provided:

* :class:`repro.mesh.engine.SynchronousEngine` — cycle-accurate
  store-and-forward simulation with greedy dimension-ordered routing and
  farthest-first link arbitration; counts real steps.
* :class:`repro.mesh.costmodel.CostModel` — analytic step accounting that
  charges exactly the bounds the paper cites (Theorem 2 routing,
  [KSS94]-style sorting), enabling large-``n`` scaling sweeps.

Tessellations of the mesh into nested submeshes (the paper's level-``i``
tessellations) are realized as contiguous ranges in Morton (Z-curve)
order: a Morton range of ``t`` nodes has diameter ``O(sqrt(t))`` and
ranges nest, which is the only property the analysis needs.
"""

from repro.mesh.collectives import broadcast, reduce_all, scan_snake
from repro.mesh.costmodel import CostModel
from repro.mesh.deterministic import ThreePhaseResult, route_three_phase
from repro.mesh.engine import RouteResult, SynchronousEngine
from repro.mesh.engine_core import SteppingCore, reference_route
from repro.mesh.hilbert import hilbert_decode, hilbert_encode
from repro.mesh.ksort import kk_sort, kk_sort_steps
from repro.mesh.morton import morton_decode, morton_encode
from repro.mesh.packets import PacketBatch
from repro.mesh.regions import Region, Tessellation, split_region
from repro.mesh.routing import route_direct, route_via_submeshes
from repro.mesh.sorting import (
    odd_even_transposition_steps,
    shearsort,
    shearsort_steps,
    snake_order,
)
from repro.mesh.topology import Mesh
from repro.mesh.viz import load_heatmap

__all__ = [
    "CostModel",
    "broadcast",
    "reduce_all",
    "scan_snake",
    "Mesh",
    "PacketBatch",
    "Region",
    "RouteResult",
    "SynchronousEngine",
    "SteppingCore",
    "reference_route",
    "Tessellation",
    "hilbert_decode",
    "kk_sort",
    "kk_sort_steps",
    "hilbert_encode",
    "morton_decode",
    "morton_encode",
    "odd_even_transposition_steps",
    "route_direct",
    "route_three_phase",
    "ThreePhaseResult",
    "route_via_submeshes",
    "shearsort",
    "shearsort_steps",
    "snake_order",
    "split_region",
    "load_heatmap",
]
