"""Shared evaluation harness for baseline schemes.

Measures the two quantities the paper's analysis separates:

* *module contention* — the maximum number of accesses any single
  module must serve (the MPC cost; a module serves one access per step,
  so this lower-bounds any simulation's time);
* *mesh routing steps* — cycle-accurate greedy routing of one packet per
  touched copy from each requester to the module and back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.base import MemoryScheme
from repro.mesh.engine import SynchronousEngine
from repro.mesh.packets import PacketBatch
from repro.mesh.topology import Mesh

__all__ = ["BaselineResult", "evaluate_scheme"]


@dataclass(frozen=True)
class BaselineResult:
    """Cost of one access step under a baseline scheme."""

    scheme: str
    op: str
    requests: int
    packets: int
    max_module_load: int
    mesh_steps: int


def evaluate_scheme(
    scheme: MemoryScheme,
    mesh: Mesh,
    variables: np.ndarray,
    op: str = "read",
    *,
    route: bool = True,
) -> BaselineResult:
    """Measure one access step of ``scheme`` on ``mesh``.

    Requesters are assigned one per mesh node (requester i at node i).
    ``route=False`` skips the cycle-accurate routing (contention only),
    for large instances.
    """
    variables = np.asarray(variables, dtype=np.int64)
    if variables.size > mesh.n:
        raise ValueError("at most one request per node")
    if scheme.n != mesh.n:
        raise ValueError("scheme module count must equal mesh size")
    touched = scheme.access_nodes(variables, op)
    src = np.concatenate(
        [np.full(t.size, i, dtype=np.int64) for i, t in enumerate(touched)]
    ) if touched else np.zeros(0, dtype=np.int64)
    dst = np.concatenate(touched) if touched else np.zeros(0, dtype=np.int64)
    max_load = int(np.bincount(dst, minlength=mesh.n).max()) if dst.size else 0
    steps = 0
    if route and dst.size:
        engine = SynchronousEngine(mesh)
        forward = engine.route(PacketBatch(src, dst))
        backward = engine.route(PacketBatch(dst, src))
        steps = forward.steps + backward.steps
    return BaselineResult(
        scheme=type(scheme).__name__,
        op=op,
        requests=int(variables.size),
        packets=int(dst.size),
        max_module_load=max_load,
        mesh_steps=steps,
    )
