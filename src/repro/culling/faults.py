"""Fault-aware copy selection (extension of procedure CULLING).

With some copies unavailable, the invariant "``C_v^0`` is a level-0
target set" may be unattainable: the starting strength is lowered per
variable to the strongest level its surviving copies still support, and
each CULLING iteration simply keeps the previous selection for variables
whose current set cannot yet be tightened to the iteration's level.
Variables without even a level-k target set are *unrecoverable* and
reported; everything else keeps full read/write consistency (any two
target sets intersect).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.culling.procedure import (
    CullingResult,
    IterationStats,
    _check_distinct,
    _mark_with_cap,
    _max_page_load,
)
from repro.hmos.copytree import access_mask, extract_min_target_set
from repro.hmos.scheme import HMOS
from repro.mesh.costmodel import CostModel

__all__ = ["FaultyCullingResult", "cull_with_faults"]


@dataclass(frozen=True)
class FaultyCullingResult(CullingResult):
    """CULLING output plus fault bookkeeping.

    ``start_levels[j]`` is the strongest (lowest) tree level whose
    target-set thresholds variable ``j``'s surviving copies still meet
    (0 = undamaged).  After ``__post_init__`` the field is always a 1-D
    int64 ndarray aligned with ``variables`` — never ``None`` (the
    dataclass default exists only to satisfy inheritance from
    :class:`CullingResult`, whose trailing field has a default)."""

    start_levels: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )

    def __post_init__(self):
        object.__setattr__(
            self,
            "start_levels",
            np.asarray(self.start_levels, dtype=np.int64).reshape(-1),
        )


def cull_with_faults(
    scheme: HMOS,
    variables: np.ndarray,
    allowed: np.ndarray,
    *,
    cost_model: CostModel | None = None,
    chains: np.ndarray | None = None,
) -> FaultyCullingResult:
    """CULLING restricted to the available copies.

    Parameters
    ----------
    allowed : bool array, shape (N, q^k)
        Copy availability (see :meth:`FaultInjector.allowed_mask`).
    chains : int array, shape (N, q^k, k), optional
        Precomputed module-chain tensor of the full copy grid; when the
        caller already derived it (e.g. to build ``allowed``), passing
        it avoids a second full-grid chain computation.

    Raises
    ------
    RuntimeError
        If any requested variable has no surviving level-k target set
        (unrecoverable); the message lists the casualties.
    """
    params = scheme.params
    variables = np.asarray(variables, dtype=np.int64)
    _check_distinct(variables)
    allowed = np.asarray(allowed, dtype=bool)
    n_req = variables.size
    red = params.redundancy
    if allowed.shape != (n_req, red):
        raise ValueError(f"allowed must have shape ({n_req}, {red})")
    cost_model = cost_model or CostModel()
    q, k = params.q, params.k

    # Starting strength: strongest (lowest) level each variable supports.
    start_levels = np.full(n_req, -1, dtype=np.int64)
    for level in range(k, -1, -1):
        ok = access_mask(allowed, q, k, level)
        start_levels[ok] = level
    dead = start_levels < 0
    if dead.any():
        raise RuntimeError(
            f"{int(dead.sum())} variable(s) unrecoverable after failures: "
            f"{variables[dead][:10].tolist()}"
        )

    selected = np.zeros((n_req, red), dtype=bool)
    for level in range(k + 1):
        rows = start_levels == level
        if rows.any():
            feas, chosen, _ = extract_min_target_set(
                allowed[rows], allowed[rows], q, k, level
            )
            assert feas.all()
            selected[rows] = chosen

    if chains is None:
        chains = scheme.placement.chains(variables)
    else:
        chains = np.asarray(chains, dtype=np.int64).reshape(n_req, red, k)
    paths = np.arange(red, dtype=np.int64)

    stats: list[IterationStats] = []
    page_keys: list[np.ndarray] = []
    charged = 0.0
    for level in range(1, k + 1):
        cap = params.culling_cap(level)
        keys = scheme.placement.page_keys(
            level, variables[:, None], paths, chains=chains
        )
        page_keys.append(keys)
        marked = _mark_with_cap(keys, selected, cap)
        feasible, chosen, added = extract_min_target_set(
            marked, selected, q, k, level
        )
        # Variables too damaged for this level keep their selection.
        keep = ~feasible
        chosen[keep] = selected[keep]
        selected = chosen
        stats.append(
            IterationStats(
                level=level,
                cap=cap,
                marked=int(marked.sum()),
                augmented_variables=int((added[feasible] > 0).sum()),
                augmented_copies=int(added[feasible].sum()),
                max_page_load=_max_page_load(keys, selected),
            )
        )
        charged += cost_model.sort_steps(red, params.n) + red

    return FaultyCullingResult(
        variables=variables,
        selected=selected,
        iterations=tuple(stats),
        charged_steps=charged,
        page_keys=tuple(page_keys),
        start_levels=start_levels,
    )
