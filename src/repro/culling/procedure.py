"""Procedure CULLING (Section 3.2), vectorized over the request set.

The procedure maintains, per requested variable v, a shrinking copy mask
``C_v^i`` that is always a *minimal level-i target set*:

* ``C_v^0`` — a minimal level-0 target set (supermajority at every tree
  node);
* iteration i marks, in every level-i page, at most ``2 q^k n^{1-1/2^i}``
  of the currently-selected copies (deterministic first-come order), then
  every variable extracts a minimal level-i target set preferring its
  marked copies, augmenting with unmarked ones (the paper's ``S_v^i``)
  only when the marked ones are insufficient.

The invariant "``C_v^{i-1}`` is a level-(i-1) target set" guarantees the
augmenting branch always succeeds: level-(i-1) thresholds dominate
level-i thresholds node-by-node.

With failed memory nodes (``allowed=``, our static-fault extension) the
invariant may be unattainable: each variable starts from the strongest
level its surviving copies still support, and an iteration whose level
a variable cannot yet reach keeps that variable's selection.  Variables
without even a level-k target set are *unrecoverable*; every other one
keeps full read/write consistency (any two target sets intersect).

Cost accounting follows Eq. (2): each iteration sorts/ranks the <= q^k n
selected copies by destination page (``O(q^k sqrt(n))`` mesh steps) and
does ``O(q^k)`` local work per processor, so
``T_culling = O(k q^k sqrt(n))``.

The host does the same work without per-row sorts: every copy's module
chain comes from one neighbour lookup per copy-tree node
(``Placement.chains(variables)``), a histogram of the selected copies'
page keys finds the pages over their cap (only their copies are
ranked) and gives the ``max_page_load`` diagnostic, and the
per-variable extraction is a table lookup for small trees
(:mod:`repro.hmos.copytree`).  The per-level page keys of every copy
are handed to the access protocol, which plans its stages from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hmos.copytree import access_mask, extract_min_target_set
from repro.hmos.scheme import HMOS
from repro.mesh.costmodel import CostModel
from repro.mesh.ksort import kk_sort_steps
from repro.util.grouping import rank_within_groups
from repro.util.validate import check_int_array

__all__ = ["IterationStats", "CullingResult", "cull"]


@dataclass(frozen=True)
class IterationStats:
    """Per-iteration diagnostics of CULLING."""

    level: int
    cap: int
    marked: int
    augmented_variables: int
    augmented_copies: int
    max_page_load: int


@dataclass(frozen=True)
class CullingResult:
    """Output of :func:`cull`.

    Attributes
    ----------
    variables : np.ndarray
        The request set, as given.
    selected : np.ndarray, bool, shape (N, q^k)
        Final target-set mask ``C_v`` per variable.
    iterations : tuple[IterationStats, ...]
        Diagnostics per level.
    charged_steps : float
        Eq. (2) mesh-step charge for running the procedure.
    page_keys : tuple[np.ndarray, ...] or None
        Level ``i``'s page key of every copy at index ``i - 1``, each of
        shape ``(N, q^k)``: the keys CULLING marked by.  The access
        protocol plans its stages from the selected copies' keys and
        releases them (``None``) before returning its result.
    start_levels : np.ndarray or None
        With an availability mask: per variable, the strongest (lowest)
        tree level whose target-set thresholds its surviving copies
        still meet (0 = undamaged).  ``None`` for fault-free CULLING.
    """

    variables: np.ndarray
    selected: np.ndarray
    iterations: tuple[IterationStats, ...]
    charged_steps: float
    page_keys: tuple[np.ndarray, ...] | None = None
    start_levels: np.ndarray | None = None

    @property
    def total_selected(self) -> int:
        return int(self.selected.sum())


def _mark_with_cap(keys: np.ndarray, selected: np.ndarray, cap: int) -> np.ndarray:
    """Mark at most ``cap`` selected copies per page (per distinct key).

    Deterministic: copies are ranked within their page by (variable row,
    path) order; the first ``cap`` win.  Marking is maximal — a page with
    more than ``cap`` selected copies gets exactly ``cap`` marked — which
    the Theorem 3 proof requires.  A histogram of the selected copies'
    keys finds the crowded pages; only their copies are ranked.
    """
    marked = selected.copy()
    sel_idx = np.flatnonzero(selected)
    sel_keys = keys.reshape(-1)[sel_idx]
    crowded = np.bincount(sel_keys)[sel_keys] > cap
    losers = rank_within_groups(sel_keys[crowded]) >= cap
    marked.reshape(-1)[sel_idx[crowded][losers]] = False
    return marked


def _max_page_load(keys: np.ndarray, selected: np.ndarray) -> int:
    """Most selected copies on one page (0 when nothing is selected).

    Page keys are below ``params.num_pages(level)``, which bounds the
    histogram's length.
    """
    sel_keys = keys.reshape(-1)[np.flatnonzero(selected)]
    return int(np.bincount(sel_keys, minlength=1).max())


def _check_distinct(variables: np.ndarray) -> None:
    """Refuse a request set that names a variable twice.

    Sorting and comparing neighbours is much cheaper than ``np.unique``.
    """
    ordered = np.sort(variables)
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("request set must contain distinct variables")


def _start_from_survivors(
    allowed: np.ndarray, variables: np.ndarray, q: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Start levels and starting target sets under copy availability.

    Each variable starts from a minimal target set of the strongest
    (lowest) level its available copies support.  Raises RuntimeError
    naming the variables with no level-k target set left.
    """
    start_levels = np.full(variables.size, -1, dtype=np.int64)
    for level in range(k, -1, -1):
        start_levels[access_mask(allowed, q, k, level)] = level
    dead = start_levels < 0
    if dead.any():
        raise RuntimeError(
            f"{int(dead.sum())} variable(s) unrecoverable after failures: "
            f"{variables[dead][:10].tolist()}"
        )
    selected = np.zeros(allowed.shape, dtype=bool)
    for level in range(k + 1):
        rows = start_levels == level
        if rows.any():
            _, chosen, _ = extract_min_target_set(
                allowed[rows], allowed[rows], q, k, level
            )
            selected[rows] = chosen
    return start_levels, selected


def cull(
    scheme: HMOS,
    variables: np.ndarray,
    *,
    allowed: np.ndarray | None = None,
    chains: np.ndarray | None = None,
    cost_model: CostModel | None = None,
    accounting: str = "model",
) -> CullingResult:
    """Run CULLING for a request set of distinct variables.

    Parameters
    ----------
    scheme : HMOS
        The memory organization instance.
    variables : array of int
        Requested variable ids; must be distinct (a PRAM step accesses
        distinct cells; concurrent accesses are combined upstream).
    allowed : bool array, shape (N, q^k), optional
        Copy availability under failed memory nodes (see
        :meth:`repro.hmos.faults.FaultInjector.allowed_mask`).  Selected
        copies stay within it, and the result carries ``start_levels``.
    chains : int array, shape (N, q^k, k), optional
        Module chains of every copy, when the caller already derived
        them (e.g. to build ``allowed``).
    accounting : {"model", "measured"}
        How the per-iteration sort-and-rank is charged: ``"model"`` uses
        the cited ``O(q^k sqrt(n))`` bound through the cost model;
        ``"measured"`` uses the exact step count of the deterministic
        merge-split shearsort schedule (:func:`repro.mesh.ksort.kk_sort`)
        that would move the q^k copy records per node — same selection,
        honest (log-factor-carrying) steps.

    Returns
    -------
    CullingResult
        Final target sets plus diagnostics and the Eq. (2) time charge.

    Raises
    ------
    RuntimeError
        If, under ``allowed``, a requested variable has no available
        level-k target set (unrecoverable); the message lists them.
    """
    params = scheme.params
    variables = check_int_array("variables", variables)
    if variables.ndim != 1:
        raise ValueError("variables must be a 1-D array")
    _check_distinct(variables)
    if np.any((variables < 0) | (variables >= params.num_variables)):
        raise ValueError("variable id out of range")
    if variables.size > params.n:
        raise ValueError(
            f"at most one request per processor: {variables.size} > n={params.n}"
        )
    if accounting not in ("model", "measured"):
        raise ValueError(f"accounting must be 'model' or 'measured', got {accounting!r}")
    if allowed is not None:
        allowed = np.asarray(allowed, dtype=bool)
        if allowed.shape != (variables.size, params.redundancy):
            raise ValueError(
                f"allowed must have shape ({variables.size}, {params.redundancy})"
            )
    if variables.size == 0:
        # No requests: nothing moves, nothing is charged.
        return CullingResult(
            variables=variables,
            selected=np.zeros((0, params.redundancy), dtype=bool),
            iterations=(),
            charged_steps=0.0,
            page_keys=(np.zeros((0, params.redundancy), dtype=np.int64),) * params.k,
            start_levels=None if allowed is None else np.zeros(0, dtype=np.int64),
        )
    cost_model = cost_model or CostModel()
    q, k = params.q, params.k
    red = params.redundancy
    n_req = variables.size

    start_levels = None
    if allowed is None:
        selected = scheme.initial_target_masks(n_req)
    else:
        start_levels, selected = _start_from_survivors(allowed, variables, q, k)
    paths = np.arange(red, dtype=np.int64)
    if chains is None:
        chains = scheme.placement.chains(variables)  # (N, q^k, k), every copy

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
        if not feasible.all():
            if allowed is None:
                raise AssertionError(
                    "CULLING invariant violated: C^{i-1} lost its target set"
                )
            # Variables too damaged for this level keep their selection.
            keep = ~feasible
            chosen[keep] = selected[keep]
            added[keep] = 0
        selected = chosen
        stats.append(
            IterationStats(
                level=level,
                cap=cap,
                marked=int(marked.sum()),
                augmented_variables=int((added > 0).sum()),
                augmented_copies=int(added.sum()),
                max_page_load=_max_page_load(keys, selected),
            )
        )
        # Eq. (2): sort+rank the selected copies (q^k per processor) on
        # the full mesh, plus O(q^k) local extraction work.  The sort is
        # charged per the cited bound or at the exact merge-split
        # shearsort schedule length.
        if accounting == "measured":
            charged += kk_sort_steps(params.side, red) + red
        else:
            charged += cost_model.sort_steps(red, params.n) + red

    return CullingResult(
        variables=variables,
        selected=selected,
        iterations=tuple(stats),
        charged_steps=charged,
        page_keys=tuple(page_keys),
        start_levels=start_levels,
    )
