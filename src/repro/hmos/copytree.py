"""Copy trees T_v: access semantics and target-set machinery (Sec. 3.1-3.2).

Each variable's ``q^k`` copies are the leaves of a complete q-ary tree of
depth k; a leaf is addressed by its *path* — an integer in ``[0, q^k)``
whose base-q digits ``(e_1, ..., e_k)``, most significant digit first,
select the branch at each level (``e_1`` picks the level-1 module copy).

Access rules (Definition 2 and its level-i strengthening):

* a leaf is *accessed* iff its copy is reached;
* an internal node at depth j (levels count from the root = the variable
  = level 0) is accessed iff >= ``floor(q/2) + 1`` children are accessed
  (*majority*), and *extensively accessed at level i* iff

  - j <  i : >= ``floor(q/2) + 1`` children qualify (majority), and
  - j >= i : >= ``floor(q/2) + 2`` children qualify (supermajority).

A set of leaves is a *level-i target set* iff reaching them extensively
accesses the root at level i; ``i = k`` recovers the ordinary target sets
that the read/write protocol needs for consistency.

Everything below is vectorized across a batch of variables: selection
masks are boolean arrays of shape ``(N, q^k)``.

CULLING's per-variable choice, :func:`extract_min_target_set`, is a
bottom-up DP over the tree.  A leaf is not allowed, allowed or
preferred, so a tree of ``q^k`` leaves has ``3^(q^k)`` patterns; for
``q^k <= 9`` (the default q = 3, k = 2 among them) the DP runs once per
``(q, k, level)`` over every pattern and a call is one table lookup per
variable.  Larger trees run the DP on each call.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "majority",
    "supermajority",
    "access_mask",
    "is_target_set",
    "target_set_size",
    "extract_min_target_set",
]

_INF = np.int64(1) << 40  # sentinel cost for unreachable subtrees

#: Largest tree (``q^k`` leaves) whose selections are tabulated: 3^9 =
#: 19,683 patterns per level.  The next tree, q = 4 and k = 2, would
#: need 3^16.
_TABLE_MAX_LEAVES = 9


def majority(q: int) -> int:
    """``floor(q/2) + 1`` — children needed for ordinary access."""
    return q // 2 + 1


def supermajority(q: int) -> int:
    """``floor(q/2) + 2`` — children needed for extensive access."""
    if q < 3:
        raise ValueError(f"extensive access needs q >= 3, got {q}")
    return q // 2 + 2


def _thresholds(q: int, k: int, level: int) -> list[int]:
    """Per-depth child thresholds for a level-``level`` target set.

    Entry j is the threshold applied at internal nodes of depth j,
    j = 0 .. k-1.
    """
    if not 0 <= level <= k:
        raise ValueError(f"level must be in [0, {k}], got {level}")
    return [majority(q) if j < level else supermajority(q) for j in range(k)]


def access_mask(selected: np.ndarray, q: int, k: int, level: int = None) -> np.ndarray:
    """Which tree nodes are (extensively) accessed given reached leaves.

    Parameters
    ----------
    selected : bool array, shape (N, q**k)
        Reached leaves per variable.
    level : int or None
        ``None`` uses Definition 2 (ordinary access = level k);
        otherwise the level-``level`` extensive-access thresholds.

    Returns
    -------
    bool array, shape (N,)
        Whether each variable's *root* is accessed.
    """
    if level is None:
        level = k
    thr = _thresholds(q, k, level)
    cur = np.asarray(selected, dtype=bool)
    n = cur.shape[0]
    if cur.shape != (n, q**k):
        raise ValueError(f"selected must have shape (N, {q**k})")
    for depth in range(k - 1, -1, -1):
        counts = cur.reshape(n, q**depth, q).sum(axis=-1)
        cur = counts >= thr[depth]
    return cur[:, 0]


def is_target_set(selected: np.ndarray, q: int, k: int, level: int = None) -> np.ndarray:
    """Alias of :func:`access_mask` with target-set phrasing."""
    return access_mask(selected, q, k, level)


def target_set_size(q: int, k: int, level: int) -> int:
    """Cardinality of a *minimal* level-``level`` target set:
    ``majority^level * supermajority^(k - level)`` leaves."""
    if not 0 <= level <= k:
        raise ValueError(f"level must be in [0, {k}], got {level}")
    return majority(q) ** level * supermajority(q) ** (k - level)


def extract_min_target_set(
    preferred: np.ndarray,
    allowed: np.ndarray,
    q: int,
    k: int,
    level: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extract a minimal level-``level`` target set, preferring cheap leaves.

    This is the workhorse of CULLING's per-iteration choice: given the
    *marked* copies (``preferred``, cost 0) and the current candidate set
    (``allowed`` — cost 1 when not marked), a bottom-up dynamic program
    picks, at every internal node, the ``threshold`` cheapest achievable
    children; the reconstructed leaf set is therefore

    * a minimal level-``level`` target set (exactly threshold children per
      chosen node — removing any leaf breaks some threshold), and
    * of minimum total cost, i.e. it uses unmarked copies only when the
      marked ones alone do not contain a level-``level`` target set.

    For trees of at most :data:`_TABLE_MAX_LEAVES` leaves the answer is
    looked up: each row's leaf states form one base-3 code into a table
    the DP filled once for every pattern (see :func:`_pattern_table`).

    Parameters
    ----------
    preferred, allowed : bool arrays, shape (N, q**k)
        ``preferred`` must be a subset of ``allowed``.

    Returns
    -------
    feasible : bool array (N,)
        Whether ``allowed`` contains a level-``level`` target set at all.
    chosen : bool array (N, q**k)
        The extracted minimal target set (all-False rows when infeasible).
    added : int array (N,)
        Number of chosen leaves outside ``preferred`` (CULLING's |S_v|).
    """
    preferred = np.asarray(preferred, dtype=bool)
    allowed = np.asarray(allowed, dtype=bool)
    n = preferred.shape[0]
    leaves = q**k
    if preferred.shape != (n, leaves) or allowed.shape != (n, leaves):
        raise ValueError(f"masks must have shape (N, {leaves})")
    if np.any(preferred & ~allowed):
        raise ValueError("preferred must be a subset of allowed")
    if leaves > _TABLE_MAX_LEAVES:
        return _extract_dp(preferred, allowed, q, k, level)
    feasible, chosen, added = _pattern_table(q, k, level)
    # Leaf state 0 = not allowed, 1 = allowed, 2 = preferred.
    codes = (allowed.astype(np.int64) + preferred) @ (3 ** np.arange(leaves))
    return feasible[codes], chosen[codes], added[codes]


@functools.lru_cache(maxsize=None)
def _pattern_table(q: int, k: int, level: int) -> tuple[np.ndarray, ...]:
    """:func:`_extract_dp` over all ``3^(q^k)`` leaf-state patterns.

    Row ``c`` answers the pattern whose leaf j has state
    ``(c // 3**j) % 3`` (0 = not allowed, 1 = allowed, 2 = preferred).
    Built on first use and kept for the process; the arrays are
    read-only.
    """
    leaves = q**k
    states = np.arange(3**leaves)[:, None] // 3 ** np.arange(leaves) % 3
    table = _extract_dp(states == 2, states >= 1, q, k, level)
    for column in table:
        column.flags.writeable = False
    return table


def _extract_dp(
    preferred: np.ndarray, allowed: np.ndarray, q: int, k: int, level: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bottom-up DP behind :func:`extract_min_target_set` (checked
    inputs).  It defines the selection, fills the pattern tables and
    serves trees too large to tabulate."""
    n = preferred.shape[0]
    thr = _thresholds(q, k, level)

    # Bottom-up cost pass.  cost[depth] has shape (N, q**depth).
    cost = np.where(preferred, 0, np.where(allowed, 1, _INF)).astype(np.int64)
    orders: list[np.ndarray] = []  # per depth: argsort of children costs
    for depth in range(k - 1, -1, -1):
        child = cost.reshape(n, q**depth, q)
        order = np.argsort(child, axis=-1, kind="stable")
        orders.append(order)
        picked = np.take_along_axis(child, order[..., : thr[depth]], axis=-1)
        total = picked.sum(axis=-1)
        cost = np.where((picked >= _INF).any(axis=-1), _INF, total)
    orders.reverse()  # orders[depth] applies at that depth
    feasible = cost[:, 0] < _INF

    # Top-down reconstruction of the chosen children.
    chosen_nodes = feasible[:, None].copy()  # (N, q**0)
    for depth in range(k):
        order = orders[depth]  # (N, q**depth, q)
        pick = np.zeros_like(order, dtype=bool)
        np.put_along_axis(pick, order[..., : thr[depth]], True, axis=-1)
        chosen_nodes = (pick & chosen_nodes[..., None]).reshape(n, q ** (depth + 1))
    chosen = chosen_nodes & allowed  # guard: infeasible rows stay empty
    added = (chosen & ~preferred).sum(axis=1)
    return feasible, chosen, added
