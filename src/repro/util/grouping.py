"""Stable rank of each element within its group.

The access protocol's sort-and-rank phases, CULLING's per-page marking
and Section 2's staged routing all reduce to this primitive: given each
packet's group id (destination submesh / page key), assign ranks 0, 1,
... within every group, stably in input order — the outcome of the
on-mesh sort-and-rank whose movement cost is charged separately.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rank_within_groups"]

_INT64_MAX = int(np.iinfo(np.int64).max)


def rank_within_groups(group_ids: np.ndarray) -> np.ndarray:
    """Stable 0-based rank of each element among equals.

    Packs ``(group - min, position)`` into one int64 key and
    value-sorts it, so a single ``np.sort`` yields the stable order.
    Raises ``ValueError`` when the largest key,
    ``(max - min + 1) * size - 1``, would overflow int64.

    >>> rank_within_groups(np.array([5, 3, 5, 5, 3]))
    array([0, 0, 1, 2, 1])
    """
    group_ids = np.asarray(group_ids, dtype=np.int64)
    size = group_ids.size
    ranks = np.empty(size, dtype=np.int64)
    if size == 0:
        return ranks
    low, high = int(group_ids.min()), int(group_ids.max())
    if (high - low + 1) * size - 1 > _INT64_MAX:
        raise ValueError(
            f"group ids spanning [{low}, {high}] times {size} positions "
            "overflow the int64 sort key"
        )
    position = np.arange(size, dtype=np.int64)
    groups, order = np.divmod(np.sort((group_ids - low) * size + position), size)
    new_group = np.ones(size, dtype=bool)
    new_group[1:] = groups[1:] != groups[:-1]
    run_start = np.maximum.accumulate(np.where(new_group, position, 0))
    ranks[order] = position - run_start
    return ranks
