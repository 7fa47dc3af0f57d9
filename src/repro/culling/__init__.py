"""Copy selection: procedure CULLING (Section 3.2) and its audits.

CULLING turns the request set R (one variable per processor) into, for
each variable, a target set of copies whose access keeps every level-i
page's congestion below Theorem 3's ``4 q^k n^{1 - 1/2^i}`` bound — the
property the staged access protocol's running time rests on.  Under
failed memory nodes, :func:`cull` takes the copies' availability and
starts each variable from the strongest target set its surviving copies
support.
"""

from repro.culling.audit import audit_theorem3, page_congestion
from repro.culling.procedure import CullingResult, IterationStats, cull

__all__ = [
    "CullingResult",
    "IterationStats",
    "audit_theorem3",
    "cull",
    "page_congestion",
]
