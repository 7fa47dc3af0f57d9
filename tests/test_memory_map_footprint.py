"""The paper's space claim: the memory map needs (near-)constant storage.

[PP93a]/this paper emphasize that, unlike random-graph MOSes (which
store the whole variable->module map, Theta(n^alpha) words per machine
[Her90a]), the BIBD memory map is *arithmetic*: a processor derives any
copy's location from O(d) = O(log n) integers.  These tests audit our
implementation for accidental materialization: the bytes held in NumPy
arrays reachable from a Placement must not grow with the memory size
beyond the O(log)-sized parameter vectors and the O(q^2) field tables.
The one exception is derived and bounded: stage planning's per-level
page tables, built on first query, hold four int64 per page, and the
page count grows with n^(alpha/2), not with the n^alpha variables.
"""

import numpy as np
import pytest

from repro.hmos import HMOS


def ndarray_bytes(obj, seen=None) -> int:
    """Total nbytes of ndarrays reachable via __dict__/list/tuple/dict."""
    if seen is None:
        seen = set()
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    total = 0
    if hasattr(obj, "__dict__"):
        for value in vars(obj).values():
            total += ndarray_bytes(value, seen)
    if isinstance(obj, dict):
        for value in obj.values():
            total += ndarray_bytes(value, seen)
    if isinstance(obj, (list, tuple)):
        for value in obj:
            total += ndarray_bytes(value, seen)
    return total


class TestFootprint:
    def test_placement_footprint_absolute(self):
        """The whole memory map fits in a few kilobytes (field tables
        dominate: 3 tables of q^2 int64)."""
        scheme = HMOS(n=1024, alpha=2.0, q=3, k=2)
        assert ndarray_bytes(scheme.placement) < 16_384

    def test_footprint_constant_in_memory_size(self):
        """Growing the shared memory 500x leaves the map size flat."""
        small = HMOS(n=256, alpha=1.25, q=3, k=2)  # ~1k variables
        large = HMOS(n=16384, alpha=2.0, q=3, k=2)  # ~300M variables
        b_small = ndarray_bytes(small.placement)
        b_large = ndarray_bytes(large.placement)
        assert b_large <= 2 * b_small
        assert large.num_variables > 10_000 * small.num_variables

    def test_page_tables_are_the_only_storage_queries_add(self):
        """After queries at every level, the map holds the arithmetic
        core plus at most four int64 per page and the q^k-path digit
        table, far below one word per variable.  (The mesh's O(n) curve
        rank tables are the mesh's, not the map's.)"""
        scheme = HMOS(n=1024, alpha=2.0, q=3, k=2)
        p = scheme.params

        def map_bytes():
            return ndarray_bytes(scheme.placement) - ndarray_bytes(scheme.mesh)

        before = map_bytes()
        v = np.arange(0, p.num_variables, p.num_variables // 50)
        paths = np.arange(v.size) % p.redundancy
        scheme.copy_nodes(v, paths)
        for level in range(1, p.k + 1):
            scheme.placement.page_node_spans(level, v, paths)
        pages = sum(p.num_pages(level) for level in range(1, p.k + 1))
        digits = p.redundancy * p.k * 8
        after = map_bytes()
        assert before < after <= before + 32 * pages + digits
        assert pages < p.num_variables // 100

    def test_uw87_baseline_would_need_linear_storage(self):
        """Contrast: the random-graph scheme must either store its map
        (Theta(num_variables * copies) words) or re-derive rows from a
        seeded RNG as our implementation does — which is exactly the
        non-constructive shortcut the paper criticizes (there is no
        compact closed form to *verify* the graph's expansion)."""
        from repro.baselines import UpfalWigdersonScheme

        scheme = UpfalWigdersonScheme(10_000, 64, c=2, seed=0)
        rows = scheme.copy_nodes(np.arange(100))
        full_map_words = scheme.num_variables * scheme.redundancy
        assert full_map_words == 30_000  # what storing it would take
        assert rows.shape == (100, 3)

    def test_query_cost_independent_of_memory_size(self):
        """Address computations touch O(k) integers per copy; verify the
        same query shape works at wildly different memory sizes."""
        for n, alpha in [(256, 1.25), (4096, 2.0)]:
            scheme = HMOS(n=n, alpha=alpha, q=3, k=2)
            v = np.array([0, scheme.num_variables - 1])
            nodes = scheme.copy_nodes(v, np.array([0, scheme.redundancy - 1]))
            assert nodes.min() >= 0 and nodes.max() < n
