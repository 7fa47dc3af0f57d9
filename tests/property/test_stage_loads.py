"""Stage loads from page histograms against the per-packet placement.

A stage spreads every page's packets round-robin over the page's node
span.  ``_spread_loads`` derives the resulting per-node loads from the
pages' packet counts alone; ``_spread_nodes`` places every packet.  On
any multiset of page keys, the loads must equal ``np.bincount`` of the
placed packets' curve ranks, and the widest span must match too.
"""

from functools import lru_cache

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.hmos import HMOS
from repro.protocol.access import _spread_loads, _spread_nodes

#: (n, alpha, q, k): every k from 1 to 3 that each mesh size admits.
CONFIGS = (
    (16, 1.5, 3, 1),
    (16, 2.0, 3, 2),
    (64, 1.5, 3, 1),
    (64, 1.5, 3, 2),
    (64, 2.0, 3, 3),
    (256, 1.5, 3, 1),
    (256, 1.5, 3, 2),
    (256, 1.5, 3, 3),
    (4096, 1.5, 3, 1),
    (4096, 1.5, 3, 2),
    (4096, 1.5, 3, 3),
)
CURVES = ("morton", "hilbert")


@lru_cache(maxsize=None)
def _placement(config, curve):
    return HMOS(*config, curve=curve).placement


def _reference(placement, level, keys):
    """Loads by curve rank and widest span, packet by packet."""
    nodes, span_len = _spread_nodes(placement, level, keys)
    loads = np.bincount(placement.mesh.rank_of(nodes), minlength=placement.mesh.n)
    return loads, int(span_len.max()) if span_len.size else 1


def _assert_same(placement, level, keys):
    loads, widest = _spread_loads(placement, level, keys)
    ref_loads, ref_widest = _reference(placement, level, keys)
    np.testing.assert_array_equal(loads, ref_loads)
    assert loads.dtype == np.int64
    assert widest == ref_widest


@given(
    config=st.sampled_from(CONFIGS),
    curve=st.sampled_from(CURVES),
    level_pick=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
    # 0: the empty step; otherwise up to a full load of q^k copies per
    # processor, over pools from one page (crowded) to every page.
    load=st.sampled_from((0.0, 0.01, 0.25, 1.0, 9.0)),
    pool=st.sampled_from((1, 2, 16, None)),
)
def test_histogram_loads_equal_placed_packets(
    config, curve, level_pick, seed, load, pool
):
    placement = _placement(config, curve)
    params = placement.params
    level = 1 + level_pick % params.k
    rng = np.random.default_rng(seed)
    pages = params.num_pages(level)
    candidates = np.arange(pages)
    if pool is not None:
        candidates = rng.choice(pages, size=min(pool, pages), replace=False)
    keys = rng.choice(candidates, size=int(load * params.n)).astype(np.int64)
    _assert_same(placement, level, keys)


def test_empty_step():
    for config in CONFIGS:
        placement = _placement(config, "morton")
        for level in range(1, config[3] + 1):
            empty = np.zeros(0, dtype=np.int64)
            loads, widest = _spread_loads(placement, level, empty)
            assert not loads.any() and loads.size == config[0]
            assert widest == 1


def test_pages_sharing_a_boundary_node():
    """Level-1 pages narrower than a node (n <= 64) share boundary
    nodes; every page holding a packet, crowded or not, still sums."""
    for config in ((16, 2.0, 3, 2), (64, 1.5, 3, 2), (64, 2.0, 3, 3)):
        for curve in CURVES:
            placement = _placement(config, curve)
            _, _, first, last = placement.page_table(1)
            order = np.argsort(first, kind="stable")
            shared = first[order][1:] == last[order][:-1]
            assert shared.any(), config
            pages = np.arange(first.size)
            for repeats in (1, 2, 7):
                _assert_same(placement, 1, np.repeat(pages, repeats))
            # Only the pages on both sides of each shared node.
            _assert_same(
                placement, 1, np.concatenate((order[:-1][shared], order[1:][shared]))
            )
