"""Equivalence of the sharded stepping core, property-tested.

Every ``RouteResult`` field matches the single-shard core exactly, for
any shard count and either port model.  A packet lost or duplicated at
a shard boundary would change its batch's completion step or trip the
livelock guard, so the equality also covers the halo exchange.  The
closed-form halo count and the per-step occupancy stream were checked
here too, until the per-shard halo counters and the sharded
``occupancy`` hook were deleted.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.mesh import Mesh, SteppingCore
from repro.mesh.engine_shard import ShardedSteppingCore

ports_st = st.sampled_from(["multi", "single"])


@st.composite
def shard_cases(draw):
    side = draw(st.sampled_from([4, 8]))
    mesh = Mesh(side)
    n = mesh.n
    shards = draw(st.sampled_from([2, 4]))
    nbatches = draw(st.integers(1, 3))
    batches = []
    for _ in range(nbatches):
        size = draw(st.integers(1, n))
        src = draw(st.permutations(range(n)))[:size]
        if draw(st.booleans()):
            dst = draw(st.permutations(range(n)))[:size]
        else:
            dst = draw(
                st.lists(st.integers(0, n - 1), min_size=size, max_size=size)
            )
        batches.append(
            (np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64))
        )
    return mesh, shards, batches


class TestShardedEquivalence:
    @given(shard_cases(), ports_st)
    def test_bit_identical_to_single_core(self, case, ports):
        mesh, shards, batches = case
        ref = SteppingCore(mesh, ports).run(batches)
        core = ShardedSteppingCore(mesh, ports, shards=shards)
        got = core.run(batches)
        for r, g in zip(ref, got):
            assert r.steps == g.steps
            assert r.total_hops == g.total_hops
            assert r.max_queue == g.max_queue
            np.testing.assert_array_equal(r.node_traffic, g.node_traffic)
        # Delivery completeness: traffic counts every hop of every
        # packet, so its total is the Manhattan work — nothing lost or
        # duplicated anywhere, boundaries included.
        for g, (src, dst) in zip(got, batches):
            assert int(g.node_traffic.sum()) == int(
                mesh.distance(src, dst).sum()
            )
