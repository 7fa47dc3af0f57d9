"""CopyMemory against the per-copy dict store it replaced.

The reference below keeps the old semantics in a few lines: one dict
entry per written copy, the last write wins, unwritten copies read
``(0, -1)``.  A boolean copy mask names the copies ``np.nonzero``
lists, in its row-major order, each taking its row's value.  Random
streams of broadcast and masked writes, rewrites, repeated copy ids and
reads of untouched variables must give equal outputs, an equal
``snapshot()`` and an equal ``written_copies`` on both.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hmos.memory import _BLOCK_BITS, CopyMemory
from repro.hmos.params import HMOSParams

PARAMS = HMOSParams(n=64, alpha=1.5, q=3, k=2)
RED = PARAMS.redundancy
NV = PARAMS.num_variables


class DictMemory:
    """Reference: the dict keyed by copy id, touched one copy at a time."""

    def __init__(self):
        self.store = {}

    def write(self, variables, paths, values, timestamp):
        if paths.dtype == bool:
            rows, paths = np.nonzero(paths)
            values = np.broadcast_to(values, variables.shape)[rows]
            variables = variables[rows]
        ids = np.add(np.multiply(variables, RED), paths).reshape(-1)
        values = np.broadcast_to(values, ids.shape)
        for cid, val in zip(ids.tolist(), values.tolist()):
            self.store[cid] = (val, timestamp)

    def read(self, variables, paths):
        if paths.dtype == bool:
            rows, paths = np.nonzero(paths)
            variables = variables[rows]
        ids = np.add(np.multiply(variables, RED), paths)
        pairs = [self.store.get(c, (0, -1)) for c in ids.reshape(-1).tolist()]
        pairs = np.array(pairs, dtype=np.int64).reshape(ids.shape + (2,))
        return pairs[..., 0], pairs[..., 1]

    def read_latest(self, variables, paths_matrix):
        vals, tss = self.read(variables[:, None], paths_matrix)
        return vals[np.arange(len(variables)), tss.argmax(axis=1)]

    def read_latest_masked(self, variables, mask):
        vals, tss = self.read(variables[:, None], np.arange(RED)[None, :])
        pick = np.where(mask, tss, -2).argmax(axis=1)
        return vals[np.arange(len(variables)), pick]


# A few fixed ids (both ends of the address space among them) so that
# rewrites and repeated ids are common; any other id is untouched.
variable_ids = st.one_of(
    st.sampled_from([0, 1, 5, 17, 400, NV - 2, NV - 1]),
    st.integers(0, NV - 1),
)
paths = st.integers(0, RED - 1)


@st.composite
def operations(draw):
    kind = draw(
        st.sampled_from(
            ["write", "broadcast", "read", "latest", "masked",
             "masked_write", "masked_read"]
        )
    )
    size = draw(st.integers(0, 12))
    variables = np.array(
        draw(st.lists(variable_ids, min_size=size, max_size=size)), dtype=np.int64
    )
    ps = np.array(draw(st.lists(paths, min_size=size, max_size=size)), dtype=np.int64)
    if kind == "write":
        values = draw(st.lists(st.integers(-50, 50), min_size=size, max_size=size))
        return kind, variables, ps, np.array(values, dtype=np.int64)
    if kind in ("masked_write", "masked_read"):
        # Any rows, empty ones included.  A masked write may repeat its
        # first variable in its last row, both rows selecting ps[0], so
        # that copy must take the last row's value.
        rows = st.lists(st.booleans(), min_size=RED, max_size=RED)
        mask = np.array(
            draw(st.lists(rows, min_size=size, max_size=size)), dtype=bool
        ).reshape(size, RED)
        if kind == "masked_read":
            return kind, variables, mask, None
        if size >= 2 and draw(st.booleans()):
            variables[-1] = variables[0]
            mask[[0, -1], ps[0]] = True
        values = draw(st.lists(st.integers(-50, 50), min_size=size, max_size=size))
        return kind, variables, mask, np.array(values, dtype=np.int64)
    if kind == "broadcast":
        # Every listed variable gets every listed path, one value.
        return kind, variables[:, None], ps[None, :], draw(st.integers(-50, 50))
    if kind == "read":
        return kind, variables, ps, None
    if kind == "latest":
        width = draw(st.integers(1, RED))
        matrix = draw(
            st.lists(
                st.lists(paths, min_size=width, max_size=width),
                min_size=size,
                max_size=size,
            )
        )
        matrix = np.array(matrix, dtype=np.int64).reshape(size, width)
        return kind, variables, matrix, None
    rows = st.lists(st.booleans(), min_size=RED, max_size=RED)
    mask = np.array(
        draw(st.lists(rows, min_size=size, max_size=size)), dtype=bool
    ).reshape(size, RED)
    mask[np.arange(size), ps] = True  # every row reaches at least one copy
    return kind, variables, mask, None


@given(
    st.lists(operations(), max_size=25),
    st.lists(st.integers(0, 6), min_size=25, max_size=25),
)
def test_matches_dict_reference(ops, stamps):
    memory, reference = CopyMemory(PARAMS), DictMemory()
    for (kind, variables, arg, values), ts in zip(ops, stamps):
        if kind in ("write", "broadcast", "masked_write"):
            memory.write(variables, arg, values, ts)
            reference.write(variables, arg, values, ts)
        elif kind in ("read", "masked_read"):
            got, want = memory.read(variables, arg), reference.read(variables, arg)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        elif kind == "latest":
            got = memory.read_latest(variables, arg)
            assert np.array_equal(got, reference.read_latest(variables, arg))
        else:
            got = memory.read_latest_masked(variables, arg)
            assert np.array_equal(got, reference.read_latest_masked(variables, arg))
        assert memory.written_copies == len(reference.store)
    assert memory.snapshot() == reference.store


# Row-map growth.  The stream above never touches enough blocks to grow
# the pool far, so these write 24,000 distinct variables in batches: the
# pool grows from one chunk to 160 in 6 steps (contiguous ids) or to
# about 3,400 in 3 (strided and random ids, which touch every block).
# Same q^k as PARAMS, so DictMemory applies unchanged.
BIG = HMOSParams(n=4096, alpha=1.5, q=3, k=2)
BATCH, BATCHES = 1000, 24


def _fresh_ids(pattern, rng):
    """Distinct variable ids, BATCH of them per batch, in write order."""
    nv = BIG.num_variables
    count = BATCH * BATCHES
    if pattern == "contiguous":  # one run of BATCH ids per batch, 30,011 apart
        i = np.arange(count, dtype=np.int64)
        return (i // BATCH) * 30011 + i % BATCH
    if pattern == "strided":  # distinct because num_variables is odd
        return (np.arange(count, dtype=np.int64) << 16) % nv
    return rng.choice(nv, size=count, replace=False).astype(np.int64)


@pytest.mark.parametrize("pattern", ["contiguous", "strided", "random"])
def test_row_map_growth_matches_dict_reference(pattern):
    assert BIG.redundancy == RED and BIG.num_variables % 2 == 1
    rng = np.random.default_rng(23)
    ids = _fresh_ids(pattern, rng)
    assert np.unique(ids).size == ids.size
    memory, reference = CopyMemory(BIG), DictMemory()
    pool_sizes = {memory._pool.size}
    for batch in range(BATCHES):
        start = batch * BATCH
        fresh = ids[start : start + BATCH]
        resident = rng.choice(ids[:start], size=min(start, 200), replace=False)
        # fresh[:2] again: a variable repeated within the write, and
        # (fresh[1], path) twice, so its last value must win.
        variables = np.concatenate((fresh, resident, fresh[:2]))
        ps = rng.integers(0, RED, variables.size)
        ps[-1] = ps[1]
        values = rng.integers(-1000, 1000, variables.size)
        memory.write(variables, ps, values, batch)
        reference.write(variables, ps, values, batch)

        untouched = ids[start + BATCH : start + BATCH + 100]
        asked = np.concatenate((variables[::4], untouched))[:, None]
        every_path = np.arange(RED)[None, :]
        got, want = memory.read(asked, every_path), reference.read(asked, every_path)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert memory.written_copies == len(reference.store)
        touched = ids[: start + BATCH]
        assert memory._used - 1 == touched.size  # one row per variable
        # One chunk per distinct block touched; chunk 0 stays all zeros.
        blocks = np.unique(touched >> _BLOCK_BITS)
        assert memory._chunks - 1 == blocks.size
        assert np.array_equal(np.flatnonzero(memory._directory), blocks)
        assert not memory._pool[: 1 << _BLOCK_BITS].any()
        pool_sizes.add(memory._pool.size)
    # Regrown at least 3 times with resident chunks to keep, and by at
    # least four doublings in all.
    assert len(pool_sizes) >= 4
    assert max(pool_sizes) >= 16 * min(pool_sizes)
    snapshot = memory.snapshot()
    assert snapshot == reference.store
    assert list(snapshot) == sorted(snapshot)
