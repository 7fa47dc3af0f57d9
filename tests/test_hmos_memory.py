"""Tests for the timestamped copy store and majority retrieval."""

import numpy as np
import pytest

from repro.hmos import HMOS
from repro.hmos.memory import _BLOCK_BITS, CopyMemory
from repro.hmos.params import HMOSParams


@pytest.fixture()
def scheme():
    return HMOS(n=64, alpha=1.5, q=3, k=2)


class TestCopyMemory:
    def test_initial_image(self, scheme):
        vals, tss = scheme.memory.read(np.array([0, 1]), np.array([0, 5]))
        np.testing.assert_array_equal(vals, 0)
        np.testing.assert_array_equal(tss, -1)

    def test_write_then_read(self, scheme):
        scheme.memory.write(np.array([4]), np.array([2]), np.array([99]), timestamp=7)
        vals, tss = scheme.memory.read(np.array([4]), np.array([2]))
        assert int(vals[0]) == 99 and int(tss[0]) == 7

    def test_broadcast_write(self, scheme):
        v = np.array([1, 1, 1])
        paths = np.array([0, 1, 2])
        scheme.memory.write(v, paths, 5, timestamp=1)
        vals, _ = scheme.memory.read(v, paths)
        np.testing.assert_array_equal(vals, 5)

    def test_rejects_bad_path(self, scheme):
        with pytest.raises(ValueError):
            scheme.memory.read(np.array([0]), np.array([scheme.redundancy]))

    def test_rejects_bad_variable(self, scheme):
        with pytest.raises(ValueError):
            scheme.memory.read(np.array([scheme.num_variables]), np.array([0]))

    def test_rejects_negative_timestamp(self, scheme):
        """-1 marks an unwritten copy, so a -1 write would vanish from
        the snapshot; every negative stamp is refused up front."""
        with pytest.raises(ValueError):
            scheme.memory.write(np.array([3]), np.array([0]), 9, timestamp=-1)
        assert scheme.memory.written_copies == 0
        assert scheme.memory.snapshot() == {}

    def test_duplicate_copy_last_value_wins(self, scheme):
        v = np.array([2, 2, 2, 2])
        paths = np.array([1, 3, 1, 1])
        scheme.memory.write(v, paths, np.array([5, 7, 6, 8]), timestamp=4)
        vals, tss = scheme.memory.read(v[:2], paths[:2])
        assert vals.tolist() == [8, 7] and tss.tolist() == [4, 4]
        assert scheme.memory.written_copies == 2
        red = scheme.redundancy
        assert scheme.memory.snapshot() == {2 * red + 1: (8, 4), 2 * red + 3: (7, 4)}

    def test_written_copies_counter(self, scheme):
        assert scheme.memory.written_copies == 0
        scheme.memory.write(np.array([0, 0]), np.array([0, 1]), 1, timestamp=0)
        assert scheme.memory.written_copies == 2

    def test_read_latest_prefers_newer(self, scheme):
        v = np.array([3])
        scheme.memory.write(v, np.array([0]), np.array([10]), timestamp=1)
        scheme.memory.write(v, np.array([1]), np.array([20]), timestamp=2)
        got = scheme.memory.read_latest(v, np.array([[0, 1]]))
        assert int(got[0]) == 20

    def test_read_latest_masked(self, scheme):
        v = np.array([6])
        scheme.memory.write(v, np.array([4]), np.array([42]), timestamp=3)
        mask = np.zeros((1, scheme.redundancy), dtype=bool)
        mask[0, [2, 4, 7]] = True
        got = scheme.memory.read_latest_masked(v, mask)
        assert int(got[0]) == 42

    def test_read_latest_masked_requires_nonempty(self, scheme):
        with pytest.raises(ValueError):
            scheme.memory.read_latest_masked(
                np.array([0]), np.zeros((1, scheme.redundancy), dtype=bool)
            )

    @pytest.mark.parametrize("shape", [(1, 9), (2, 4), (3, 3), (2, 10)])
    def test_read_latest_masked_checks_mask_shape(self, scheme, shape):
        """The mask needs one row of q^k = 9 flags per variable."""
        with pytest.raises(ValueError, match="shape"):
            scheme.memory.read_latest_masked(np.array([7, 5]), np.ones(shape, dtype=bool))

    @pytest.mark.parametrize("shape", [(1, 9), (2, 4), (3, 9), (2, 10), (18,)])
    def test_copy_mask_checks_shape(self, scheme, shape):
        """A copy mask needs one row of q^k = 9 flags per variable, in
        ``read`` and ``write`` alike; a refused write changes nothing."""
        variables, mask = np.array([7, 5]), np.ones(shape, dtype=bool)
        with pytest.raises(ValueError, match="shape"):
            scheme.memory.read(variables, mask)
        with pytest.raises(ValueError, match="shape"):
            scheme.memory.write(variables, mask, 1, timestamp=0)
        assert scheme.memory.snapshot() == {}

    def test_masked_write_and_read(self, scheme):
        """With a mask each variable is looked up once: every selected
        copy gets its row's value, and ``read`` returns the selected
        copies flat, in row-major order.  A variable repeated in a later
        row wins the copies both rows select."""
        red = scheme.redundancy
        variables = np.array([3, 8, 3])
        mask = np.zeros((3, red), dtype=bool)
        mask[0, [1, 4]] = mask[1, [0, 2]] = mask[2, [4, 6]] = True
        scheme.memory.write(variables, mask, np.array([10, 20, 30]), timestamp=2)
        assert scheme.memory.snapshot() == {
            3 * red + 1: (10, 2),
            3 * red + 4: (30, 2),
            3 * red + 6: (30, 2),
            8 * red + 0: (20, 2),
            8 * red + 2: (20, 2),
        }
        read_mask = np.zeros((2, red), dtype=bool)
        read_mask[0, [2, 5]] = read_mask[1, [1, 4]] = True
        vals, tss = scheme.memory.read(np.array([8, 3]), read_mask)
        assert vals.tolist() == [20, 0, 10, 30] and tss.tolist() == [2, -1, 2, 2]

    def test_write_read_majority_consistency(self, scheme):
        """Write a target set, read any other target set: newest wins.

        This is the Definition 2 consistency argument at memory level:
        two target sets always intersect in at least one copy.
        """
        from repro.hmos import extract_min_target_set

        rng = np.random.default_rng(9)
        v = np.array([11])
        # Minimal (level-k) write target set: the smallest legal write.
        full = np.ones((1, scheme.redundancy), dtype=bool)
        _, write_mask, _ = extract_min_target_set(
            full, full, scheme.params.q, scheme.params.k, scheme.params.k
        )
        w_paths = np.nonzero(write_mask[0])[0]
        scheme.memory.write(
            np.full(w_paths.shape, 11), w_paths, 1234, timestamp=5
        )
        for _ in range(20):
            # Random minimal target sets as read sets.
            sel = rng.random((1, scheme.redundancy)) < 0.7
            if not scheme.is_target_set(sel)[0]:
                continue
            got = scheme.memory.read_latest_masked(v, sel)
            assert int(got[0]) == 1234


class TestRowMapFootprint:
    """The row map at E8's largest size: 581,120,892 variables."""

    PARAMS = HMOSParams(n=16384, alpha=2.0, q=3, k=2)

    def test_fresh_store_holds_at_most_20_mb(self):
        """The directory (8 B per block of 2^_BLOCK_BITS ids) dominates."""
        assert self.PARAMS.num_variables == 581_120_892
        memory = CopyMemory(self.PARAMS)
        held = sum(a.nbytes for a in vars(memory).values() if isinstance(a, np.ndarray))
        assert held <= 20_000_000

    def test_write_claims_one_chunk_per_touched_block(self):
        memory = CopyMemory(self.PARAMS)
        rng = np.random.default_rng(5)
        variables = rng.choice(self.PARAMS.num_variables, size=4096, replace=False)
        mask = rng.random((variables.size, self.PARAMS.redundancy)) < 0.5
        values = rng.integers(0, 1000, variables.size)
        memory.write(variables, mask, values, timestamp=1)
        blocks = np.unique(variables >> _BLOCK_BITS)
        assert memory._chunks - 1 == blocks.size
        assert np.array_equal(np.flatnonzero(memory._directory), blocks)
        vals, tss = memory.read(variables, mask)
        assert np.array_equal(vals, np.broadcast_to(values[:, None], mask.shape)[mask])
        assert (tss == 1).all()
