"""Property tests for the util layer: exact arithmetic and grouping.

These primitives feed array indices and submesh boundaries everywhere in
the stack, so they get round-trip/fuzz coverage on top of the
example-based tests in ``tests/test_util_intmath.py``.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util import (
    ceil_div,
    ceil_log,
    digits_from_int,
    int_from_digits,
    is_perfect_square,
    is_power_of,
    isqrt_exact,
)
from repro.util.grouping import rank_within_groups


class TestIntmathRoundTrips:
    @given(
        st.lists(st.integers(0, 10**12), min_size=1, max_size=32),
        st.integers(2, 16),
    )
    def test_digits_roundtrip_value(self, values, base):
        arr = np.array(values, dtype=np.int64)
        width = max(1, int(max(values)).bit_length())  # base >= 2 fits
        digits = digits_from_int(arr, base, width)
        assert np.array_equal(int_from_digits(digits, base), arr)

    @given(
        st.integers(2, 16),
        st.lists(st.integers(0, 15), min_size=1, max_size=12),
    )
    def test_digits_roundtrip_digitwise(self, base, digits):
        digits = [d % base for d in digits]
        value = int(int_from_digits(np.array(digits), base))
        back = digits_from_int(value, base, len(digits))
        assert back.tolist() == digits

    @given(st.integers(-(10**15), 10**15), st.integers(1, 10**9))
    def test_ceil_div_is_tight(self, a, b):
        c = ceil_div(a, b)
        assert (c - 1) * b < a <= c * b

    @given(st.integers(1, 10**12), st.integers(2, 10))
    def test_ceil_log_is_tight(self, value, base):
        e = ceil_log(value, base)
        assert base**e >= value
        assert e == 0 or base ** (e - 1) < value

    @given(st.integers(2, 10), st.integers(0, 30))
    def test_is_power_of_accepts_all_powers(self, base, exp):
        assert is_power_of(base**exp, base)

    @given(st.integers(0, 10**9))
    def test_square_roundtrip(self, root):
        assert is_perfect_square(root * root)
        assert isqrt_exact(root * root) == root

    @given(st.integers(0, 10**9))
    def test_perfect_square_consistency(self, value):
        if is_perfect_square(value):
            assert isqrt_exact(value) ** 2 == value
        else:
            r = int(np.sqrt(value))
            assert r * r != value or not is_perfect_square(value)


# Dense small labels (long runs of equal ids) and labels spread over
# +-2^40 (the packed sort key's range, far beyond any page key).
group_lists = st.one_of(
    st.lists(st.integers(-5, 5), max_size=200),
    st.lists(st.integers(-(2**40), 2**40), max_size=200),
    st.lists(st.sampled_from([-(2**40), -1, 0, 3, 2**40]), max_size=200),
)


def _stable_argsort_ranks(arr):
    """The definition: position in the stable sort minus the start of
    the element's run of equal ids."""
    order = np.argsort(arr, kind="stable")
    sorted_ids = arr[order]
    new_group = np.ones(arr.size, dtype=bool)
    new_group[1:] = sorted_ids[1:] != sorted_ids[:-1]
    run_start = np.maximum.accumulate(np.where(new_group, np.arange(arr.size), 0))
    ranks = np.empty(arr.size, dtype=np.int64)
    ranks[order] = np.arange(arr.size) - run_start
    return ranks


class TestRankWithinGroups:
    @given(group_lists)
    def test_matches_stable_argsort_definition(self, groups):
        arr = np.array(groups, dtype=np.int64)
        assert np.array_equal(rank_within_groups(arr), _stable_argsort_ranks(arr))

    def test_rejects_ids_whose_packed_key_overflows_int64(self):
        # Span 2^62 ids times 2 positions fills int64 exactly; one more
        # id of span overflows it.
        top = 2**62 - 1
        assert rank_within_groups(np.array([0, top])).tolist() == [0, 0]
        with pytest.raises(ValueError, match="overflow"):
            rank_within_groups(np.array([-1, top]))

    @given(group_lists)
    def test_ranks_are_stable_sequences_per_group(self, groups):
        """Within every group, ranks read 0, 1, 2, ... in input order —
        the stability contract the sort-and-rank phases rely on."""
        arr = np.array(groups, dtype=np.int64)
        ranks = rank_within_groups(arr)
        for g in set(groups):
            assert ranks[arr == g].tolist() == list(range((arr == g).sum()))

    @given(group_lists)
    def test_group_rank_pairs_are_unique_keys(self, groups):
        arr = np.array(groups, dtype=np.int64)
        ranks = rank_within_groups(arr)
        pairs = set(zip(arr.tolist(), ranks.tolist()))
        assert len(pairs) == arr.size

    @given(group_lists)
    def test_concatenation_shifts_ranks_by_group_counts(self, groups):
        """Appending a copy of the input continues each group's count —
        ranking a stream equals ranking its chunks with carried offsets."""
        arr = np.array(groups, dtype=np.int64)
        double = np.concatenate([arr, arr])
        ranks = rank_within_groups(double)
        first, second = ranks[: arr.size], ranks[arr.size :]
        counts = {g: int((arr == g).sum()) for g in set(groups)}
        assert np.array_equal(first, rank_within_groups(arr))
        expected_second = rank_within_groups(arr) + np.array(
            [counts[g] for g in arr.tolist()], dtype=np.int64
        )
        assert np.array_equal(second, expected_second)

    @given(group_lists)
    def test_invariant_under_group_relabeling(self, groups):
        """Ranks depend only on the equality pattern, not the labels."""
        arr = np.array(groups, dtype=np.int64)
        relabeled = arr * 7 + 1000  # strictly monotone relabeling
        assert np.array_equal(
            rank_within_groups(arr), rank_within_groups(relabeled)
        )
