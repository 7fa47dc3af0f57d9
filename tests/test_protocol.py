"""Integration tests for the k+1-stage access protocol."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.culling import cull
from repro.hmos import HMOS
from repro.protocol import AccessProtocol
from repro.protocol.access import StepRequest


@pytest.fixture()
def scheme():
    return HMOS(n=64, alpha=1.5, q=3, k=2)


@pytest.fixture()
def cycle(scheme):
    return AccessProtocol(scheme, engine="cycle")


@pytest.fixture()
def model(scheme):
    return AccessProtocol(scheme, engine="model")


class TestValidation:
    def test_rejects_bad_engine(self, scheme):
        with pytest.raises(ValueError):
            AccessProtocol(scheme, engine="magic")

    def test_write_requires_aligned_values(self, cycle):
        with pytest.raises(ValueError):
            cycle.write(np.array([1, 2]), np.array([1]), timestamp=0)

    @pytest.mark.parametrize("bad", [[1.9], ["1"], [True], [2**63], [2**64]])
    def test_rejects_non_integer_ids(self, model, scheme, bad):
        """Ids are never truncated, parsed or wrapped: 1.9 and "1" used
        to read variable 1, and 2**63 raised OverflowError."""
        model.write([1], [111], timestamp=1)
        with pytest.raises(ValueError, match="int64 integers"):
            model.read(bad)
        with pytest.raises(ValueError, match="int64 integers"):
            cull(scheme, bad)
        with pytest.raises(ValueError, match="int64 integers"):
            scheme.memory.read(bad, 0)
        assert model.read([]).values.size == 0
        assert model.read(np.array([1], dtype=np.uint8)).values.tolist() == [111]

    def test_rejects_non_integer_values_and_non_bool_is_write(self, model, scheme):
        """Written values are never truncated, parsed or wrapped, and
        ``is_write`` must be booleans: 1.9 and "7" used to store 1 and
        7, ``is_write=[2]`` wrote, and 2**63 raised OverflowError."""
        with pytest.raises(ValueError, match="int64 integers"):
            model.write([1, 2], [1.9, "7"], timestamp=1)
        with pytest.raises(ValueError, match="booleans"):
            model.mixed([3], [2], [5], timestamp=1)
        with pytest.raises(ValueError, match="int64 integers"):
            model.write([4], [2**63], timestamp=1)
        with pytest.raises(ValueError, match="int64 integers"):
            model.run_steps([StepRequest("mixed", [5], [0.5], [True])])
        with pytest.raises(ValueError, match="int64 integers"):
            scheme.memory.write([6], [0], [1.5], timestamp=1)
        assert scheme.memory.snapshot() == {}
        assert model.read([1, 2, 3, 4, 5, 6]).values.tolist() == [0] * 6
        model.mixed([3], np.array([1], dtype=bool), [5], timestamp=2)
        assert model.read([3]).values.tolist() == [5]


class TestReadWrite:
    def test_read_initial_zeroes(self, cycle):
        res = cycle.read(np.array([0, 5, 9]))
        np.testing.assert_array_equal(res.values, 0)

    def test_write_then_read(self, cycle):
        variables = np.array([3, 17, 40])
        cycle.write(variables, np.array([30, 170, 400]), timestamp=1)
        res = cycle.read(variables)
        np.testing.assert_array_equal(res.values, [30, 170, 400])

    def test_overwrite_newest_wins(self, cycle):
        v = np.array([7])
        cycle.write(v, np.array([1]), timestamp=1)
        cycle.write(v, np.array([2]), timestamp=2)
        res = cycle.read(v)
        assert res.values[0] == 2

    def test_full_processor_load(self, cycle, scheme):
        """One request per processor — the paper's canonical PRAM step."""
        variables = np.arange(scheme.params.n)
        w = cycle.write(variables, variables * 10, timestamp=1)
        r = cycle.read(variables)
        np.testing.assert_array_equal(r.values, variables * 10)
        assert w.total_steps > 0 and r.total_steps > 0

    def test_stage_structure(self, cycle, scheme):
        res = cycle.read(np.arange(16))
        k = scheme.params.k
        assert len(res.stages) == k + 1
        assert [s.stage for s in res.stages] == list(range(k + 1, 0, -1))
        # Outermost stage operates on the full mesh.
        assert res.stages[0].t_nodes == scheme.params.n
        # Operating submeshes shrink inward.
        sizes = [s.t_nodes for s in res.stages]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_inner_stage_t_nodes_is_widest_page_span(self, cycle, scheme):
        """Stage i <= k works inside level-i pages: its t_nodes is the
        widest level-i page span among the step's selected copies."""
        variables = np.arange(40)
        res = cycle.read(variables)
        rows, paths = np.nonzero(res.culling.selected)
        for s in res.stages[1:]:
            first, last = scheme.placement.page_node_spans(
                s.stage, variables[rows], paths
            )
            assert s.t_nodes == int((last - first + 1).max())

    def test_total_steps_decomposition(self, cycle):
        res = cycle.read(np.arange(8))
        assert res.total_steps == pytest.approx(
            res.culling.charged_steps
            + sum(s.steps for s in res.stages)
            + res.return_steps
        )
        assert res.return_steps > 0

    def test_deltas_bounded_by_culling(self, cycle, scheme):
        """After each spreading stage, per-node load must respect the
        page-congestion bound divided by the page's node span (Eq. 5),
        up to ceil rounding."""
        res = cycle.read(np.arange(scheme.params.n))
        for s in res.stages[1:]:  # stages k..1 start from spread positions
            level = s.stage  # delta_in of stage i is the spread at level i
            if level <= scheme.params.k:
                bound = scheme.params.theorem3_bound(level)
                t_mean = scheme.params.mean_page_nodes(level)
                # Permit ceil effects when pages share nodes (t < 1).
                assert s.delta_in <= np.ceil(bound / max(t_mean, 1.0)) + bound


class TestModelEngine:
    def test_model_matches_semantics(self, scheme):
        model = AccessProtocol(scheme, engine="model")
        variables = np.array([2, 4, 8, 16])
        model.write(variables, variables + 1, timestamp=1)
        res = model.read(variables)
        np.testing.assert_array_equal(res.values, variables + 1)

    def test_model_steps_are_closed_form(self, scheme, model):
        res = model.read(np.arange(32))
        for s in res.stages:
            if s.route_steps:
                expected = model.cost_model.route_steps(
                    s.delta_in, s.delta_out, s.t_nodes
                )
                assert s.route_steps == pytest.approx(expected)

    def test_cycle_and_model_same_selection(self, scheme):
        """Both engines must make identical copy selections (the physics
        differs, the algorithm does not)."""
        variables = np.arange(48)
        res_c = AccessProtocol(scheme, engine="cycle").read(variables)
        res_m = AccessProtocol(scheme, engine="model").read(variables)
        np.testing.assert_array_equal(res_c.culling.selected, res_m.culling.selected)


class TestConsistencyProperty:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_write_read_cycles(self, seed):
        """Interleaved partial writes/reads never return stale values."""
        scheme = HMOS(n=64, alpha=1.5, q=3, k=2)
        proto = AccessProtocol(scheme, engine="model")
        rng = np.random.default_rng(seed)
        shadow = {}
        for t in range(1, 6):
            variables = rng.choice(scheme.num_variables, size=16, replace=False)
            if rng.random() < 0.5:
                vals = rng.integers(0, 1000, 16)
                proto.write(variables, vals, timestamp=t)
                shadow.update(zip(variables.tolist(), vals.tolist()))
            else:
                res = proto.read(variables)
                expect = np.array([shadow.get(int(v), 0) for v in variables])
                np.testing.assert_array_equal(res.values, expect)
