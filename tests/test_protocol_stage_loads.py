"""The model engine's two stage-load derivations give the same step.

A model-engine step of at least ``_HISTOGRAM_MIN_PACKETS`` packets
takes its stage loads from page histograms and decides whether a leg
moves any packet from its two ends' load vectors; only where those are
equal does it place the packets.  Every other step places each packet.
Both must give equal stage metrics and return costs, on either side of
the crossover and on the legs where the placement decides.
"""

import sys

import numpy as np
import pytest

from repro.hmos import HMOS
from repro.protocol import AccessProtocol
from repro.protocol import access


def _step(scheme, variables, monkeypatch, *, min_packets, engine="model"):
    """Read ``variables`` on a fresh protocol; return the result and the
    number of histogram and placement derivations it ran."""
    calls = {"_page_loads": 0, "_place_packets": 0}
    with monkeypatch.context() as patch:
        for name in calls:
            original = getattr(AccessProtocol, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            patch.setattr(AccessProtocol, name, counted)
        patch.setattr(access, "_HISTOGRAM_MIN_PACKETS", min_packets)
        result = AccessProtocol(scheme, engine=engine).read(variables)
    return result, calls


def _legs(scheme, variables):
    """Per-rank loads and per-packet positions of every leg end."""
    proto = AccessProtocol(scheme, engine="model")
    culled = access.cull(scheme, variables)
    flat = np.flatnonzero(culled.selected)
    rows = flat // scheme.params.redundancy
    keys = [k.reshape(-1)[flat] for k in culled.page_keys]
    nodes = scheme.placement.copy_nodes(variables[rows], None, keys=keys[0])
    loads, _ = proto._page_loads(rows, keys, nodes)
    positions, _ = proto._place_packets(rows, keys, nodes)
    return loads, positions


def _assert_same_plan(a, b):
    assert a.stages == b.stages
    assert a.return_steps == b.return_steps


class TestEqualLoadLegs:
    """Full-load steps whose leg ends carry equal load vectors: the
    per-packet fallback alone decides whether the leg is charged."""

    def test_leg_with_equal_loads_that_moves(self, monkeypatch):
        scheme = HMOS(16, 2.0, 5, 1)
        v = np.random.default_rng(16).choice(scheme.num_variables, 16, replace=False)
        loads, positions = _legs(scheme, v)
        # Stage 1's leg: the same loads at both ends, yet packets move.
        assert np.array_equal(loads[1], loads[2])
        assert not np.array_equal(positions[1], positions[2])

        hist, calls = _step(scheme, v, monkeypatch, min_packets=1)
        assert calls == {"_page_loads": 1, "_place_packets": 1}
        placed, calls = _step(scheme, v, monkeypatch, min_packets=sys.maxsize)
        assert calls == {"_page_loads": 0, "_place_packets": 1}
        _assert_same_plan(hist, placed)
        assert hist.stages[1].stage == 1 and hist.stages[1].route_steps > 0

    def test_legs_with_equal_loads_that_stay(self, monkeypatch):
        scheme = HMOS(64, 1.5, 4, 2)
        v = np.random.default_rng(0).choice(scheme.num_variables, 64, replace=False)
        loads, positions = _legs(scheme, v)
        for leg in (1, 2):
            assert np.array_equal(loads[leg], loads[leg + 1])
            assert np.array_equal(positions[leg], positions[leg + 1])

        hist, calls = _step(scheme, v, monkeypatch, min_packets=1)
        assert calls == {"_page_loads": 1, "_place_packets": 1}
        placed, _ = _step(scheme, v, monkeypatch, min_packets=sys.maxsize)
        _assert_same_plan(hist, placed)
        assert [s.route_steps for s in hist.stages[1:]] == [0.0, 0.0]


class TestCrossover:
    @pytest.fixture(scope="class")
    def scheme(self):
        return HMOS(1024, 1.5, 3, 2)

    @pytest.mark.parametrize("side", ["below", "at", "full load"])
    def test_model_metrics_equal_per_packet_derivation(
        self, scheme, side, monkeypatch
    ):
        """Uniform requests at q = 3, k = 2 select 4 copies each, so
        one request fewer than a quarter of the crossover stays below
        it."""
        quarter = access._HISTOGRAM_MIN_PACKETS // 4
        requests = {"below": quarter - 1, "at": quarter, "full load": 1024}[side]
        v = np.random.default_rng(requests).choice(
            scheme.num_variables, requests, replace=False
        )
        default, calls = _step(
            scheme, v, monkeypatch, min_packets=access._HISTOGRAM_MIN_PACKETS
        )
        assert default.culling.total_selected == 4 * requests
        assert calls["_page_loads"] == (side != "below")
        placed, calls = _step(scheme, v, monkeypatch, min_packets=sys.maxsize)
        assert calls == {"_page_loads": 0, "_place_packets": 1}
        _assert_same_plan(default, placed)

    def test_cycle_engine_places_every_packet(self, scheme, monkeypatch):
        """The cycle engine routes the positions, so it never takes the
        histogram path; its loads agree with the model engine's."""
        v = np.random.default_rng(7).choice(scheme.num_variables, 1024, replace=False)
        cycle, calls = _step(scheme, v, monkeypatch, min_packets=1, engine="cycle")
        assert calls == {"_page_loads": 0, "_place_packets": 1}
        model, calls = _step(scheme, v, monkeypatch, min_packets=1)
        assert calls["_page_loads"] == 1

        def loads(res):
            return [(s.stage, s.t_nodes, s.delta_in, s.delta_out) for s in res.stages]

        assert loads(cycle) == loads(model)
