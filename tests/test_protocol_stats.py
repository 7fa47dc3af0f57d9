"""Tests for the simulation report aggregator."""

import numpy as np
import pytest

from repro.culling import CullingResult
from repro.hmos import HMOS
from repro.protocol import AccessProtocol, SimulationReport
from repro.protocol.access import AccessResult


@pytest.fixture()
def results():
    scheme = HMOS(n=64, alpha=1.5, q=3, k=2)
    proto = AccessProtocol(scheme, engine="model")
    v = np.arange(32)
    return [proto.write(v, v, timestamp=1), proto.read(v), proto.read(v + 40)]


@pytest.fixture()
def populated(results):
    report = SimulationReport()
    for result in results:
        report.record(result)
    return report


class TestReport:
    def test_empty(self):
        r = SimulationReport()
        assert r.steps == 0
        assert r.mean_step_cost == 0.0
        assert "no steps" in r.summary()

    def test_counts(self, populated):
        assert populated.steps == 3
        assert populated.op_counts() == {"read": 2, "write": 1}

    def test_totals(self, populated, results):
        assert populated.total_mesh_steps == pytest.approx(
            sum(r.total_steps for r in results)
        )
        assert populated.mean_step_cost == pytest.approx(
            populated.total_mesh_steps / 3
        )

    def test_breakdown_sums_to_total(self, populated):
        bd = populated.breakdown()
        assert sum(bd.values()) == pytest.approx(populated.total_mesh_steps)
        assert bd["culling"] > 0 and bd["routing"] > 0

    def test_worst_delta_positive(self, populated):
        assert populated.worst_delta() >= 1
        assert populated.worst_page_load() >= 1

    def test_summary_contents(self, populated):
        text = populated.summary()
        assert "3 memory steps" in text
        assert "read: 2" in text
        assert "time share" in text

    def test_summary_zero_mesh_steps_says_so(self):
        """Zero charged steps (e.g. an all-refused fault stream) must not
        render a bare 'time share:' line with no percentages."""
        report = SimulationReport()
        zero = AccessResult(
            op="read",
            variables=np.arange(4),
            values=np.zeros(4, dtype=np.int64),
            culling=CullingResult(
                variables=np.arange(4),
                selected=np.zeros((4, 9), dtype=bool),
                iterations=(),
                charged_steps=0.0,
            ),
            stages=(),
            return_steps=0.0,
        )
        report.record(zero)
        text = report.summary()
        share_line = next(
            line for line in text.splitlines() if "time share" in line
        )
        assert share_line.split("time share:")[1].strip()  # never empty
        assert "no mesh steps charged" in share_line

    def test_op_counts_uses_counter_semantics(self, populated):
        # dict equality plus insertion-order independence.
        assert populated.op_counts() == {"read": 2, "write": 1}
        assert SimulationReport().op_counts() == {}

    def test_record_returns_result(self):
        scheme = HMOS(n=64, alpha=1.5, q=3, k=2)
        proto = AccessProtocol(scheme, engine="model")
        report = SimulationReport()
        res = report.record(proto.read(np.arange(4)))
        assert res.op == "read"

    def test_extend(self, populated, results):
        other = SimulationReport()
        other.extend(results)
        assert other.steps == populated.steps
