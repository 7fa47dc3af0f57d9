"""Tests for the PRAM machine and both memory backends."""

import numpy as np
import pytest

from repro.hmos import HMOS
from repro.pram import IDLE, IdealBackend, MeshBackend, PRAMMachine


@pytest.fixture()
def ideal():
    return PRAMMachine(IdealBackend(memory_size=1024), num_processors=16)


@pytest.fixture()
def mesh_machine():
    scheme = HMOS(n=64, alpha=1.5, q=3, k=2)
    return PRAMMachine(MeshBackend(scheme, engine="model"), num_processors=64)


class TestMachineSemantics:
    def test_read_initial_zero(self, ideal):
        got = ideal.read(np.arange(16))
        np.testing.assert_array_equal(got, 0)

    def test_write_then_read(self, ideal):
        addrs = np.arange(16) * 3
        ideal.write(addrs, np.arange(16) + 100)
        np.testing.assert_array_equal(ideal.read(addrs), np.arange(16) + 100)

    def test_idle_processors(self, ideal):
        addrs = np.full(16, IDLE)
        addrs[3] = 7
        ideal.write(addrs, np.full(16, 42))
        got = ideal.read(addrs)
        assert got[3] == 42
        assert (got[np.arange(16) != 3] == 0).all()

    def test_concurrent_read_combined(self, ideal):
        ideal.write(np.array([5] + [IDLE] * 15), np.full(16, 9))
        got = ideal.read(np.full(16, 5))
        np.testing.assert_array_equal(got, 9)

    def test_priority_crcw(self, ideal):
        """On write conflicts the lowest processor id wins."""
        addrs = np.full(16, 8)
        vals = np.arange(16) + 1
        ideal.write(addrs, vals)
        assert ideal.read(np.array([8] + [IDLE] * 15))[0] == 1

    def test_step_counting(self, ideal):
        assert ideal.pram_steps == 0
        ideal.read(np.full(16, IDLE))
        ideal.write(np.full(16, IDLE), np.zeros(16))
        assert ideal.pram_steps == 2

    def test_rejects_bad_shape(self, ideal):
        with pytest.raises(ValueError):
            ideal.read(np.arange(5))

    def test_rejects_out_of_range_address(self, ideal):
        with pytest.raises(ValueError):
            ideal.read(np.full(16, 2048))

    def test_rejects_too_many_processors(self):
        with pytest.raises(ValueError):
            PRAMMachine(IdealBackend(memory_size=8), num_processors=16)

    def test_scatter_gather_roundtrip(self, ideal):
        data = np.arange(40) * 7  # needs 3 chunks with P=16
        ideal.scatter(100, data)
        np.testing.assert_array_equal(ideal.gather(100, 40), data)


class TestMeshBackend:
    def test_semantics_match_ideal(self, mesh_machine):
        addrs = np.arange(64) * 5
        mesh_machine.write(addrs, addrs + 1)
        np.testing.assert_array_equal(mesh_machine.read(addrs), addrs + 1)

    def test_cost_accumulates(self, mesh_machine):
        c0 = mesh_machine.cost
        mesh_machine.read(np.arange(64))
        assert mesh_machine.cost > c0

    def test_report_counts_ops(self, mesh_machine):
        mesh_machine.read(np.arange(64))
        assert mesh_machine.backend.report().op_counts() == {"read": 1}

    def test_timestamps_monotone(self, mesh_machine):
        """Later writes beat earlier writes through the majority rule."""
        a = np.array([11] + [IDLE] * 63)
        mesh_machine.write(a, np.full(64, 1))
        mesh_machine.write(a, np.full(64, 2))
        assert mesh_machine.read(a)[0] == 2

    def test_cycle_engine_small(self):
        scheme = HMOS(n=64, alpha=1.5, q=3, k=2)
        m = PRAMMachine(MeshBackend(scheme, engine="cycle"), num_processors=64)
        addrs = np.arange(64)
        m.write(addrs, addrs * 2)
        np.testing.assert_array_equal(m.read(addrs), addrs * 2)
        assert m.cost > 0


class TestCrossBackendEquivalence:
    def test_random_program_equivalence(self):
        """The same random access trace gives identical results on the
        ideal array and on the full mesh simulation."""
        rng = np.random.default_rng(42)
        scheme = HMOS(n=64, alpha=1.5, q=3, k=2)
        mesh = PRAMMachine(MeshBackend(scheme, engine="model"), 64)
        ideal = PRAMMachine(IdealBackend(scheme.num_variables), 64)
        for _ in range(12):
            addrs = rng.choice(1000, size=64, replace=False).astype(np.int64)
            addrs[rng.random(64) < 0.2] = IDLE
            if rng.random() < 0.5:
                vals = rng.integers(0, 10**6, 64)
                mesh.write(addrs, vals)
                ideal.write(addrs, vals)
            else:
                np.testing.assert_array_equal(mesh.read(addrs), ideal.read(addrs))


class TestFusedStep:
    def test_read_and_write_in_one_step(self, ideal):
        ideal.write(np.arange(16), np.arange(16) * 10)
        steps_before = ideal.pram_steps
        read_addrs = np.where(np.arange(16) < 8, np.arange(16), IDLE)
        write_addrs = np.where(np.arange(16) >= 8, np.arange(16) + 100, IDLE)
        got = ideal.step(read_addrs, write_addrs, np.full(16, 7))
        assert ideal.pram_steps == steps_before + 1
        np.testing.assert_array_equal(got[:8], np.arange(8) * 10)
        assert ideal.read(np.array([108] + [IDLE] * 15))[0] == 7

    def test_reader_sees_pre_step_value(self, ideal):
        ideal.write(np.array([5] + [IDLE] * 15), np.full(16, 1))
        read_addrs = np.array([5] + [IDLE] * 15)
        write_addrs = np.array([IDLE, 5] + [IDLE] * 14)
        got = ideal.step(read_addrs, write_addrs, np.full(16, 2))
        assert got[0] == 1  # old value
        assert ideal.read(read_addrs)[0] == 2  # new value afterwards

    def test_rejects_read_and_write_same_processor(self, ideal):
        with pytest.raises(ValueError, match="cannot read"):
            ideal.step(np.full(16, 3), np.full(16, 4), np.zeros(16))

    def test_erew_checks_union(self):
        m = PRAMMachine(IdealBackend(64), 4, policy="erew")
        read_addrs = np.array([7, IDLE, IDLE, IDLE])
        write_addrs = np.array([IDLE, 7, IDLE, IDLE])
        with pytest.raises(RuntimeError, match="EREW"):
            m.step(read_addrs, write_addrs, np.zeros(4))

    def test_fused_on_mesh_cheaper_than_split(self, mesh_machine):
        read_addrs = np.where(np.arange(64) < 32, np.arange(64), IDLE)
        write_addrs = np.where(np.arange(64) >= 32, np.arange(64) + 200, IDLE)
        c0 = mesh_machine.cost
        mesh_machine.step(read_addrs, write_addrs, np.arange(64))
        fused = mesh_machine.cost - c0
        c1 = mesh_machine.cost
        mesh_machine.read(read_addrs)
        mesh_machine.write(write_addrs, np.arange(64))
        split = mesh_machine.cost - c1
        assert fused < split

    def test_fused_mesh_semantics(self, mesh_machine):
        mesh_machine.write(np.arange(64), np.arange(64) + 1)
        read_addrs = np.where(np.arange(64) % 2 == 0, np.arange(64), IDLE)
        write_addrs = np.where(np.arange(64) % 2 == 1, np.arange(64), IDLE)
        got = mesh_machine.step(read_addrs, write_addrs, np.full(64, 9))
        np.testing.assert_array_equal(got[::2], np.arange(0, 64, 2) + 1)
        after = mesh_machine.read(np.arange(64))
        expect = np.where(np.arange(64) % 2 == 1, 9, np.arange(64) + 1)
        np.testing.assert_array_equal(after, expect)
