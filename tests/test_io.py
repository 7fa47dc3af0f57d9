"""Tests for configuration and result serialization."""

import json

import numpy as np
import pytest

from repro.hmos import HMOS
from repro.hmos.faults import FaultInjector
from repro.io import (
    ACCESS_RESULT_FORMAT,
    access_result_to_dict,
    load_config,
    save_config,
    scheme_from_config,
    scheme_to_config,
)
from repro.protocol import AccessProtocol
from repro.protocol.access import StepRequest


class TestSchemeConfig:
    def test_roundtrip(self):
        scheme = HMOS(n=256, alpha=1.5, q=3, k=2, curve="hilbert")
        rebuilt = scheme_from_config(scheme_to_config(scheme))
        assert rebuilt.params == scheme.params
        assert rebuilt.mesh.curve == "hilbert"

    def test_rebuilt_scheme_places_identically(self):
        scheme = HMOS(n=64, alpha=1.5)
        rebuilt = scheme_from_config(scheme_to_config(scheme))
        v = np.arange(50)
        paths = np.arange(50) % scheme.redundancy
        np.testing.assert_array_equal(
            scheme.copy_nodes(v, paths), rebuilt.copy_nodes(v, paths)
        )

    def test_file_roundtrip(self, tmp_path):
        scheme = HMOS(n=64, alpha=1.25, q=3, k=2)
        path = tmp_path / "scheme.json"
        save_config(scheme, path)
        rebuilt = load_config(path)
        assert rebuilt.params == scheme.params
        # File is valid, human-readable JSON.
        data = json.loads(path.read_text())
        assert data["n"] == 64

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            scheme_from_config({"format": "something/else"})

    def test_derived_mismatch_rejected(self):
        scheme = HMOS(n=64, alpha=1.5)
        config = scheme_to_config(scheme)
        config["derived"]["redundancy"] = 99
        with pytest.raises(ValueError, match="derived"):
            scheme_from_config(config)

    def test_config_without_derived_accepted(self):
        config = scheme_to_config(HMOS(n=64, alpha=1.5))
        del config["derived"]
        assert scheme_from_config(config).params.n == 64


class TestResultExport:
    def test_access_result_dict(self):
        scheme = HMOS(n=64, alpha=1.5)
        proto = AccessProtocol(scheme, engine="model")
        res = proto.read(np.arange(16))
        d = access_result_to_dict(res)
        assert d["op"] == "read"
        assert d["requests"] == 16
        assert d["total_steps"] == pytest.approx(res.total_steps)
        assert len(d["stages"]) == scheme.params.k + 1
        # JSON-serializable end to end.
        json.dumps(d)

    def test_stage_fields(self):
        scheme = HMOS(n=64, alpha=1.5)
        proto = AccessProtocol(scheme, engine="model")
        d = access_result_to_dict(proto.read(np.arange(8)))
        stage = d["stages"][0]
        assert set(stage) == {
            "stage", "t_nodes", "delta_in", "delta_out", "sort_steps", "route_steps"
        }

    def test_format_stamp_present(self):
        scheme = HMOS(n=64, alpha=1.5)
        proto = AccessProtocol(scheme, engine="model")
        d = access_result_to_dict(proto.read(np.arange(8)))
        assert d["format"] == ACCESS_RESULT_FORMAT == "repro.access/1"

    def test_roundtrip_mixed_steps_with_faults(self):
        scheme = HMOS(n=64, alpha=1.5)
        faults = FaultInjector(scheme)
        faults.fail_nodes([0, 5, 9])
        proto = AccessProtocol(scheme, engine="cycle", faults=faults)
        v = np.arange(24)
        steps = [
            StepRequest("write", v, v * 2),
            StepRequest("mixed", v, v + 1, (np.arange(24) % 2).astype(bool)),
            StepRequest("read", v),
        ]
        for res in proto.run_steps(steps):
            archived = access_result_to_dict(res)
            # Through JSON text and back, as an archive would go.
            assert json.loads(json.dumps(archived)) == archived
            assert archived["op"] == res.op
            assert archived["requests"] == res.variables.size
            assert archived["total_steps"] == pytest.approx(res.total_steps)
            assert archived["reassigned"] == len(res.reassignments)
            assert len(archived["stages"]) == len(res.stages)


class TestAtomicSave:
    def test_save_config_leaves_no_temp_files(self, tmp_path):
        scheme = HMOS(n=64, alpha=1.5)
        path = tmp_path / "scheme.json"
        save_config(scheme, path)
        assert [p.name for p in tmp_path.iterdir()] == ["scheme.json"]
        assert load_config(path).params == scheme.params

    def test_save_config_replaces_atomically(self, tmp_path, monkeypatch):
        """A crash mid-write must leave the previous complete recipe."""
        import repro.util.fsio as fsio

        scheme = HMOS(n=64, alpha=1.5)
        path = tmp_path / "scheme.json"
        save_config(scheme, path)
        before = path.read_text()

        real_fdopen = fsio.os.fdopen

        class _Exploding:
            def __init__(self, fh):
                self._fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()
                return False

            def write(self, text):
                self._fh.write(text[: len(text) // 2])
                raise OSError("disk full")

        monkeypatch.setattr(
            fsio.os, "fdopen", lambda fd, mode: _Exploding(real_fdopen(fd, mode))
        )
        with pytest.raises(OSError, match="disk full"):
            save_config(HMOS(n=256, alpha=1.5), path)
        monkeypatch.undo()
        # Destination untouched and still parseable; no temp droppings.
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["scheme.json"]
        assert load_config(path).params == scheme.params
