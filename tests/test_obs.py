"""Tests for the observability layer (repro.obs)."""

import json
import os
import threading

import numpy as np
import pytest

import repro.obs as obs
from repro.hmos import HMOS
from repro.hmos.faults import FaultInjector
from repro.mesh import Mesh, PacketBatch, SteppingCore, SynchronousEngine
from repro.protocol import AccessProtocol, SimulationReport
from repro.protocol.access import StepRequest


class TestNullTracer:
    def test_default_is_null(self):
        assert obs.current() is obs.NULL_TRACER
        assert not obs.current().enabled

    def test_null_operations_are_noops(self):
        t = obs.NULL_TRACER
        with t.span("anything", op="read") as sp:
            sp.set(extra=1)
        t.count("c", 5)
        t.lane_span("mesh", "x", 3.0)
        t.histogram("h", [0, 1])
        assert t.events == []
        assert t.counters == {}
        assert t.histograms == {}
        assert t.lane_cursor("mesh") == 0.0

    def test_capture_installs_and_restores(self):
        with obs.capture() as tracer:
            assert obs.current() is tracer
            assert tracer.enabled
        assert obs.current() is obs.NULL_TRACER

    def test_capture_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with obs.capture():
                raise RuntimeError("boom")
        assert obs.current() is obs.NULL_TRACER


class TestTracer:
    def test_span_records_on_exit(self):
        t = obs.Tracer()
        with t.span("outer", op="read") as sp:
            sp.set(requests=7)
        (ev,) = t.events
        assert ev["type"] == "span" and ev["name"] == "outer"
        assert ev["args"] == {"op": "read", "requests": 7}
        assert ev["dur"] >= 0.0

    def test_nested_spans_end_order(self):
        t = obs.Tracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
        names = [ev["name"] for ev in t.events]
        assert names == ["inner", "outer"]  # recorded at end time
        inner, outer = t.events
        assert outer["ts"] <= inner["ts"]
        assert outer["ts"] + outer["dur"] >= inner["ts"] + inner["dur"]

    def test_counters_accumulate_and_sample(self):
        t = obs.Tracer()
        t.count("hits")
        t.count("hits", 4)
        assert t.counters == {"hits": 5}
        samples = [ev["value"] for ev in t.events if ev["name"] == "hits"]
        assert samples == [1, 5]  # cumulative at each sample

    def test_lane_spans_advance_cursor(self):
        t = obs.Tracer()
        t.lane_span("mesh", "a", 10.0)
        t.lane_span("mesh", "b", 5.0)
        assert t.lane_cursor("mesh") == 15.0
        a, b = t.events
        assert (a["ts"], a["dur"]) == (0.0, 10.0)
        assert (b["ts"], b["dur"]) == (10.0, 5.0)

    def test_lane_span_explicit_placement(self):
        t = obs.Tracer()
        t.lane_span("mesh", "child", 4.0)
        t.lane_span("mesh", "parent", 4.0, at=0.0, rollup=True)
        assert t.lane_cursor("mesh") == 4.0  # at= does not advance

    def test_histogram_merges_and_grows(self):
        t = obs.Tracer()
        t.histogram("occ", [0, 3, 1])
        t.histogram("occ", [0, 1, 0, 2])
        np.testing.assert_array_equal(t.histograms["occ"], [0, 4, 1, 2])
        t.histogram("occ", [1])
        np.testing.assert_array_equal(t.histograms["occ"], [1, 4, 1, 2])

    def test_thread_safety_smoke(self):
        t = obs.Tracer()

        def work():
            for _ in range(200):
                t.count("n")
                with t.span("s"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert t.counters["n"] == 800
        assert sum(1 for ev in t.events if ev["name"] == "s") == 800

    def test_worker_id_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_WORKER", "7")
        t = obs.Tracer()
        assert t.worker == 7
        with t.span("x"):
            pass
        assert t.events[0]["tid"] == 7


class TestSinks:
    def _small_trace(self):
        t = obs.Tracer()
        with t.span("wall", op="read"):
            t.count("c", 2)
        t.lane_span("mesh", "protocol.culling", 10.0)
        t.histogram("occ", [0, 2])
        return t

    def test_jsonl_roundtrip(self, tmp_path):
        t = self._small_trace()
        path = obs.write_jsonl(t, tmp_path / "t.jsonl")
        header, events = obs.read_jsonl(path)
        assert header["format"] == obs.TRACE_FORMAT
        assert header["counters"] == {"c": 2}
        assert header["histograms"] == {"occ": [0, 2]}
        assert events == t.events

    def test_jsonl_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"format": "something/else"}) + "\n")
        with pytest.raises(ValueError, match="unsupported trace format"):
            obs.read_jsonl(path)

    def test_jsonl_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            obs.read_jsonl(path)

    def test_writes_are_atomic(self, tmp_path):
        t = self._small_trace()
        obs.write_jsonl(t, tmp_path / "t.jsonl")
        obs.write_chrome_trace(t, tmp_path / "t.json")
        # No temp droppings; both files parse completely.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.json", "t.jsonl"]
        json.load(open(tmp_path / "t.json"))

    def test_chrome_export_shape(self, tmp_path):
        t = self._small_trace()
        path = obs.write_chrome_trace(t, tmp_path / "t.json")
        data = json.load(open(path))
        events = data["traceEvents"]
        phases = {ev["ph"] for ev in events}
        assert phases == {"M", "X", "C"}
        # Lane spans land on their own named thread.
        lane_meta = [
            ev for ev in events
            if ev["ph"] == "M" and ev["name"] == "thread_name"
            and "lane:mesh" in ev["args"]["name"]
        ]
        assert len(lane_meta) == 1
        lane_tid = lane_meta[0]["tid"]
        lane_spans = [
            ev for ev in events if ev["ph"] == "X" and ev["tid"] == lane_tid
        ]
        assert [ev["name"] for ev in lane_spans] == ["protocol.culling"]
        assert lane_spans[0]["dur"] == 10.0

    def test_chrome_export_from_jsonl_events(self, tmp_path):
        t = self._small_trace()
        header, events = obs.read_jsonl(obs.write_jsonl(t, tmp_path / "t.jsonl"))
        path = obs.write_chrome_trace(events, tmp_path / "t.json", header=header)
        data = json.load(open(path))
        assert data["otherData"]["format"] == obs.TRACE_FORMAT


class TestEngineInstrumentation:
    def test_disabled_path_identical(self):
        mesh = Mesh(8)
        engine = SynchronousEngine(mesh)
        rng = np.random.default_rng(1)
        batch = PacketBatch(np.arange(mesh.n, dtype=np.int64),
                            rng.permutation(mesh.n))
        plain = engine.route(batch)
        with obs.capture():
            traced = engine.route(batch)
        assert (plain.steps, plain.total_hops, plain.max_queue) == (
            traced.steps, traced.total_hops, traced.max_queue
        )
        np.testing.assert_array_equal(plain.node_traffic, traced.node_traffic)

    def test_route_many_counters(self):
        mesh = Mesh(8)
        engine = SynchronousEngine(mesh)
        rng = np.random.default_rng(2)
        batches = [
            PacketBatch(np.arange(mesh.n, dtype=np.int64),
                        rng.permutation(mesh.n))
            for _ in range(3)
        ]
        with obs.capture() as t:
            results = engine.route_many(batches)
        assert t.counters["engine.route_many_calls"] == 1
        assert t.counters["engine.batches"] == 3
        assert t.counters["engine.delivered_packets"] == 3 * mesh.n
        assert t.counters["engine.steps"] == sum(r.steps for r in results)
        assert t.counters["engine.total_hops"] == sum(
            r.total_hops for r in results
        )
        (span,) = [ev for ev in t.events if ev["name"] == "engine.route_many"]
        assert span["args"]["max_in_transit"] == max(r.max_queue for r in results)

    def test_occupancy_histogram_consistent_with_max_queue(self):
        mesh = Mesh(8)
        engine = SynchronousEngine(mesh)
        # All packets to one corner: guaranteed queueing.
        batch = PacketBatch(
            np.arange(mesh.n, dtype=np.int64),
            np.zeros(mesh.n, dtype=np.int64),
        )
        with obs.capture() as t:
            res = engine.route(batch)
        hist = t.histograms["engine.queue_occupancy"]
        observed_max = max(i for i, c in enumerate(hist) if c)
        assert observed_max == res.max_queue
        # The traced bins are the per-step occupancy vectors, binned
        # and summed: nothing dropped, merged or double-counted.
        samples = []
        SteppingCore(mesh).run(
            [(batch.src, batch.dst)],
            occupancy=lambda occ: samples.append(occ.copy()),
        )
        expected = np.zeros(max(s.max() for s in samples) + 1, dtype=np.int64)
        for occ in samples:
            counts = np.bincount(occ)
            expected[: counts.size] += counts
        np.testing.assert_array_equal(hist, expected)


class TestProtocolInstrumentation:
    @pytest.fixture(scope="class")
    def traced_run(self):
        scheme = HMOS(n=64, alpha=1.5, q=3, k=2)
        proto = AccessProtocol(scheme, engine="cycle")
        v = np.arange(32)
        steps = [
            StepRequest("write", v, v),
            StepRequest("read", v),
            StepRequest("mixed", v[:16], v[:16] + 1,
                        (np.arange(16) % 2).astype(bool)),
        ]
        with obs.capture() as tracer:
            results = proto.run_steps(steps)
        report = SimulationReport()
        report.extend(results)
        return tracer, report

    def test_stage_breakdown_matches_report_exactly(self, traced_run):
        tracer, report = traced_run
        # The acceptance bar: culling/sorting/routing/return recovered
        # from the trace agree exactly with the post-hoc aggregate.
        assert obs.stage_breakdown(tracer.events) == report.breakdown()

    def test_span_hierarchy_present(self, traced_run):
        tracer, report = traced_run
        names = {ev["name"] for ev in tracer.events}
        assert "protocol.step" in names
        assert "protocol.access" in names
        assert "engine.route_many" in names
        assert "protocol.culling" in names
        assert "protocol.return" in names
        k = 2
        for stage in range(k + 1, 0, -1):
            assert f"stage[{stage}].sort" in names
            assert f"stage[{stage}].route" in names
        assert any(n.startswith("culling.iteration[") for n in names)

    def test_stage_attrs_recorded(self, traced_run):
        tracer, report = traced_run
        spans = [
            ev for ev in tracer.events
            if ev.get("lane") == "mesh" and ev["name"] == "stage[3].route"
        ]
        assert spans
        for ev in spans:
            assert set(ev["args"]) == {"t_nodes", "delta_in", "delta_out"}
            assert ev["args"]["t_nodes"] == 64

    def test_rollup_spans_cover_children(self, traced_run):
        tracer, report = traced_run
        rollups = [
            ev for ev in tracer.events
            if ev.get("lane") == "mesh" and ev["args"].get("rollup")
        ]
        assert len(rollups) == report.steps
        total = sum(ev["dur"] for ev in rollups)
        assert total == pytest.approx(report.total_mesh_steps)

    def test_lane_cursor_equals_total_steps(self, traced_run):
        tracer, report = traced_run
        assert tracer.lane_cursor("mesh") == pytest.approx(
            report.total_mesh_steps
        )

    def test_model_engine_also_traces(self):
        scheme = HMOS(n=64, alpha=1.5, q=3, k=2)
        proto = AccessProtocol(scheme, engine="model")
        with obs.capture() as t:
            res = proto.read(np.arange(16))
        bd = obs.stage_breakdown(t.events)
        assert bd["culling"] == pytest.approx(res.culling.charged_steps)
        assert bd["routing"] == pytest.approx(
            sum(s.route_steps for s in res.stages)
        )

    def test_step_errors_counted(self):
        scheme = HMOS(n=64, alpha=1.5, q=3, k=2)
        faults = FaultInjector(scheme)
        faults.fail_nodes(np.arange(40))  # heavy damage: some step refused
        proto = AccessProtocol(scheme, engine="model", faults=faults)
        steps = [StepRequest("read", np.arange(32))]
        with obs.capture() as t:
            results = proto.run_steps(steps, on_error="record")
        from repro.protocol.access import StepError

        if any(isinstance(r, StepError) for r in results):
            assert t.counters["protocol.step_errors"] >= 1


class TestCacheInstrumentation:
    def test_hit_miss_and_load_counters(self):
        from repro.cache import ArtifactCache

        with obs.capture() as t:
            cache = ArtifactCache()
            cache.scheme(64, 1.5)  # cold: builds
            cache.scheme(64, 1.5)  # warm: memory hit
        assert t.counters["cache.memory_misses"] >= 1
        assert t.counters["cache.memory_hits"] >= 1
        assert t.counters["cache.builds"] >= 1


class TestParallelInstrumentation:
    def test_run_commands_spans_tag_workers(self):
        from repro.parallel import run_commands

        ok = ["python", "-c", "pass"]
        with obs.capture() as t:
            codes = run_commands([ok, ok, ok], workers=2)
        assert codes == [0, 0, 0]
        spans = [ev for ev in t.events if ev["name"] == "parallel.command"]
        assert len(spans) == 3
        assert {ev["args"]["index"] for ev in spans} == {0, 1, 2}
        assert all("worker" in ev["args"] for ev in spans)
        assert all(ev["args"]["returncode"] == 0 for ev in spans)
        (outer,) = [ev for ev in t.events if ev["name"] == "parallel.commands"]
        assert outer["args"]["commands"] == 3

    def test_pool_workers_get_valid_ids(self):
        # End to end: every task ran under an assigned worker id.  Ids
        # come from multiprocessing's per-child identity counter, which
        # is cumulative over the parent's lifetime — so they are
        # positive and span at most `workers` distinct values, but are
        # NOT 1..workers when earlier tests already spawned children.
        # (Which worker grabs which task is scheduler-dependent, so a
        # fast task stream can legally drain through one worker.)
        # oversubscribe forces the pool path on single-core boxes,
        # where the honest clamp would otherwise run the map inline.
        from repro.parallel import parallel_map

        ids = parallel_map(_worker_env_id, range(4), workers=2, oversubscribe=True)
        assert all(i >= 1 for i in ids)
        assert len(set(ids)) <= 2

    def test_init_worker_derives_id_from_process_identity(self, monkeypatch):
        # The assignment mechanism itself, deterministically: the id is
        # multiprocessing's own per-child identity counter (available
        # under every start method, unlike the fork-context Value the
        # pool used to ship through initargs), floored at 1 so id 0
        # stays the parent's track.
        from repro import parallel

        monkeypatch.delenv("REPRO_OBS_WORKER", raising=False)
        seen = []
        for rank in (0, 1, 2):
            monkeypatch.setattr(parallel, "_worker_rank", lambda r=rank: r)
            parallel._init_worker()
            seen.append(os.environ["REPRO_OBS_WORKER"])
        assert seen == ["1", "1", "2"]


def _worker_env_id(_):
    import os

    return int(os.environ.get("REPRO_OBS_WORKER", "0") or 0)


class TestSummaryAndDiff:
    def _trace(self, q_like_cost):
        t = obs.Tracer()
        t.lane_span("mesh", "protocol.culling", 100.0 * q_like_cost)
        t.lane_span("mesh", "stage[3].sort", 50.0)
        t.lane_span("mesh", "stage[3].route", 20.0 * q_like_cost)
        t.lane_span("mesh", "protocol.return", 10.0)
        t.lane_span("mesh", "protocol.access",
                    t.lane_cursor("mesh"), at=0.0, rollup=True)
        return t.events

    def test_lane_totals_exclude_rollups(self):
        totals = obs.lane_totals(self._trace(1))
        assert "protocol.access" not in totals
        assert totals["protocol.culling"] == 100.0

    def test_diff_localizes_regression(self):
        rows = obs.diff_traces(self._trace(1), self._trace(3))
        # Largest delta first: culling grew by 200, stage[3].route by 40.
        assert rows[0][0] == "protocol.culling" and rows[0][3] == 200.0
        assert rows[1][0] == "stage[3].route" and rows[1][3] == 40.0
        unchanged = {name: d for name, _, _, d in rows}
        assert unchanged["stage[3].sort"] == 0.0
        assert unchanged["protocol.return"] == 0.0

    def test_diff_table_output(self):
        text = obs.diff_table(self._trace(1), self._trace(2),
                              label_a="q3", label_b="q4")
        assert "q3" in text and "q4" in text and "TOTAL" in text

    def test_summary_text_zero_steps(self):
        assert "no mesh steps charged" in obs.summary_text({}, [])

    def test_summary_text_includes_counters_and_histograms(self):
        header = {
            "counters": {"engine.steps": 42},
            "histograms": {"engine.queue_occupancy": [10, 5, 1]},
        }
        text = obs.summary_text(header, self._trace(1))
        assert "engine.steps=42" in text
        assert "engine.queue_occupancy" in text
