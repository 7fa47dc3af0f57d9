"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["info"])
        assert args.n == 256 and args.alpha == 1.5 and args.q == 3


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--n", "64"]) == 0
        out = capsys.readouterr().out
        assert "redundancy: 9" in out
        assert "BIBD" in out

    def test_step_uniform_cycle(self, capsys):
        assert main(["step", "--n", "64", "--engine", "cycle"]) == 0
        out = capsys.readouterr().out
        assert "T_sim measured" in out
        assert "stage 3" in out

    def test_step_adversarial_model(self, capsys):
        assert main([
            "step", "--n", "64", "--engine", "model",
            "--workload", "adversarial", "--op", "write",
        ]) == 0
        out = capsys.readouterr().out
        assert "adversarial" in out

    def test_step_with_dead_processors(self, capsys):
        assert main([
            "step", "--n", "64", "--engine", "model",
            "--fail-processors", "2,5",
        ]) == 0
        out = capsys.readouterr().out
        assert "degraded mode: 2 dead processor(s)" in out
        assert "2 request(s) reassigned" in out

    def test_step_refused_when_all_processors_die(self, capsys):
        assert main([
            "step", "--n", "64", "--engine", "model",
            "--fail-at", "0:proc:" + ",".join(str(i) for i in range(64)),
        ]) == 1
        err = capsys.readouterr().err
        assert "step refused" in err and "all processors failed" in err

    def test_step_rejects_bad_fault_event(self):
        with pytest.raises(ValueError):
            main(["step", "--n", "64", "--fail-at", "1:alien:2"])

    def test_run_with_dead_processors(self, capsys, tmp_path):
        prog = tmp_path / "double.asm"
        prog.write_text(
            "load r1, pid\nadd r1, r1, r1\nstore pid, r1\nhalt\n"
        )
        assert main([
            "run", str(prog), "--n", "64", "--fail-processors", "1,2",
            "--data", "1,2,3,4", "--dump", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "[2, 4, 6, 8]" in out  # degraded run, same semantics

    def test_route(self, capsys):
        assert main(["route", "--side", "8", "--hot", "4"]) == 0
        out = capsys.readouterr().out
        assert "direct greedy" in out and "staged" in out

    def test_scaling(self, capsys):
        assert main([
            "scaling", "--ns", "64,256", "--alphas", "1.5", "--k", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "exponent" in out

    def test_run_program(self, capsys, tmp_path):
        prog = tmp_path / "double.asm"
        prog.write_text("load r1, pid\nadd r1, r1, r1\nstore pid, r1\nhalt\n")
        assert main([
            "run", str(prog), "--n", "64",
            "--data", "1,2,3,4", "--dump", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "[2, 4, 6, 8]" in out
        assert "halted" in out

    def test_run_bad_assembly(self, tmp_path):
        prog = tmp_path / "bad.asm"
        prog.write_text("bogus r1\n")
        with pytest.raises(Exception):
            main(["run", str(prog), "--n", "64"])


class TestCheckCommand:
    def test_fuzz_defaults(self):
        args = build_parser().parse_args(["check", "fuzz"])
        assert args.seed == 0 and args.cases == 50
        assert args.dir.endswith("repros")

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check"])

    def test_fuzz_smoke(self, capsys, tmp_path):
        assert main([
            "check", "fuzz", "--seed", "3", "--cases", "2",
            "--dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "fuzz ok: 2 cases" in out
        assert "zero divergences" in out
        assert not list(tmp_path.iterdir())  # clean run leaves no artifacts

    def test_fuzz_fault_heavy_profile(self, capsys, tmp_path):
        """--profile fault-heavy certifies cleanly at --workers 1."""
        assert main([
            "check", "fuzz", "--seed", "0", "--cases", "3",
            "--profile", "fault-heavy", "--dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "fuzz ok: 3 cases" in out
        assert not list(tmp_path.iterdir())

    def test_fuzz_never_imports_hypothesis(self, tmp_path):
        """The campaign runs without the test extra: nothing it imports
        pulls in hypothesis."""
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro", "check",
             "fuzz", "--cases", "2", "--dir", str(tmp_path)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert "fuzz ok: 2 cases" in proc.stdout
        imported = [line for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert imported  # -X importtime reported the run's imports
        assert not [line for line in imported if "hypothesis" in line]

    def test_fuzz_rejects_unknown_profile(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "fuzz", "--profile", "bogus"])

    def test_replay_clean_artifact(self, capsys, tmp_path):
        from repro.check import CaseSpec, StepSpec, save_artifact

        case = CaseSpec(
            n=16, alpha=1.5, q=3, k=1,
            steps=(StepSpec(op="read", variables=(0, 1)),),
        )
        path = save_artifact(case, tmp_path, seed=0, error="injected")
        assert main(["check", "replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "artifact passes" in out


class TestExperimentsCommand:
    def test_list(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E16" in out
        assert "Thm 3" in out

    def test_registry_complete(self):
        from repro.experiments import EXPERIMENTS, _benchmarks_dir

        bench_dir = _benchmarks_dir()
        assert len(EXPERIMENTS) == 19
        for info in EXPERIMENTS.values():
            assert (bench_dir / info.bench).exists(), info.bench

    def test_unknown_id_rejected(self):
        from repro.experiments import run

        with pytest.raises(KeyError):
            run(["E99"])


class TestTraceCommand:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_run_records_and_agrees(self, capsys, tmp_path):
        out_path = tmp_path / "run.jsonl"
        perfetto = tmp_path / "run.json"
        assert main([
            "trace", "run", "--n", "64", "--steps", "2",
            "--out", str(out_path), "--perfetto", str(perfetto),
        ]) == 0
        out = capsys.readouterr().out
        assert "agree" in out and "DISAGREE" not in out
        assert "stage 3" in out and "culling" in out
        assert out_path.exists() and perfetto.exists()
        import json

        data = json.loads(perfetto.read_text())
        assert data["traceEvents"]  # Perfetto-loadable payload

    def test_run_with_mid_run_fault(self, capsys, tmp_path):
        out_path = tmp_path / "run.jsonl"
        assert main([
            "trace", "run", "--n", "64", "--steps", "3",
            "--fail-at", "1:proc:0", "--out", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "agree" in out and "DISAGREE" not in out

    def test_summarize(self, capsys, tmp_path):
        out_path = tmp_path / "run.jsonl"
        main(["trace", "run", "--n", "64", "--steps", "2",
              "--out", str(out_path)])
        capsys.readouterr()
        assert main(["trace", "summarize", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "total mesh steps" in out
        assert "engine.queue_occupancy" in out

    def test_diff_localizes_delta(self, capsys, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        main(["trace", "run", "--n", "64", "--k", "2", "--steps", "2",
              "--out", str(a)])
        main(["trace", "run", "--n", "64", "--k", "1", "--steps", "2",
              "--out", str(b)])
        capsys.readouterr()
        assert main(["trace", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        # k=2 has a stage 3 that k=1 lacks: the diff must expose it.
        assert "stage[3].sort" in out
        assert "TOTAL" in out


class TestServeCommands:
    SMALL = ["--n", "16", "--k", "1"]

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.pool == 1 and args.window == 16 and args.port == 0

    def test_client_scripted_certifies(self, capsys):
        assert main([
            "client", *self.SMALL, "--scripted",
            "--clients", "3", "--requests", "5", "--seed", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "transcript digest" in out
        assert "certified: batched execution byte-identical" in out
        assert "15 delivered" in out

    def test_client_scripted_is_reproducible(self, capsys):
        argv = [
            "client", *self.SMALL, "--scripted",
            "--clients", "3", "--requests", "4", "--seed", "8",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_client_inprocess_asyncio(self, capsys):
        assert main([
            "client", *self.SMALL, "--pool", "2",
            "--clients", "3", "--requests", "5", "--seed", "6",
        ]) == 0
        out = capsys.readouterr().out
        assert "15 delivered" in out
        assert "certified" in out and "FAILED" not in out

    def test_client_scripted_degraded(self, capsys):
        assert main([
            "client", *self.SMALL, "--scripted", "--clients", "3",
            "--requests", "5", "--fault-clients", "3",
            "--fail-at", "1:module:" + ",".join(str(i) for i in range(12)),
        ]) == 0
        out = capsys.readouterr().out
        assert "refused (degraded)" in out
        assert "yes" in out  # the degraded pool-slot column
        assert "certified: batched execution byte-identical" in out
