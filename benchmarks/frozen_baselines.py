"""Frozen baselines of the throughput gates, and the recorder that makes them.

``benchmarks/test_perf_protocol.py`` compares today's stack with the
stack as it was before the throughput layer.  That stack is no longer in
the product, so its times are measured from a ``git archive`` of a
commit that still had it and committed to
``benchmarks/BENCH_protocol.json`` as ``baseline`` blocks:

* ``run_steps`` -- commit 1b31577, the parent of the throughput layer:
  per-step ``read``/``write``/``mixed`` calls on a freshly built
  ``HMOS(n, 1.5)``, the build inside the timer.
* ``fuzz_campaign`` -- commit 6decd7e, whose gate module still defined
  the pre-throughput oracle (plain arithmetic HMOS on both engine
  sides, curve rank tables off, chains and page keys recomputed per
  step).  The throughput layer's parent cannot run today's cases: they
  carry processor faults, which came later.

The recorder alternates the baseline and today's stack for ``ROUNDS``
rounds, each in its own worker process, and times every run at
reference speed (``_harness.at_reference_speed``).  A baseline pins the
work it timed: a stream its mesh-step total and a sha256 over the int64
values of every read and mixed step, in step order; a campaign a sha256
of its case stream.  Both stacks must produce the same pin, or nothing
is recorded.  The gates recompute the pin on today's stack and refuse to
compare different work.

Regenerate one baseline block of the committed record with::

    PYTHONPATH=src python3 benchmarks/frozen_baselines.py run_steps full
    PYTHONPATH=src python3 benchmarks/frozen_baselines.py fuzz_campaign quick

(``git`` must reach the baseline commit; the full stream takes about
four minutes on a 2-core host).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORD = HERE / "BENCH_protocol.json"

ALPHA = 1.5
#: ``(n, steps)`` of the run_steps stream per gate mode.
STREAMS = {"full": (4096, 100), "quick": (1024, 6)}
#: Case count of the fuzz campaign per gate mode; the stream's seed.
CAMPAIGNS = {"full": 200, "quick": 60}
CAMPAIGN_SEED = 0
#: The commit each baseline is measured at, and what runs there.
COMMITS = {"run_steps": "1b31577", "fuzz_campaign": "6decd7e"}
STACKS = {
    "run_steps": (
        "per-step read/write/mixed on AccessProtocol(HMOS(n, 1.5), "
        "engine='model'), scheme build inside the timer"
    ),
    "fuzz_campaign": (
        "the pre-throughput oracle of the commit's gate module on every "
        "case, in sequence: plain arithmetic HMOS on both engine sides, "
        "curve rank tables off, chains and page keys recomputed per step"
    ),
}
ROUNDS = 10


def mixed_workload(num_variables: int, n: int, steps: int) -> list[tuple]:
    """Full-load request stream cycling read, write and mixed steps, as
    ``(op, variables, values, is_write)`` tuples."""
    rng = np.random.default_rng(7)
    out = []
    for i in range(steps):
        op = ("read", "write", "mixed")[i % 3]
        variables = rng.choice(num_variables, size=n, replace=False)
        values = is_write = None
        if op in ("write", "mixed"):
            values = rng.integers(0, 10**6, size=n)
        if op == "mixed":
            is_write = rng.integers(0, 2, size=n).astype(bool)
        out.append((op, variables, values, is_write))
    return out


def stream_pin(results) -> dict:
    """The mesh-step total of a stream's results and a sha256 over the
    values its read and mixed steps returned."""
    total = 0.0
    digest = hashlib.sha256()
    for res in results:
        total += res.total_steps
        if res.values is not None:
            digest.update(np.asarray(res.values, dtype=np.int64).tobytes())
    return {"mesh_steps": total, "values_sha256": digest.hexdigest()}


def campaign_pin(cases: int) -> dict:
    """A sha256 over the campaign's ``random_cases`` stream."""
    from repro.check.generate import random_cases

    digest = hashlib.sha256()
    for case in random_cases(CAMPAIGN_SEED, cases):
        digest.update(json.dumps(case.to_dict(), sort_keys=True).encode())
    return {"cases_sha256": digest.hexdigest()}


def stream_today(n: int, steps: int):
    """Today's stack on the stream: one batched ``run_steps`` call on the
    cached scheme, built here, off the clock."""
    from repro.hmos.scheme import HMOS
    from repro.protocol.access import AccessProtocol, StepRequest

    requests = [
        StepRequest(op=op, variables=v, values=values, is_write=is_write)
        for op, v, values, is_write in mixed_workload(
            HMOS.cached(n, ALPHA).num_variables, n, steps
        )
    ]

    def run():
        protocol = AccessProtocol(HMOS.cached(n, ALPHA), engine="model")
        return protocol.run_steps(requests, start_timestamp=1)

    return run


def warm_campaign(cases: int) -> None:
    """Fill the artifact memo over the fuzz parameter grid with a disjoint
    seed, so the timed campaign is a warm one."""
    from repro.check.fuzz import run_fuzz

    run_fuzz(seed=99, cases=cases // 4, workers=1)


def campaign_today(cases: int, workers: int = 1):
    """Today's campaign: ``run_fuzz`` over the seeded case stream."""
    from repro.check.fuzz import run_fuzz

    def run():
        report = run_fuzz(seed=CAMPAIGN_SEED, cases=cases, workers=workers)
        assert report.ok, report.summary()
        return report

    return run


def _stream_baseline(n: int, steps: int):
    from repro.hmos.scheme import HMOS
    from repro.protocol.access import AccessProtocol

    requests = mixed_workload(HMOS(n, ALPHA).num_variables, n, steps)

    def run():
        protocol = AccessProtocol(HMOS(n, ALPHA), engine="model")
        results = []
        for i, (op, v, values, is_write) in enumerate(requests):
            if op == "read":
                results.append(protocol.read(v))
            elif op == "write":
                results.append(protocol.write(v, values, timestamp=i + 1))
            else:
                results.append(
                    protocol.mixed(v, is_write, values, timestamp=i + 1)
                )
        return results

    return run


def _campaign_baseline(cases: int, checkout: Path):
    from repro.check.generate import random_cases
    from repro.check.oracle import DifferentialOracle

    path = checkout / "benchmarks" / "test_perf_protocol.py"
    spec = importlib.util.spec_from_file_location("baseline_gate", path)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    (oracle,) = {
        obj
        for obj in vars(gate).values()
        if isinstance(obj, type)
        and issubclass(obj, DifferentialOracle)
        and obj is not DifferentialOracle
    }
    warm_campaign(cases)

    def run():
        for case in random_cases(CAMPAIGN_SEED, cases):
            oracle(case).run()

    return run


def _worker(side: str, bench: str, mode: str, checkout: Path) -> None:
    """Time one stack per line read from stdin; answer with one JSON line."""
    from _harness import at_reference_speed

    answers, sys.stdout = sys.stdout, sys.stderr  # keep stray prints apart
    if bench == "run_steps":
        n, steps = STREAMS[mode]
        if side == "baseline":
            run = _stream_baseline(n, steps)
        else:
            run = stream_today(n, steps)
        pin = stream_pin
    else:
        cases = CAMPAIGNS[mode]
        if side == "baseline":
            run = _campaign_baseline(cases, checkout)
        else:
            warm_campaign(cases)
            run = campaign_today(cases)
        fixed = campaign_pin(cases)

        def pin(_):
            return fixed

    for _ in sys.stdin:
        seconds, wall, out = at_reference_speed(run)
        answer = {"seconds": seconds, "wall_seconds": wall, "pin": pin(out)}
        answers.write(json.dumps(answer) + "\n")
        answers.flush()


def record(bench: str, mode: str) -> dict:
    """Measure one baseline and write it into the committed record."""
    from _harness import instance_metadata

    commit = COMMITS[bench]
    times: dict[str, list[float]] = {"baseline": [], "today": []}
    pins = []
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", commit],
            check=True,
            capture_output=True,
        ).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        procs = {}
        for side, src in (("baseline", Path(tmp)), ("today", ROOT)):
            env = dict(os.environ, PYTHONPATH=str(src / "src"))
            procs[side] = subprocess.Popen(
                [sys.executable, __file__, "--worker", side, bench, mode, tmp],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                env=env,
            )
        try:
            for _ in range(ROUNDS):
                for side, proc in procs.items():
                    proc.stdin.write("round\n")
                    proc.stdin.flush()
                    line = proc.stdout.readline()
                    if not line:
                        raise SystemExit(f"the {side} worker died")
                    answer = json.loads(line)
                    times[side].append(answer["seconds"])
                    if answer["pin"] not in pins:
                        pins.append(answer["pin"])
        finally:
            for proc in procs.values():
                proc.stdin.close()
                proc.wait()
    if len(pins) != 1:
        raise SystemExit(f"the two stacks did different work: {pins}")
    block = {
        "commit": commit,
        "stack": STACKS[bench],
        "command": (
            f"PYTHONPATH=src python3 benchmarks/frozen_baselines.py {bench} {mode}"
        ),
        "rounds": ROUNDS,
        "round_seconds": times["baseline"],
        "seconds": statistics.median(times["baseline"]),
        "today_seconds_alternated": statistics.median(times["today"]),
        "pin": pins[0],
        "instance": instance_metadata(),
    }
    data = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    data.setdefault(bench, {}).setdefault(mode, {})["baseline"] = block
    RECORD.write_text(json.dumps(data, indent=2) + "\n")
    return block


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("bench", choices=sorted(COMMITS))
    parser.add_argument("mode", choices=sorted(STREAMS))
    args = parser.parse_args(argv)
    block = record(args.bench, args.mode)
    print(
        f"{args.bench} {args.mode}: baseline {block['seconds']:.3f} s, "
        f"today {block['today_seconds_alternated']:.3f} s at reference "
        f"speed (medians of {ROUNDS}); pin {block['pin']}"
    )


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        _worker(*sys.argv[2:5], Path(sys.argv[5]))
    else:
        main()
