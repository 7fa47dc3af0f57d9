"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``     print the HMOS structure for given parameters
``step``     simulate one PRAM memory step and print the cost breakdown
``route``    compare routing strategies on a skewed instance
``scaling``  sweep n and report measured scaling exponents
``run``      assemble and execute a PRAM assembly program on the mesh
``experiments``  list or execute the E1..E19 reproduction suite
``check``    differential verification: fuzz the stack against the PRAM
             oracle, or replay a recorded divergence artifact
``trace``    record a traced workload, summarize a trace file, or diff
             two traces to localize per-stage step regressions
``serve``    long-lived asyncio JSON-lines simulation server (batched
             multi-tenant access to a pool of warm machines)
``client``   drive a seeded client fleet against a server (in-process
             by default) and report throughput + certification
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis import fit_power_law, simulation_time_bound
from repro.check.generate import PROFILES as _PROFILES
from repro.hmos import HMOS, module_collision_requests
from repro.mesh import Mesh, PacketBatch, Tessellation, route_direct, route_via_submeshes
from repro.pram import MeshBackend, PRAMMachine
from repro.pram.interpreter import Interpreter, assemble
from repro.protocol import AccessProtocol
from repro.util import format_table

__all__ = ["main"]


def _add_scheme_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=256, help="mesh nodes (power-of-4 square)")
    parser.add_argument("--alpha", type=float, default=1.5, help="memory exponent (1, 2]")
    parser.add_argument("--q", type=int, default=3, help="replication factor (prime power >= 3)")
    parser.add_argument("--k", type=int, default=2, help="hierarchy depth")


def _cmd_info(args) -> int:
    scheme = HMOS(n=args.n, alpha=args.alpha, q=args.q, k=args.k)
    print(scheme.describe())
    return 0


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fail-nodes", default=None, metavar="IDS",
        help="comma-separated memory-node ids failed from step 0",
    )
    parser.add_argument(
        "--fail-processors", default=None, metavar="IDS",
        help="comma-separated processor ranks failed from step 0 "
        "(their requests are reassigned to survivors)",
    )
    parser.add_argument(
        "--fail-at", action="append", default=None, metavar="STEP:KIND:IDS",
        help="mid-run fault event, e.g. 2:proc:5 or 1:mem:0,3 "
        "(repeatable; applied before step STEP executes)",
    )


def _build_injector(scheme, args):
    """FaultInjector from the --fail-* flags, or None when all unset."""
    from repro.hmos.faults import FaultInjector, parse_fault_event

    schedule = [parse_fault_event(text) for text in (args.fail_at or ())]
    nodes = (
        [int(x) for x in args.fail_nodes.split(",")] if args.fail_nodes else []
    )
    procs = (
        [int(x) for x in args.fail_processors.split(",")]
        if args.fail_processors
        else []
    )
    if not (schedule or nodes or procs):
        return None
    injector = FaultInjector(scheme, schedule=schedule)
    if nodes:
        injector.fail_nodes(nodes)
    if procs:
        injector.fail_processors(procs)
    return injector


def _cmd_step(args) -> int:
    from repro.protocol.access import StepError, StepRequest

    scheme = HMOS(n=args.n, alpha=args.alpha, q=args.q, k=args.k)
    faults = _build_injector(scheme, args)
    proto = AccessProtocol(scheme, engine=args.engine, faults=faults)
    if args.workload == "adversarial":
        variables = module_collision_requests(scheme, args.n)
    else:
        variables = np.unique(
            (np.arange(args.n, dtype=np.int64) * 7919) % scheme.num_variables
        )[: args.n]
    if args.op == "write":
        step = StepRequest("write", variables, variables)
    else:
        step = StepRequest("read", variables)
    # One-element stream through run_steps so a --fail-at 0:... event
    # fires and a consistency-preserving refusal reports instead of
    # crashing (fault-free behaviour is identical to a direct call).
    (res,) = proto.run_steps([step], on_error="record")
    if isinstance(res, StepError):
        print(f"step refused: {res.message}", file=sys.stderr)
        return 1
    if faults is not None and faults.failed_processors.size:
        print(
            f"degraded mode: {faults.failed_processors.size} dead "
            f"processor(s), {len(res.reassignments)} request(s) reassigned"
        )
    rows = [
        [f"stage {s.stage}", s.t_nodes, s.delta_in, s.delta_out,
         f"{s.sort_steps:.0f}", f"{s.route_steps:.0f}"]
        for s in res.stages
    ]
    rows.append(["return", "-", "-", "-", "-", f"{res.return_steps:.0f}"])
    rows.append(["culling", "-", "-", "-", "-", f"{res.culling.charged_steps:.0f}"])
    print(format_table(
        ["phase", "t_i", "delta_in", "delta_out", "sort", "route"],
        rows,
        title=f"{args.op} step: n={args.n} alpha={args.alpha} "
        f"({args.workload} workload, {args.engine} engine)",
    ))
    bound = simulation_time_bound(args.n, args.alpha, args.q, args.k)
    print(f"\nT_sim measured: {res.total_steps:.0f}   Eq.(8) closed form: {bound:.0f}")
    return 0


def _cmd_route(args) -> int:
    mesh = Mesh(args.side)
    tess = Tessellation.uniform(mesh.n, args.submeshes)
    rng = np.random.default_rng(args.seed)
    hot_nodes = mesh.node_of_rank(
        np.arange(args.hot, dtype=np.int64) * (mesh.n // args.hot)
    )
    dst = np.repeat(hot_nodes, mesh.n // args.hot)
    rng.shuffle(dst)
    batch = PacketBatch(np.arange(mesh.n, dtype=np.int64), dst)
    direct = route_direct(mesh, batch, ports=args.ports)
    staged = route_via_submeshes(mesh, batch, tess, ports=args.ports)
    print(format_table(
        ["strategy", "steps", "detail"],
        [
            ["direct greedy", direct.steps,
             f"max in-transit queue {direct.max_queue}"],
            ["staged (Sec. 2)", staged.steps,
             f"sort {staged.sort_steps} + spread {staged.spread_steps}"
             f" + deliver {staged.deliver_steps}"],
        ],
        title=f"{mesh.side}x{mesh.side} mesh, {args.hot} hot receivers, "
        f"{args.ports}-port",
    ))
    return 0


def _cmd_scaling(args) -> int:
    ns = [int(x) for x in args.ns.split(",")]
    rows = []
    for alpha in (float(a) for a in args.alphas.split(",")):
        steps = []
        for n in ns:
            scheme = HMOS(n=n, alpha=alpha, q=args.q, k=args.k)
            proto = AccessProtocol(scheme, engine="model")
            adv = module_collision_requests(scheme, n)
            steps.append(proto.read(adv).total_steps)
        fit = fit_power_law(np.array(ns, float), np.array(steps))
        rows.append([alpha, *(f"{s:.0f}" for s in steps), f"{fit.exponent:.3f}"])
    print(format_table(
        ["alpha", *(f"T({n})" for n in ns), "exponent"],
        rows,
        title="Adversarial-workload scaling (model engine)",
    ))
    return 0


def _cmd_run(args) -> int:
    source = sys.stdin.read() if args.file == "-" else open(args.file).read()
    program = assemble(source)
    scheme = HMOS(n=args.n, alpha=args.alpha, q=args.q, k=args.k)
    faults = _build_injector(scheme, args)
    machine = PRAMMachine(
        MeshBackend(scheme, engine=args.engine, faults=faults),
        args.n,
    )
    if args.data:
        machine.scatter(0, np.array([int(x) for x in args.data.split(",")]))
    try:
        state = Interpreter(machine).run(program)
    except RuntimeError as exc:
        print(f"run refused: {exc}", file=sys.stderr)
        return 1
    print(f"halted after {state.rounds} rounds "
          f"({state.read_steps} read + {state.write_steps} write steps, "
          f"{machine.cost:.0f} mesh steps)")
    if args.dump:
        count = int(args.dump)
        print("MEM[0:%d] = %s" % (count, machine.gather(0, count).tolist()))
    return 0


def _cmd_experiments(args) -> int:
    from repro.experiments import list_table, run

    if args.run:
        return run(args.run, workers=args.workers)
    print(list_table())
    print("\nRun with: python -m repro experiments --run E4 E8   (or pytest benchmarks/)")
    return 0


def _cmd_check(args) -> int:
    if args.check_command == "fuzz":
        from repro.check.fuzz import run_fuzz

        report = run_fuzz(
            seed=args.seed,
            cases=args.cases,
            workers=args.workers,
            profile=args.profile,
            artifact_dir=args.dir,
        )
        print(report.summary())
        return 0 if report.ok else 1
    # replay
    from repro.check.fuzz import replay
    from repro.check.oracle import DivergenceError

    try:
        report = replay(args.artifact)
    except DivergenceError as exc:
        print(f"divergence still reproduces: {exc}")
        return 1
    print(
        f"artifact passes: {report.steps_checked} steps checked, "
        f"{report.steps_skipped} skipped ({report.case.describe()})"
    )
    return 0


def _trace_workload(scheme, args):
    """The recorded request stream: one write step, then reads."""
    from repro.protocol.access import StepRequest

    if args.workload == "adversarial":
        variables = module_collision_requests(scheme, args.n)
    else:
        variables = np.unique(
            (np.arange(args.n, dtype=np.int64) * 7919) % scheme.num_variables
        )[: args.n]
    steps = [StepRequest("write", variables, variables)]
    steps.extend(StepRequest("read", variables) for _ in range(args.steps - 1))
    return steps


def _cmd_trace(args) -> int:
    import repro.obs as obs

    if args.trace_command == "run":
        from repro.protocol import SimulationReport
        from repro.protocol.access import StepError

        scheme = HMOS(n=args.n, alpha=args.alpha, q=args.q, k=args.k)
        faults = _build_injector(scheme, args)
        proto = AccessProtocol(scheme, engine=args.engine, faults=faults)
        steps = _trace_workload(scheme, args)
        with obs.capture() as tracer:
            results = proto.run_steps(steps, on_error="record")
        out = obs.write_jsonl(tracer, args.out)
        print(f"trace: {len(tracer.events)} events -> {out}")
        if args.perfetto:
            chrome = obs.write_chrome_trace(tracer, args.perfetto)
            print(f"perfetto: open {chrome} at https://ui.perfetto.dev")
        print()
        print(obs.stage_table(tracer.events))
        refused = [r for r in results if isinstance(r, StepError)]
        for err in refused:
            print(f"step {err.index} refused: {err.message}")
        report = SimulationReport()
        report.extend(r for r in results if not isinstance(r, StepError))
        trace_bd = obs.stage_breakdown(tracer.events)
        report_bd = report.breakdown()
        agree = all(
            trace_bd[key] == report_bd[key] for key in report_bd
        )
        print(
            f"\nper-stage totals vs SimulationReport.breakdown(): "
            f"{'agree' if agree else 'DISAGREE'}"
        )
        return 0 if agree else 1
    if args.trace_command == "summarize":
        header, events = obs.read_jsonl(args.trace)
        print(obs.summary_text(header, events))
        return 0
    # diff
    _, events_a = obs.read_jsonl(args.a)
    _, events_b = obs.read_jsonl(args.b)
    from pathlib import Path as _P

    print(obs.diff_table(
        events_a, events_b, label_a=_P(args.a).stem, label_b=_P(args.b).stem
    ))
    return 0


def _serve_config(args):
    """ServeConfig from the shared scheme/fault/pool flags."""
    from repro.hmos.faults import parse_fault_event
    from repro.serve.server import ServeConfig

    schedule = tuple(parse_fault_event(text) for text in (args.fail_at or ()))
    nodes = (
        tuple(int(x) for x in args.fail_nodes.split(","))
        if args.fail_nodes
        else ()
    )
    procs = (
        tuple(int(x) for x in args.fail_processors.split(","))
        if args.fail_processors
        else ()
    )
    return ServeConfig(
        n=args.n,
        alpha=args.alpha,
        q=args.q,
        k=args.k,
        pool=args.pool,
        window_max=args.window,
        inflight_max=args.inflight,
        retain_max=args.retain,
        drr_quantum=args.quantum,
        failed_nodes=nodes,
        failed_processors=procs,
        fault_schedule=schedule,
        fault_machine=args.fault_machine,
        seed=args.seed,
    )


def _add_serve_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pool", type=int, default=1,
                        help="warm machines (HMOS.cached pool slots)")
    parser.add_argument("--window", type=int, default=16,
                        help="max requests per batching window per machine")
    parser.add_argument("--inflight", type=int, default=32,
                        help="per-session admission budget")
    parser.add_argument("--fault-machine", type=int, default=0,
                        help="pool slot the --fail-* flags degrade")
    parser.add_argument("--retain", type=int, default=256,
                        help="retained outcomes per RESUME idempotency scope")
    parser.add_argument("--quantum", type=int, default=None,
                        help="fair-share DRR quantum in processor slots "
                        "(default: n // window)")
    parser.add_argument("--seed", type=int, default=0)


def _cmd_serve(args) -> int:
    import asyncio

    import repro.obs as obs

    from repro.serve.server import start_server

    config = _serve_config(args)

    if args.procs > 1:
        from repro.serve.multiproc import run_multiproc

        def _ready(port: int) -> None:
            degraded = " (degraded pool slot %d)" % config.fault_machine if (
                config.has_faults
            ) else ""
            print(
                f"repro serve: n={config.n} procs={args.procs} "
                f"window={config.window_max} listening on "
                f"{args.host}:{port}{degraded} "
                f"(tenants pinned by crc32 % {args.procs})",
                flush=True,
            )

        try:
            run_multiproc(
                config, args.procs, host=args.host, port=args.port,
                on_ready=_ready,
            )
            print("repro serve: stopped")
        except KeyboardInterrupt:
            print("repro serve: interrupted")
        return 0

    async def _run() -> None:
        handle = await start_server(config, host=args.host, port=args.port)
        degraded = " (degraded pool slot %d)" % config.fault_machine if (
            config.has_faults
        ) else ""
        print(
            f"repro serve: n={config.n} pool={config.pool} "
            f"window={config.window_max} listening on "
            f"{args.host}:{handle.port}{degraded}",
            flush=True,
        )
        await handle.wait_stopped()
        print(
            f"repro serve: stopped after "
            f"{sum(m.batches for m in handle.core.machines)} batch(es)"
        )

    try:
        if args.trace or args.perfetto:
            with obs.capture() as tracer:
                asyncio.run(_run())
            if args.trace:
                print(f"trace: {obs.write_jsonl(tracer, args.trace)}")
            if args.perfetto:
                print(f"perfetto: open {obs.write_chrome_trace(tracer, args.perfetto)}"
                      " at https://ui.perfetto.dev")
        else:
            asyncio.run(_run())
    except KeyboardInterrupt:
        print("repro serve: interrupted")
    return 0


def _cmd_client(args) -> int:
    from repro.util import format_table as _table

    config = _serve_config(args)
    if args.loadgen:
        from repro.serve.loadgen import run_loadgen

        fleets = tuple(int(x) for x in args.fleets.split(","))
        windows = tuple(int(x) for x in args.windows.split(","))
        frontier = run_loadgen(
            scheme=dict(n=config.n, alpha=config.alpha, q=config.q, k=config.k),
            engine="model",
            fleets=fleets,
            windows=windows,
            requests=args.requests,
            batch=args.batch,
            seed=args.seed,
            pipeline=args.pipeline,
            procs=args.procs,
            out=args.out,
        )
        print(_table(
            ["fleet", "window", "delivered", "steps/req",
             "p50 ms", "p99 ms", "wall s"],
            [
                [s["fleet"], s["window"], s["delivered"],
                 f"{s['mesh_steps_per_request']:.1f}"
                 if s["mesh_steps_per_request"] is not None else "-",
                 f"{1e3 * s['latency_p50']:.2f}"
                 if s["latency_p50"] is not None else "-",
                 f"{1e3 * s['latency_p99']:.2f}"
                 if s["latency_p99"] is not None else "-",
                 f"{s['wall_seconds']:.3f}"]
                for s in frontier["samples"]
            ],
            title=f"loadgen frontier: {len(fleets)} fleet size(s) x "
            f"{len(windows)} window(s), procs={args.procs} "
            f"(seed {args.seed})",
        ))
        if args.out:
            print(f"\nfrontier written to {args.out}")
        return 0
    if args.scripted:
        from repro.serve.harness import ScriptedFleet

        run = ScriptedFleet(
            config,
            clients=args.clients,
            requests=args.requests,
            batch=args.batch,
            seed=args.seed,
            fault_clients=args.fault_clients,
        ).run()
        delivered, refused, rejected = run.delivered, run.refused, run.rejected
        counters, machines = run.counters, run.machines
        certified = run.certified
        print(f"scripted fleet transcript digest: {run.transcript_digest}")
    else:
        from repro.serve.client import run_fleet

        host, port = None, 0
        if args.connect:
            host, port_s = args.connect.rsplit(":", 1)
            port = int(port_s)
        report = run_fleet(
            config,
            host=host,
            port=port,
            clients=args.clients,
            requests=args.requests,
            batch=args.batch,
            seed=args.seed,
            fault_clients=args.fault_clients,
            pipeline=args.pipeline,
            certify=not args.no_certify,
            shutdown=args.shutdown,
        )
        delivered, refused, rejected = (
            report.delivered, report.refused, report.rejected,
        )
        counters, machines = report.counters, report.machines
        certified = report.certified
    requests = args.clients * args.requests
    batches = counters.get("serve.batches", 0)
    merged = counters.get("serve.merged_steps", 0)
    print(_table(
        ["machine", "requests", "batches", "steps", "degraded", "state digest"],
        [
            [m["machine"], m["requests"], m["batches"], m["steps"],
             "yes" if m["degraded"] else "no", m["state_digest"]]
            for m in machines
        ],
        title=f"{args.clients} clients x {args.requests} requests "
        f"(seed {args.seed})",
    ))
    amortized = merged / requests if requests else 0.0
    print(
        f"\n{delivered} delivered, {refused} refused (degraded), "
        f"{rejected} rejected (admission); {batches} batch(es), "
        f"{merged} coalesced step(s) = {amortized:.2f} steps/request"
    )
    if certified is not None:
        print(
            "certified: batched execution byte-identical to sequential replay"
            if certified
            else "CERTIFICATION FAILED"
        )
        return 0 if certified else 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Constructive deterministic PRAM simulation on a mesh "
        "(Pietracaprina, Pucci, Sibeyn; SPAA 1994)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="print the HMOS structure")
    _add_scheme_args(p)
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("step", help="simulate one PRAM memory step")
    _add_scheme_args(p)
    _add_fault_args(p)
    p.add_argument("--engine", choices=["cycle", "model"], default="cycle")
    p.add_argument("--workload", choices=["uniform", "adversarial"], default="uniform")
    p.add_argument("--op", choices=["read", "write"], default="read")
    p.set_defaults(fn=_cmd_step)

    p = sub.add_parser("route", help="compare routing strategies")
    p.add_argument("--side", type=int, default=16)
    p.add_argument("--submeshes", type=int, default=16)
    p.add_argument("--hot", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ports", choices=["multi", "single"], default="multi",
                   help="link model: one packet per directed link (multi) "
                   "or per node (single) per step")
    p.set_defaults(fn=_cmd_route)

    p = sub.add_parser("scaling", help="measured scaling exponents")
    p.add_argument("--ns", default="256,1024,4096")
    p.add_argument("--alphas", default="1.5,2.0")
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--k", type=int, default=2)
    p.set_defaults(fn=_cmd_scaling)

    p = sub.add_parser("experiments", help="list or run the E1..E19 experiments")
    p.add_argument("--run", nargs="*", metavar="EID",
                   help="experiment ids to execute (default: list only)")
    p.add_argument("--workers", type=int, default=1,
                   help="run the selected experiments' pytest files as N "
                   "concurrent subprocesses")
    p.set_defaults(fn=_cmd_experiments)

    p = sub.add_parser(
        "check", help="differential verification against the PRAM oracle"
    )
    check_sub = p.add_subparsers(dest="check_command", required=True)
    pf = check_sub.add_parser(
        "fuzz", help="fuzz cycle engine + cost model vs the PRAM oracle"
    )
    pf.add_argument("--seed", type=int, default=0, help="case-stream seed")
    pf.add_argument("--cases", type=int, default=50, help="generated cases")
    pf.add_argument(
        "--dir",
        default="tests/data/repros",
        help="directory for minimized JSON repro artifacts",
    )
    pf.add_argument(
        "--workers",
        type=int,
        default=1,
        help="run the cases on a process pool of N workers (the same "
        "cases and verdict at any N)",
    )
    pf.add_argument(
        "--profile",
        choices=_PROFILES,
        default="default",
        help="generator mix: 'fault-heavy' makes every case carry "
        "processor faults and a mid-run fault schedule; 'full-size' "
        "draws n = 1024 and 4096 cases with full-load steps",
    )
    pf.set_defaults(fn=_cmd_check)
    pr = check_sub.add_parser("replay", help="re-execute a repro artifact")
    pr.add_argument("artifact", help="path to a divergence_*.json artifact")
    pr.set_defaults(fn=_cmd_check)

    p = sub.add_parser(
        "trace", help="record, summarize, or diff observability traces"
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    pt = trace_sub.add_parser(
        "run", help="record one run_steps workload to a trace file"
    )
    _add_scheme_args(pt)
    _add_fault_args(pt)
    pt.add_argument("--engine", choices=["cycle", "model"], default="cycle")
    pt.add_argument("--workload", choices=["uniform", "adversarial"],
                    default="uniform")
    pt.add_argument("--steps", type=int, default=3,
                    help="memory steps to record (1 write + N-1 reads)")
    pt.add_argument("--out", default="trace.jsonl",
                    help="JSONL trace output path")
    pt.add_argument("--perfetto", default=None, metavar="PATH",
                    help="also export a Chrome trace-event JSON "
                    "(loadable in Perfetto / chrome://tracing)")
    pt.set_defaults(fn=_cmd_trace)
    pt = trace_sub.add_parser("summarize", help="per-stage table from a trace")
    pt.add_argument("trace", help="path to a .jsonl trace")
    pt.set_defaults(fn=_cmd_trace)
    pt = trace_sub.add_parser(
        "diff", help="localize step-count deltas between two traces"
    )
    pt.add_argument("a", help="baseline trace (.jsonl)")
    pt.add_argument("b", help="comparison trace (.jsonl)")
    pt.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "serve", help="asyncio JSON-lines simulation server (repro.serve/1)"
    )
    _add_scheme_args(p)
    _add_fault_args(p)
    _add_serve_args(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (0 = ephemeral, printed at boot)")
    p.add_argument("--procs", type=int, default=1,
                   help="worker processes behind one listener (tenants "
                   "pinned by stable hash; 1 = single-process)")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write a JSONL obs trace at shutdown")
    p.add_argument("--perfetto", default=None, metavar="PATH",
                   help="write a Chrome trace-event JSON at shutdown")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "client", help="seeded client fleet against a repro.serve server"
    )
    _add_scheme_args(p)
    _add_fault_args(p)
    _add_serve_args(p)
    p.add_argument("--connect", default=None, metavar="HOST:PORT",
                   help="target a live server (default: boot one in-process)")
    p.add_argument("--clients", type=int, default=4)
    p.add_argument("--requests", type=int, default=20,
                   help="requests per client")
    p.add_argument("--batch", type=int, default=3,
                   help="max variables per request")
    p.add_argument("--fault-clients", type=int, default=0,
                   help="pin the first K clients to the degraded pool slot")
    p.add_argument("--pipeline", type=int, default=8,
                   help="client-side inflight pipelining depth")
    p.add_argument("--scripted", action="store_true",
                   help="deterministic in-process harness (no sockets)")
    p.add_argument("--no-certify", action="store_true",
                   help="skip the batched-vs-sequential certification")
    p.add_argument("--shutdown", action="store_true",
                   help="send SHUTDOWN to the --connect server afterwards")
    p.add_argument("--loadgen", action="store_true",
                   help="sweep fleet sizes x windows against hermetic "
                   "servers and chart the latency/amortization frontier")
    p.add_argument("--fleets", default="2,4,8", metavar="N,N,...",
                   help="fleet sizes the loadgen sweeps")
    p.add_argument("--windows", default="1,4,16", metavar="N,N,...",
                   help="window widths the loadgen sweeps")
    p.add_argument("--procs", type=int, default=1,
                   help="worker processes per loadgen server")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the loadgen frontier JSON here")
    p.set_defaults(fn=_cmd_client)

    p = sub.add_parser("run", help="run a PRAM assembly program on the mesh")
    p.add_argument("file", help="assembly file, or - for stdin")
    _add_scheme_args(p)
    _add_fault_args(p)
    p.add_argument("--engine", choices=["cycle", "model"], default="model")
    p.add_argument("--data", help="comma-separated ints preloaded at MEM[0]")
    p.add_argument("--dump", help="print MEM[0:N] after the run")
    p.set_defaults(fn=_cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
