"""The four benchmark workloads (see NOTES.md for why each exists).

A workload turns ``(seed, seconds)`` into inputs, builds the program's
object under test, and runs a fixed number of ops through it.  The op
count is a pure function of the workload and ``--seconds`` -- never of
elapsed time -- so every simulated count repeats exactly for a seed.
``NOMINAL_OP_S`` converts seconds to ops at the speed measured on the
reference host (2 cores, no numba); a faster program finishes the same
work sooner.

Every returned value is checked against an independent reference
between ops, off the clock.  ``perturb`` corrupts that reference, which
must show up as failed ops (the benchmark's self-test uses it).  Also
between ops and off the clock, a workload probes the host's speed
(``hostspeed.py``), so that op times can be put at reference speed.
"""

from __future__ import annotations

import hashlib
import math
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

import hostspeed
from repro.hmos.params import HMOSParams
from repro.hmos.scheme import HMOS
from repro.pram.algorithms import bfs
from repro.pram.backends import MeshBackend
from repro.pram.machine import PRAMMachine
from repro.protocol.access import AccessProtocol, StepRequest
from repro.serve import protocol as wire
from repro.serve.client import ClientScript
from repro.serve.server import ServeConfig, ServerCore

ALPHA, Q, K = 1.5, 3, 2

#: Each run times enough ops that at least ten samples lie above p90.
MIN_OPS = 100

perf = time.perf_counter


@dataclass
class Outcome:
    """What one pass of a workload measured and checked.

    Between ops, off the clock, the workload probes the host's speed
    (``hostspeed.py``).  The probes cut the pass into epochs; each timed
    op records its epoch, so its wall time can be put at reference
    speed with the host's slowness around it.
    """

    latencies: list = field(default_factory=list)  # wall seconds per timed op
    epochs: list = field(default_factory=list)  # the epoch of each timed op
    busy: list = field(default_factory=lambda: [0.0])  # op wall seconds per epoch
    probes: list = field(default_factory=list)  # seconds per host-speed probe
    attempted: int = 0  # ops checked, warm-up included
    failed: int = 0
    mesh_steps: float = 0.0  # summed total_steps over timed ops
    digest: str = ""  # sha256 of every returned value, in order
    extra: dict = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def busy_s(self) -> float:
        """Summed op wall time."""
        return sum(self.busy)

    def probe(self) -> None:
        """Close the current epoch with a probe of the host's speed."""
        self.probes.append(hostspeed.probe())
        self.busy.append(0.0)

    def add_latency(self, dt: float) -> None:
        self.latencies.append(dt)
        self.epochs.append(len(self.probes))

    def add_busy(self, dt: float) -> None:
        self.busy[-1] += dt

    def add_op(self, dt: float) -> None:
        """A timed op whose latency is all of its busy time."""
        self.add_latency(dt)
        self.add_busy(dt)

    def at_reference_speed(self) -> tuple[np.ndarray, float]:
        """Op latencies and summed op time, in seconds at the reference
        host's speed.  A pass ends with a probe, so every op's epoch is
        closed."""
        assert self.busy[-1] == 0.0, "a pass must end with a probe"
        slow = hostspeed.slowness(self.probes)
        latencies = np.asarray(self.latencies) / slow[np.asarray(self.epochs, dtype=np.int64)]
        busy = float(np.sum(np.asarray(self.busy[:-1]) / slow))
        return latencies, busy


def _scaled(seconds: float, op_s: float, floor: int = MIN_OPS) -> int:
    return max(floor, round(seconds / op_s))


class Uniform:
    """Full-load ``run_steps`` stream: one op is one step of ``n``
    distinct uniform variables, cycling read, write and mixed."""

    NOMINAL_OP_S = {"model": 0.055, "cycle": 0.22}
    WARMUP = 3
    PROBES_PER_OP = 3

    def __init__(self, engine: str, seed: int, seconds: float, toy: bool, perturb: bool):
        self.engine = engine
        self.seed = seed
        self.n = 64 if toy else 4096
        self.ops = 12 if toy else _scaled(seconds, self.NOMINAL_OP_S[engine])
        self.builds = 3 if toy else 5
        self.perturb = perturb

    def prepare(self) -> None:
        """Inputs are drawn op by op inside :meth:`run`, off the clock."""

    def build(self) -> AccessProtocol:
        return AccessProtocol(HMOS.cached(self.n, ALPHA, Q, K), engine=self.engine)

    def _request(self, rng, index: int, num_variables: int) -> StepRequest:
        n = self.n
        op = ("read", "write", "mixed")[index % 3]
        variables = rng.choice(num_variables, size=n, replace=False)
        values = is_write = None
        if op != "read":
            values = rng.integers(0, 1 << 30, size=n)
        if op == "mixed":
            is_write = np.zeros(n, dtype=bool)
            is_write[rng.permutation(n)[: n // 2]] = True
        return StepRequest(op=op, variables=variables, values=values, is_write=is_write)

    def run(self, protocol: AccessProtocol, rec) -> Outcome:
        num_variables = protocol.scheme.num_variables
        rng = np.random.default_rng([self.seed, 1])
        # Ideal PRAM memory: every cell starts at 0.
        shadow = np.full(num_variables, 1 if self.perturb else 0, dtype=np.int64)
        digest = hashlib.sha256()
        out = Outcome()
        for i in range(self.WARMUP + self.ops):
            timed = i >= self.WARMUP
            request = self._request(rng, i, num_variables)
            rec.enabled = timed
            rec.op = i
            t0 = perf()
            try:
                result = protocol.run_steps([request], start_timestamp=i + 1)[0]
            except RuntimeError:
                result = None
            dt = perf() - t0
            rec.enabled = False
            out.attempted += 1
            if timed:
                out.add_op(dt)
            for _ in range(self.PROBES_PER_OP):
                out.probe()
            if result is None:
                out.failed += 1
                continue
            if timed:
                out.mesh_steps += float(result.total_steps)
            variables = np.asarray(request.variables)
            ok = True
            if request.op != "write":
                # Reads and mixed steps return pre-step values.
                ok = np.array_equal(result.values, shadow[variables])
                digest.update(np.ascontiguousarray(result.values, dtype=np.int64).tobytes())
            if request.op == "write":
                shadow[variables] = request.values
            elif request.op == "mixed":
                shadow[variables[request.is_write]] = request.values[request.is_write]
            out.failed += not ok
        rec.freeze()
        out.digest = digest.hexdigest()
        out.extra["resident_copies"] = protocol.scheme.memory.written_copies
        return out


class _TimedMachine(PRAMMachine):
    """The PRAM machine handed to the algorithm: every call the
    algorithm issues is one op, timed from call to return.  Every
    ``PROBE_EVERY`` calls it probes the host's speed, off the clock."""

    PROBE_EVERY = 4
    rec = None
    out = None  # the Outcome timed calls go to
    timed = False

    def __init__(self, backend, num_processors):
        super().__init__(backend, num_processors)
        self.calls = 0  # calls issued, warm-up included

    def _timed(self, method, *args):
        self.rec.op = self.calls
        t0 = perf()
        result = method(self, *args)
        dt = perf() - t0
        self.calls += 1
        if self.timed:
            self.out.add_op(dt)
        if self.calls % self.PROBE_EVERY == 0:
            self.out.probe()
        return result

    def read(self, addrs):
        return self._timed(PRAMMachine.read, addrs)

    def write(self, addrs, values):
        return self._timed(PRAMMachine.write, addrs, values)

    def step(self, read_addrs, write_addrs, write_values):
        return self._timed(PRAMMachine.step, read_addrs, write_addrs, write_values)

    def scatter(self, base, values):
        return self._timed(PRAMMachine.scatter, base, values)

    def gather(self, base, count):
        return self._timed(PRAMMachine.gather, base, count)


def _reference_bfs(offsets: np.ndarray, targets: np.ndarray, source: int) -> np.ndarray:
    dist = np.full(offsets.size - 1, -1, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in targets[offsets[v] : offsets[v + 1]].tolist():
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


class Bfs:
    """``repro.pram.algorithms.bfs`` through ``PRAMMachine`` over the
    model-engine mesh backend; one op is one machine call."""

    NOMINAL_QUERY_S = 1.67
    DEGREE = 4
    DEPTH = 10  # the most common eccentricity at V=4096

    def __init__(self, seed: int, seconds: float, toy: bool, perturb: bool):
        self.seed = seed
        self.n = 64 if toy else 4096
        self.queries = 2 if toy else max(2, round(seconds / self.NOMINAL_QUERY_S))
        self.depth = None if toy else self.DEPTH
        self.builds = 3 if toy else 5
        self.perturb = perturb

    def prepare(self) -> None:
        V = self.n
        rng = np.random.default_rng([self.seed, 2])
        # Out-degrees follow the expected Poisson(4) histogram exactly,
        # shuffled over the vertices: the seed picks the wiring, not the
        # degree mix, whose maximum sets how many near-empty steps each
        # BFS level issues.
        pmf = [math.exp(-self.DEGREE) * self.DEGREE**d / math.factorial(d) for d in range(4 * self.DEGREE)]
        counts = np.round(np.asarray(pmf) * V).astype(np.int64)
        counts[self.DEGREE] += V - counts.sum()
        degrees = rng.permutation(np.repeat(np.arange(counts.size), counts))
        self.offsets = np.concatenate([[0], np.cumsum(degrees)])
        self.targets = rng.integers(V, size=int(self.offsets[-1]))
        # Sources are seeded draws that reach at least half the graph at
        # eccentricity DEPTH: every query then runs the same number of
        # levels, so a seed cannot shift the mix of full and near-empty
        # steps.  The first source is the warm-up query.
        self.sources, self.expected = [], []
        while len(self.sources) < 1 + self.queries:
            source = int(rng.integers(V))
            dist = _reference_bfs(self.offsets, self.targets, source)
            if np.count_nonzero(dist >= 0) >= V // 2 and (self.depth is None or dist.max() == self.depth):
                self.sources.append(source)
                self.expected.append(dist)
        if self.perturb:
            for dist in self.expected:
                dist[dist.argmax()] += 1

    def build(self) -> PRAMMachine:
        scheme = HMOS.cached(self.n, ALPHA, Q, K)
        return _TimedMachine(MeshBackend(scheme, engine="model"), self.n)

    def run(self, machine: _TimedMachine, rec) -> Outcome:
        out = Outcome()
        digest = hashlib.sha256()
        machine.rec, machine.out = rec, out
        for q, source in enumerate(self.sources):
            machine.timed = rec.enabled = q > 0
            first, cost = machine.calls, machine.backend.cost
            dist = bfs(machine, self.offsets, self.targets, source)
            rec.enabled = False
            calls = machine.calls - first
            out.attempted += calls
            if machine.timed:
                out.mesh_steps += machine.backend.cost - cost
            digest.update(dist.astype(np.int64).tobytes())
            if not np.array_equal(dist, self.expected[q]):
                out.failed += calls
        machine.timed = False
        out.probe()
        rec.freeze()
        out.digest = digest.hexdigest()
        out.extra["resident_copies"] = machine.backend.scheme.memory.written_copies
        return out


def _wire(msg):
    """One frame over the wire: encoded, then decoded on the far side."""
    return wire.decode_message(wire.encode_message(msg))


class Serve:
    """A synchronous closed loop of 16 tenants over one in-process
    ``ServerCore``; one op is one request, from send to decoded outcome.

    Which tenant sends next is drawn from a seeded RNG, and the window
    is flushed exactly when ``window_max`` requests are pending or no
    tenant can send, so batch composition is a function of the seed.
    """

    TENANTS = 16
    BATCH = 4  # at most 4 variables per request
    NOMINAL_REQUESTS_PER_S = 1800

    def __init__(self, seed: int, seconds: float, toy: bool, perturb: bool):
        self.seed = seed
        self.config = ServeConfig(
            n=64, alpha=ALPHA, q=Q, k=K, engine="cycle", pool=1,
            window_max=16, inflight_max=4,
        )
        total = 8 * self.TENANTS if toy else _scaled(seconds, 1 / self.NOMINAL_REQUESTS_PER_S)
        self.warmup = self.TENANTS * (1 if toy else 4)
        self.per_tenant = math.ceil((total + self.warmup) / self.TENANTS)
        self.builds = 3 if toy else 25
        self.perturb = perturb

    def prepare(self) -> None:
        c = self.config
        self.num_variables = HMOSParams(n=c.n, alpha=c.alpha, q=c.q, k=c.k).num_variables

    def build(self) -> ServerCore:
        return ServerCore(self.config)

    def _scripts(self) -> list[ClientScript]:
        scripts = [
            ClientScript(i, self.TENANTS, self.seed, self.num_variables, self.BATCH, self.per_tenant)
            for i in range(self.TENANTS)
        ]
        if self.perturb:
            for s in scripts:
                s.shadow.update((v, 1) for v in range(s.index, self.num_variables, self.TENANTS))
        return scripts

    def run(self, core: ServerCore, rec) -> Outcome:
        scripts = self._scripts()
        sessions = []
        for i in range(self.TENANTS):
            reply, session = core.hello(_wire(wire.Hello(tenant=f"t{i}")))
            if not isinstance(_wire(reply), wire.Welcome):
                raise RuntimeError(f"tenant {i} refused at HELLO: {reply}")
            sessions.append(session)
        machine = core.machines[0]
        window, inflight = self.config.window_max, self.config.inflight_max
        master = np.random.default_rng([self.seed, 3])
        digest = hashlib.sha256()
        out = Outcome()
        sent_at: dict = {}
        timed = False
        base = (0.0, 0, 0)
        sent = completed = 0
        while True:
            ready = [
                i for i, s in enumerate(scripts)
                if s.has_more() and len(s.sent) < inflight
            ]
            if ready and core.pending_total < window:
                i = ready[int(master.integers(len(ready)))]
                step = scripts[i].next_request()
                rec.op = sent
                sent += 1
                t0 = perf()
                refusal = core.submit(sessions[i].sid, _wire(step))
                if refusal is not None:
                    refusal = _wire(refusal)
                if timed:
                    out.add_busy(perf() - t0)
                sent_at[(i, step.id)] = (t0, rec.op)
                if refusal is not None:
                    scripts[i].on_reply(refusal)
                    sent_at.pop((i, step.id))
                    out.attempted += 1
                    out.failed += 1
                continue
            if not core.has_pending():
                break
            # Flush spans serve many requests: op id -1.  Each reply's
            # frames carry the op id of its request.
            rec.op = -1
            t0 = perf()
            core.flush()
            replies = []
            for i, session in enumerate(sessions):
                for msg in session.drain():
                    rec.op = sent_at[(i, msg.id)][1]
                    replies.append((i, _wire(msg), perf()))
            if timed:
                out.add_busy(perf() - t0)
            # Checks, off the clock: read-your-writes on every RESULT.
            for i, reply, t in replies:
                latency = t - sent_at.pop((i, reply.id))[0]
                if timed:
                    out.add_latency(latency)
                out.attempted += 1
                completed += 1
                if isinstance(reply, wire.Result):
                    digest.update(repr((i, reply.id, reply.batch, reply.step, reply.values)).encode())
                else:
                    out.failed += 1
                try:
                    scripts[i].on_reply(reply)
                except AssertionError:
                    out.failed += 1
            out.probe()
            if not timed and completed >= self.warmup:
                timed = True
                base = (machine.mesh_steps, machine.steps_executed, machine.requests)
                rec.enabled = True
        out.probe()
        rec.enabled = False
        rec.freeze()
        out.mesh_steps = machine.mesh_steps - base[0]
        merged = machine.steps_executed - base[1]
        out.extra["requests_per_merged_step"] = (machine.requests - base[2]) / merged
        rec.enabled = rec.timing
        t0 = perf()
        verdict = core.certify()
        out.extra["certify_s"] = perf() - t0
        rec.enabled = False
        if not verdict.ok:
            out.failed = out.attempted
        out.digest = digest.hexdigest()
        out.extra["resident_copies"] = machine.scheme.memory.written_copies
        return out


WORKLOADS = {
    "uniform-model-4096": lambda *a: Uniform("model", *a),
    "uniform-cycle-4096": lambda *a: Uniform("cycle", *a),
    "bfs-model-4096": Bfs,
    "serve-cycle-64": Serve,
}
