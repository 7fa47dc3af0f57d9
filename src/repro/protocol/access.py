"""Implementation of the k+1-stage access protocol (Section 3.3).

Stage numbering follows the paper: stages run from ``k + 1`` down to 1.

* Stage ``k + 1`` — on the whole mesh, send each packet into the
  level-k submesh holding its destination module, spreading the packets
  of each submesh evenly over that submesh's processors (sort-and-rank).
* Stage ``i`` (``k >= i >= 2``) — in parallel within every level-i
  submesh, move each packet into its destination's level-(i-1) submesh,
  again spread evenly.
* Stage 1 — deliver each packet to the processor storing its copy and
  perform the memory access.
* Return — packets retrace their recorded path so every requester gets
  its value; the reverse journey's cost mirrors the forward one
  stage-by-stage (measured explicitly in cycle mode).

Stage targets are planned from the page keys CULLING computed for every
copy: each level's selected keys index the placement's per-level page
tables.  The keys are released before the result is returned, so a
logged result keeps no per-copy arrays.

A stage spreads the ``c`` packets of a page over the page's span of
``L`` nodes by rank, so every node of the span gets ``c // L`` of them
and its first ``c % L`` nodes one more.  Its loads therefore follow
from how many selected copies each page holds.  A model-engine step of
at least ``_HISTOGRAM_MIN_PACKETS`` packets, whose closed form reads
only loads, spans and whether a leg moves any packet, takes each
stage's loads from that page histogram (:func:`_spread_loads`) and
sorts or places no packet.  A leg whose two ends' load vectors differ
moves a packet; only a leg whose two load vectors are equal places the
packets to decide.  Cycle-engine steps, which route the positions, and
smaller model steps place every packet (:func:`_spread_nodes`).  Both
derivations give the same stage metrics.

Step plans: without faults, CULLING's selection, every stage's loads
and every leg's route cost are a pure function of the request array
(Theorem 1's simulation is deterministic).  Each protocol keeps the
plans of recent request arrays, keyed by their exact bytes, and a step
whose array was planned before goes straight to the memory access (see
:class:`AccessProtocol`).

Windows: every :meth:`AccessProtocol.run_steps` call is one window of
three phases, and ``read``, ``write`` and ``mixed`` are one-step
windows.  First each step, in order, applies its due fault events and
is planned: CULLING and stage planning, or a cached plan, or the plan
of an earlier step of the window with the same request array.  The
placement fixes every stage target in advance, so each leg of a step
is a routing problem independent of every other leg: the cycle engine
routes the pending legs of all planned steps in one ``route_many``
call, made whenever they reach ``_ROUTE_BUDGET`` packets and once more
at the end of the window.  Only then does each routed step touch the
copy store and get its result, in step order.  CULLING and fault events
touch no memory, and a batch routes the same alone or with others, so
values, timestamps, stage metrics and refusals equal one call per
step; only the number of stepping loops falls.  A refusal while
planning refuses its step.  One from routing (the livelock guard)
refuses every step of that call, and none of them touches memory.
Under ``on_error="raise"``, and for usage errors always, the error
propagates once the steps planned before it are routed and applied.

Two execution engines:

* ``engine="cycle"`` — every stage's packet movement is simulated by the
  synchronous store-and-forward engine; sorting/ranking data movement is
  order-equivalent to shearsort, charged at its measured step count.
* ``engine="model"`` — stage movement is charged with the Theorem 2
  closed form on the *actual* measured per-node loads (delta_i) and
  submesh sizes, enabling large-n sweeps.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from repro.culling import CullingResult, cull
from repro.hmos.faults import FaultInjector
from repro.hmos.scheme import HMOS
from repro.mesh.costmodel import CostModel
from repro.mesh.engine import SynchronousEngine
from repro.mesh.packets import PacketBatch
from repro.mesh.sorting import shearsort_steps
from repro.obs import tracer as _obs
from repro.util.grouping import rank_within_groups
from repro.util.validate import check_int_array

__all__ = [
    "AccessProtocol",
    "AccessResult",
    "StageMetrics",
    "StepError",
    "StepRequest",
]

#: The step-plan cache keeps at most this many times ``n`` requests, in
#: at most ``n`` plans.  A cached request costs about 17 bytes (its int64
#: key bytes plus a row of the boolean selection), so 16 loads are about
#: 1.1 MB at n = 4096; a plan adds about 1.5 KB of objects.
_PLAN_CACHE_LOADS = 16

#: A model-engine step of at least this many packets takes its stage
#: loads from page histograms (:func:`_spread_loads`); smaller steps,
#: and every cycle-engine step, place each packet (:func:`_spread_nodes`).
#: Picked from the crossover table in EXPERIMENTS.md.
_HISTOGRAM_MIN_PACKETS = 2048

#: A window hands its pending legs to one ``route_many`` call as soon as
#: they hold this many packets, and once more at its end.  Picked from
#: the crossover table in EXPERIMENTS.md.
_ROUTE_BUDGET = 8192


@dataclass(frozen=True)
class StageMetrics:
    """Measured accounting of one routing stage.

    Mirrors the quantities of Eqs. (5)-(7): ``t_nodes`` is the operating
    submesh size, ``delta_in``/``delta_out`` the max per-node packet
    loads at stage start/end.
    """

    stage: int
    t_nodes: int
    delta_in: int
    delta_out: int
    sort_steps: float
    route_steps: float

    @property
    def steps(self) -> float:
        return self.sort_steps + self.route_steps


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one simulated PRAM memory step.

    Attributes
    ----------
    op : str
        ``"read"`` or ``"write"``.
    variables : np.ndarray
        The (distinct) requested variables.
    values : np.ndarray or None
        For reads: the retrieved values, aligned with ``variables``.
    culling : CullingResult
        Copy-selection diagnostics (incl. its Eq. 2 time charge).
    stages : tuple[StageMetrics, ...]
        Forward-journey stages, outermost first.
    return_steps : float
        Cost of the destination->origin journey.
    reassignments : tuple[tuple[int, int], ...]
        Degraded-mode bookkeeping: ``(request_position, proxy_rank)``
        for every request whose origin processor was dead and whose
        packets were carried by a surviving proxy instead (empty on
        fault-free steps).  Deterministic in (live set, seed, step) —
        see :func:`repro.hmos.faults.reassign_requesters`.
    origin : object
        Opaque token copied verbatim from the :class:`StepRequest` that
        produced this result (``None`` for direct read/write/mixed
        calls).  Batching front-ends that coalesce several clients'
        requests into one step stash the composition here so results
        can be routed back to their originating clients.
    """

    op: str
    variables: np.ndarray
    values: np.ndarray | None
    culling: CullingResult
    stages: tuple[StageMetrics, ...]
    return_steps: float
    reassignments: tuple[tuple[int, int], ...] = ()
    origin: object = None

    @property
    def protocol_steps(self) -> float:
        """Forward + return routing cost (T_protocol)."""
        return sum(s.steps for s in self.stages) + self.return_steps

    @property
    def total_steps(self) -> float:
        """Full simulation cost of the PRAM step (T_sim = culling + protocol)."""
        return self.culling.charged_steps + self.protocol_steps


@dataclass(frozen=True)
class StepRequest:
    """One memory step of a batched request stream (:meth:`run_steps`).

    Mirrors the shape of :class:`repro.check.case.StepSpec` (which is
    accepted directly): ``op`` in {"read", "write", "mixed"};
    ``values``/``is_write`` align with ``variables`` where applicable.

    ``origin`` is an opaque client-identity token: :meth:`run_steps`
    copies it onto the step's :class:`AccessResult` or
    :class:`StepError` unchanged, so a front-end that coalesces
    requests from many clients into one stream can recover which
    client(s) each outcome belongs to.
    """

    op: str
    variables: object
    values: object = None
    is_write: object = None
    origin: object = None


@dataclass(frozen=True)
class StepError:
    """Recorded refusal of one step (``run_steps(on_error="record")``).

    Only consistency-preserving refusals (``RuntimeError``, e.g.
    unrecoverable variables under faults) are recorded; genuine usage
    errors always raise.  ``origin`` carries the refused step's opaque
    client-identity token (see :class:`StepRequest`).
    """

    index: int
    op: str
    n_requests: int
    message: str
    origin: object = None


def _max_per_node(nodes: np.ndarray, n: int) -> int:
    if nodes.size == 0:
        return 0
    return int(np.bincount(nodes, minlength=n).max())


def _moves(src: np.ndarray, dst: np.ndarray) -> bool:
    """Whether a routing leg moves any packet."""
    return bool(src.size) and not np.array_equal(src, dst)


def _spread_nodes(placement, level: int, keys: np.ndarray):
    """Node of every packet once each level-``level`` page spreads its
    packets evenly over the page's node span (sort-and-rank: the
    ``r``-th packet of a page, in packet order, goes to the span's node
    ``r mod L``), and each packet's span length ``L``."""
    first, last = placement.page_node_spans(level, None, None, keys=keys)
    span_len = last - first + 1
    rank = rank_within_groups(keys)
    return placement.mesh.node_of_rank(first + rank % span_len), span_len


def _spread_loads(placement, level: int, keys: np.ndarray):
    """Per-node loads of :func:`_spread_nodes`, indexed by curve rank,
    from the pages' packet counts alone; and the widest span holding a
    packet (1 when none does).

    A page of ``c`` packets over a span of ``L`` nodes puts ``c // L``
    packets on every node of the span and one more on its first
    ``c % L`` nodes, which is what ranks ``0 .. c - 1`` modulo ``L``
    give.  Pages narrower than a node share their boundary nodes, so
    the spans are summed as a difference array over curve ranks.
    """
    _, _, first, last = placement.page_table(level)
    counts = np.bincount(keys)
    pages = (counts > 0).nonzero()[0]  # faster on a bool mask than on int64
    first, last = first[pages], last[pages]
    span_len = last - first + 1
    base, extra = np.divmod(counts[pages], span_len)
    n = placement.mesh.n
    steps = np.zeros(n + 1, dtype=np.int64)
    np.add.at(steps, first, base + 1)
    np.add.at(steps, first + extra, -1)
    np.add.at(steps, last + 1, -base)
    return np.cumsum(steps[:n]), int(span_len.max(initial=1))


def _refusal(index: int, op: str, variables, exc: Exception, origin, tracer) -> StepError:
    """A refused step's record (``run_steps(on_error="record")``)."""
    tracer.count("protocol.step_errors")
    return StepError(
        index=index,
        op=op,
        n_requests=len(variables),
        message=str(exc),
        origin=origin,
    )


class _Plan:
    """One request array's CULLING result, stage metrics and return cost.

    A fresh cycle-engine plan has no route costs yet: it holds the
    stages' ``(stage, t_nodes, delta_in, delta_out, sort_charge)`` and
    its moving legs as ``(stage index, batch)`` pairs, index ``-1`` for
    a return leg, until :meth:`routed` gets their step counts.
    """

    __slots__ = ("culling", "stages", "return_steps", "reassignments", "stage_info", "legs")

    def __init__(self, culling, stages=None, return_steps=0.0, reassignments=()):
        self.culling = culling
        self.stages = stages
        self.return_steps = return_steps
        self.reassignments = reassignments
        self.stage_info = None
        self.legs = ()

    def finish(self, stage_info, forward, return_steps: float) -> None:
        """Set the stage metrics from the forward legs' route costs."""
        self.stages = tuple(
            StageMetrics(*info, route_steps)
            for info, route_steps in zip(stage_info, forward)
        )
        self.return_steps = return_steps
        self.stage_info = None
        self.legs = ()

    def routed(self, results) -> None:
        """Finish the plan from its legs' route results, in leg order."""
        forward = [0.0] * len(self.stage_info)
        return_steps = 0.0
        for (i, _), res in zip(self.legs, results):
            if i < 0:
                return_steps += float(res.steps)
            else:
                forward[i] = float(res.steps)
        self.finish(self.stage_info, forward, return_steps)


class _Pending(NamedTuple):
    """A planned step waiting for its route costs and memory access."""

    index: int
    op: str
    variables: np.ndarray
    values: np.ndarray | None
    is_write: np.ndarray | None
    timestamp: int
    origin: object
    key: bytes | None
    plan: _Plan


class _Window:
    """The steps of a window planned but not yet routed and applied: the
    pending steps, the fresh plans by request bytes, the fresh plans
    with legs to route, and those legs' packet count."""

    __slots__ = ("steps", "plans", "routing", "packets")

    def __init__(self):
        self.steps: list[_Pending] = []
        self.plans: dict[bytes, _Plan] = {}
        self.routing: list[_Plan] = []
        self.packets = 0


def _released(culling_res: CullingResult, key: bytes | None) -> CullingResult:
    """CULLING's result without its page keys, which only planning needs.

    A result kept under ``key`` owns no caller array: its ``variables``
    become a read-only view of ``key`` and its selection is made
    read-only, so the steps sharing it cannot change it.
    """
    if key is None:
        return replace(culling_res, page_keys=None)
    culling_res.selected.flags.writeable = False
    return replace(
        culling_res, variables=np.frombuffer(key, dtype=np.int64), page_keys=None
    )


class AccessProtocol:
    """Executes read/write steps against one :class:`HMOS` instance.

    Parameters
    ----------
    scheme : HMOS
    engine : {"cycle", "model"}
        Cycle-accurate simulation vs closed-form charging (see module
        docstring).
    cost_model : CostModel, optional
        Constants used for charged phases.
    faults : FaultInjector, optional
        When given, copy selection is restricted to surviving copies
        (extension beyond the paper; consistency is preserved as long as
        every requested variable keeps a target set), requests of dead
        processors are reassigned to surviving ranks before CULLING,
        and :meth:`run_steps` consults the injector's fault schedule at
        every step boundary (mid-run deaths).  Availability and
        liveness are recomputed from the injector's *current* state on
        every step, never precomputed for a whole stream.

    While ``faults`` is ``None`` (checked on every step), the protocol
    caches the plan of every 1-D request array it served: CULLING's
    result, with its selection read-only and its ``variables`` a
    read-only view of the key bytes, plus the stage metrics and the
    return cost.  A step whose array has the same bytes (order
    included: requester j sits at node j) reuses that plan and skips
    CULLING, stage planning and routing, so its values, timestamps and
    step counts equal a fresh protocol's.  So does a step whose array
    an earlier step of the same window planned.  Only a plan whose step
    succeeded is stored, so every cached array has passed CULLING's
    checks.  The cache starts empty, belongs to this instance (never
    to the scheme, which cached builds share), and evicts the least
    recently used plans beyond ``_PLAN_CACHE_LOADS * n`` requests or
    ``n`` plans.  The tracer counts hits as ``protocol.plan_hits``.
    """

    def __init__(
        self,
        scheme: HMOS,
        *,
        engine: str = "cycle",
        cost_model: CostModel | None = None,
        faults: FaultInjector | None = None,
    ):
        if engine not in ("cycle", "model"):
            raise ValueError(f"engine must be 'cycle' or 'model', got {engine!r}")
        self.scheme = scheme
        self.engine = engine
        self.cost_model = cost_model or CostModel()
        self.faults = faults
        self._sync = (
            SynchronousEngine(scheme.mesh) if engine == "cycle" else None
        )
        self._plans: OrderedDict[bytes, tuple] = OrderedDict()
        self._planned_requests = 0
        # Node at every curve rank, built by the first histogram step.
        self._curve_nodes: np.ndarray | None = None

    # -- public API -----------------------------------------------------------

    def read(self, variables) -> AccessResult:
        """Satisfy a set of distinct read requests; returns values."""
        return self._step(StepRequest("read", variables), 0)

    def write(self, variables, values, *, timestamp: int) -> AccessResult:
        """Satisfy a set of distinct write requests at the given time."""
        return self._step(StepRequest("write", variables, values), timestamp)

    def mixed(
        self, variables, is_write, values, *, timestamp: int
    ) -> AccessResult:
        """One PRAM step where each processor reads *or* writes.

        This is the step shape the paper actually simulates ("each of
        the n processors wants to read or write a distinct variable"):
        one culling pass and one routed journey serve both operation
        kinds; at the copies, writes stamp ``timestamp`` and reads
        return the newest value (write-vars read back their own new
        value, matching the read-compute-write PRAM convention).

        Parameters
        ----------
        is_write : bool array aligned with ``variables`` (any other
            dtype is refused with ``ValueError``)
        values : int64 integers aligned with ``variables`` (checked
            everywhere, written only at write positions)

        Returns
        -------
        AccessResult with ``op="mixed"``; ``values[i]`` is the
        *pre-step* value of ``variables[i]`` (the read phase precedes
        the write phase, so concurrent readers of a written variable see
        the old value).
        """
        return self._step(StepRequest("mixed", variables, values, is_write), timestamp)

    def run_steps(
        self,
        steps,
        *,
        start_timestamp: int = 1,
        on_error: str = "raise",
    ) -> list:
        """Execute a whole request stream through one protocol instance.

        This is the batched step executor: the per-scheme reusable state
        (materialized incidence tables, the placement's page tables, the
        memoized initial target-set row) is amortized over every step,
        which is what makes long PRAM workloads and sweep campaigns
        cheap.  Timestamps increment per step starting at
        ``start_timestamp`` (reads ignore theirs), so a stream replayed
        here is bit-identical to the same steps issued one by one.

        The call is one window of three phases.  Each step, in order,
        is validated and planned (CULLING, stage planning, its legs).
        The pending legs of the planned steps go through one
        ``route_many`` call whenever they reach ``_ROUTE_BUDGET``
        packets, and once more at the end of the window.  Only then
        does each routed step, in step order, touch the copy store and
        get its result.  CULLING and fault events read and write no
        memory, and a batch routes the same alone or with others, so
        the results equal one call per step.  The window reads every
        step's arrays until it returns.

        Parameters
        ----------
        steps : iterable
            :class:`StepRequest`-shaped objects — anything with ``op``,
            ``variables`` and (where applicable) ``values`` /
            ``is_write`` attributes, e.g. ``repro.check.case.StepSpec``.
        start_timestamp : int
            Timestamp stamped on the first step's writes.
        on_error : {"raise", "record"}
            With ``"record"``, a consistency-preserving refusal
            (``RuntimeError``, e.g. unrecoverable variables or an
            all-processors-dead state under faults) yields a
            :class:`StepError` entry instead of propagating; the stream
            continues with the next step.  A refusal while planning
            refuses its step; one from routing (the engine's livelock
            guard) refuses every step of that ``route_many`` call, and
            none of them touches memory.  With ``"raise"``, and for
            usage errors (``ValueError``) always, the error propagates
            once the steps planned before it have been routed and
            applied.

        Fault schedules: when the protocol carries a
        :class:`FaultInjector` with a schedule, every step boundary
        first applies the deaths due at the injector's step clock
        ("node p dies at step t") and the clock advances whether the
        step completed or was refused — so steps before the earliest
        due event are bit-identical to a fault-free run.  This is the
        clock's only owner: :class:`repro.pram.MeshBackend` issues
        every step, single or batched, as a one-step call here, and
        :meth:`read`, :meth:`write` and :meth:`mixed` run one-step
        windows that leave the clock alone.

        Returns
        -------
        list of AccessResult or StepError, aligned with ``steps``.
        """
        return self._window(steps, start_timestamp, on_error, clock=True)

    # -- internals --------------------------------------------------------------

    def _step(self, request: StepRequest, timestamp: int) -> AccessResult:
        """One step as a one-step window, outside the fault schedule."""
        return self._window([request], timestamp, "raise", clock=False)[0]

    def _window(self, steps, start_timestamp, on_error, *, clock: bool) -> list:
        """Plan, route and apply ``steps`` (see :meth:`run_steps`);
        ``clock`` makes the window own the fault schedule's step clock."""
        if on_error not in ("raise", "record"):
            raise ValueError(
                f"on_error must be 'raise' or 'record', got {on_error!r}"
            )
        tracer = _obs.current()
        faults = self.faults if clock else None
        results: list = []
        window = _Window()
        try:
            for index, step in enumerate(steps):
                results.append(None)
                op = step.op
                # StepSpec and other duck-typed steps carry no origin token.
                origin = getattr(step, "origin", None)
                if faults is not None:
                    faults.apply_due_events()
                try:
                    with tracer.span("protocol.step", index=index, op=op):
                        self._queue(
                            window, index, step, origin, start_timestamp + index, tracer
                        )
                except RuntimeError as exc:
                    if on_error == "raise":
                        raise
                    results[index] = _refusal(
                        index, op, step.variables, exc, origin, tracer
                    )
                finally:
                    if faults is not None:
                        faults.advance_clock()
                if window.packets >= _ROUTE_BUDGET:
                    full, window = window, _Window()
                    self._settle(full, results, on_error, tracer)
        finally:
            self._settle(window, results, on_error, tracer)
        return results

    def _queue(self, window, index, step, origin, timestamp, tracer) -> None:
        """Validate and plan one step and queue it in ``window``.

        A request array the window already planned, or the plan cache
        holds, reuses that plan (a ``protocol.plan_hits`` hit); any other
        is planned here, and a fresh cycle-engine plan's moving legs
        join the window's pending packets.
        """
        op = step.op
        if op not in ("read", "write", "mixed"):
            raise ValueError(f"step {index}: unknown op {op!r}")
        variables = check_int_array("variables", step.variables)
        values = is_write = None
        if op != "read":
            values = check_int_array("values", step.values)
            if values.shape != variables.shape:
                raise ValueError("values must align with variables")
            if timestamp < 0:
                raise ValueError(f"timestamp must be >= 0, got {timestamp}")
        if op == "mixed":
            is_write = np.asarray(step.is_write)
            if is_write.size and is_write.dtype != bool:
                raise ValueError(f"is_write must be booleans, got {is_write.dtype} values")
            if is_write.shape != variables.shape:
                raise ValueError("is_write must align with variables")
            is_write = is_write.astype(bool, copy=False)

        # Fault-free 1-D request arrays are keyed by their bytes; any
        # other shape is planned, so CULLING refuses it every time.
        key = None
        plan = None
        if self.faults is None and variables.ndim == 1:
            key = variables.tobytes()
            plan = window.plans.get(key)
            if plan is None and key in self._plans:
                plan = _Plan(*self._plans[key])
            if plan is not None:
                tracer.count("protocol.plan_hits")
        if plan is None:
            plan = self._plan(variables, key, tracer)
            if key is not None:
                window.plans[key] = plan
            if plan.legs:
                window.routing.append(plan)
                window.packets += sum(len(batch) for _, batch in plan.legs)
        window.steps.append(
            _Pending(index, op, variables, values, is_write, timestamp, origin, key, plan)
        )

    def _settle(self, window: _Window, results: list, on_error: str, tracer) -> None:
        """Route the window's pending legs in one ``route_many`` call, then
        give each pending step its memory access and result, in step
        order.  Under ``"record"`` a routing refusal refuses every
        pending step instead, and none touches memory."""
        if window.routing:
            plans = window.routing
            batches = [batch for plan in plans for _, batch in plan.legs]
            try:
                routed = self._sync.route_many(batches)
            except RuntimeError as exc:
                if on_error == "raise":
                    raise
                for step in window.steps:
                    results[step.index] = _refusal(
                        step.index, step.op, step.variables, exc, step.origin, tracer
                    )
                return
            done = 0
            for plan in plans:
                legs = len(plan.legs)
                plan.routed(routed[done : done + legs])
                done += legs
        for step in window.steps:
            results[step.index] = self._access(step, tracer)

    def _access(self, step: _Pending, tracer) -> AccessResult:
        """A routed step's memory access and result (see :meth:`_apply`),
        in a ``protocol.access`` span with its lane spans when traced."""
        if not tracer.enabled:
            return self._apply(step, tracer)
        plan = step.plan
        with tracer.span("protocol.access", op=step.op, engine=self.engine) as span:
            self._emit_lane_spans(
                tracer, step.op, plan.culling, plan.stages, plan.return_steps
            )
            result = self._apply(step, tracer)
            span.set(
                requests=int(result.variables.size),
                total_steps=float(result.total_steps),
                culling_steps=float(plan.culling.charged_steps),
                return_steps=float(plan.return_steps),
            )
        return result

    def _apply(self, step: _Pending, tracer) -> AccessResult:
        """A routed step's memory access and result; a keyed step's plan
        enters (or refreshes) the plan cache."""
        plan = step.plan
        culling_res = plan.culling
        op = step.op
        # Memory access at the copies.  Read phase precedes write phase
        # (the PRAM read-compute-write convention).
        memory = self.scheme.memory
        variables, sel = step.variables, culling_res.selected
        out_values = None
        if op == "write":
            memory.write(variables, sel, step.values, step.timestamp)
        elif op == "read":
            out_values = memory.read_latest_masked(variables, sel)
        else:  # mixed: returned values are PRE-write (read phase first),
            # so a concurrent reader of a written variable sees the old
            # value — the PRAM read-compute-write convention.
            out_values = memory.read_latest_masked(variables, sel)
            is_write = step.is_write
            memory.write(
                variables[is_write], sel[is_write], step.values[is_write], step.timestamp
            )

        # A step is "degraded" when it completed but not at full
        # strength: requests ran through proxies, or surviving copies
        # forced weaker-than-level-0 starting target sets.
        start_levels = culling_res.start_levels
        if plan.reassignments or (
            start_levels is not None and (start_levels > 0).any()
        ):
            tracer.count("protocol.degraded_steps")
        if step.key is not None:
            self._keep(step.key, plan)
        return AccessResult(
            op=op,
            variables=culling_res.variables,
            values=out_values,
            culling=culling_res,
            stages=plan.stages,
            return_steps=plan.return_steps,
            reassignments=plan.reassignments,
            origin=step.origin,
        )

    def _keep(self, key: bytes, plan: _Plan) -> None:
        """Cache a succeeded fault-free step's plan under its request
        bytes, or mark a cached one most recently used."""
        plans = self._plans
        if key in plans:
            plans.move_to_end(key)
            return
        plans[key] = (plan.culling, plan.stages, plan.return_steps)
        self._planned_requests += plan.culling.variables.size
        # A plan's objects cost about 1.5 KB whatever its size, so the
        # plan count is held to n as well.
        n = self.scheme.params.n
        while self._planned_requests > _PLAN_CACHE_LOADS * n or len(plans) > n:
            _, (evicted, _, _) = plans.popitem(last=False)
            self._planned_requests -= evicted.variables.size

    def _plan(self, variables: np.ndarray, key: bytes | None, tracer) -> _Plan:
        """CULLING and stage planning of one request array, with the
        processor reassignments; a model-engine plan also gets its route
        costs, a cycle-engine plan the legs to route.  ``key`` names the
        plan's cache key, if it has one (see :func:`_released`)."""
        scheme = self.scheme
        params = scheme.params

        # Degraded mode: requests of dead processors are handed to
        # surviving ranks *before* CULLING (the proxy carries the
        # packets; copy selection and memory semantics are untouched,
        # so delivered values match the fault-free run exactly).  The
        # map is recomputed from the injector's current state every
        # step, so mid-run deaths take effect at the next boundary.
        requesters = None
        reassignments: tuple[tuple[int, int], ...] = ()
        if self.faults is not None and self.faults.failed_processors.size:
            tracer.count("protocol.dead_processor_steps")
            requesters = self.faults.requester_map(variables.size)
            moved = np.nonzero(
                requesters != np.arange(variables.size, dtype=np.int64)
            )[0]
            reassignments = tuple(
                (int(i), int(requesters[i])) for i in moved
            )
            if moved.size:
                tracer.count("protocol.reassigned_requests", int(moved.size))

        allowed = full_chains = None
        if self.faults is not None and self.faults.failed_nodes.size:
            # One full-grid chain derivation shared by the availability
            # mask and CULLING (which would otherwise each derive it).
            full_chains = scheme.placement.chains(variables)
            allowed = self.faults.allowed_mask(variables, chains=full_chains)
        culling_res = cull(
            scheme,
            variables,
            allowed=allowed,
            chains=full_chains,
            cost_model=self.cost_model,
        )
        placement = scheme.placement
        k = params.k
        n = params.n

        # One packet per selected copy, in row-major order.  CULLING
        # already keyed every copy's pages: gather the selected copies'
        # keys, level by level, rather than recomputing chains and keys
        # per step.
        flat = np.flatnonzero(culling_res.selected)
        rows = flat // params.redundancy
        pkt_vars = variables[rows]
        page_keys = [keys.reshape(-1)[flat] for keys in culling_res.page_keys]
        # The keys stand in for the copies' paths from here on.
        copy_nodes = placement.copy_nodes(pkt_vars, None, keys=page_keys[0])

        # Origins: requester j sits at mesh node j (any fixed bijection
        # between PRAM processors and mesh nodes works); under processor
        # faults the reassignment map substitutes the surviving proxy.
        origins = requesters[rows] if requesters is not None else rows

        # The k + 2 leg ends: the origins, then where each stage leaves
        # the packets.  A model step large enough charges its stages
        # from the ends' loads alone; every other step places each
        # packet (the cycle engine routes the positions).
        if self.engine == "model" and flat.size >= _HISTOGRAM_MIN_PACKETS:
            loads, widths = self._page_loads(origins, page_keys, copy_nodes)
            deltas = [int(load.max()) for load in loads]
            # Different loads at a leg's two ends mean a packet moved;
            # where they are equal, only the positions can tell.
            moves = [not np.array_equal(a, b) for a, b in zip(loads, loads[1:])]
            positions = None
            if not all(moves):
                positions, _ = self._place_packets(origins, page_keys, copy_nodes)
        else:
            positions, widths = self._place_packets(origins, page_keys, copy_nodes)
            deltas = [_max_per_node(nodes, n) for nodes in positions]
            moves = [False] * (k + 1)
        if positions is not None:
            moves = [
                moved or _moves(src, dst)
                for moved, src, dst in zip(moves, positions, positions[1:])
            ]

        # A stage operates within the pages one level up: the widest of
        # them sets t_nodes (the whole mesh for stage k + 1).  Each
        # stage starts from the load the previous one ended with.
        stage_info: list[tuple[int, int, int, int, float]] = []
        t_nodes = n
        for i, stage in enumerate(range(k + 1, 0, -1)):
            # Stage 1 is pure (delta_1, delta_0)-routing: nothing to sort.
            sort_charge = self._sort_charge(deltas[i], t_nodes) if stage > 1 else 0.0
            stage_info.append((stage, t_nodes, deltas[i], deltas[i + 1], sort_charge))
            if stage > 1:
                t_nodes = widths[i]

        # Every stage's targets are fixed by the placement (they never
        # depend on where earlier routing put the packets), so all
        # forward legs — and the return legs, which retrace them — are
        # data-independent routing problems.  The model engine charges
        # each moving leg in closed form, the mirror cost for the
        # return; the cycle engine measures the actual batches, and its
        # window routes them with every other pending step's legs in
        # ONE route_many stepping loop.  A leg that moves no packet
        # costs nothing either way.
        plan = _Plan(_released(culling_res, key), reassignments=reassignments)
        nstages = len(stage_info)
        if self.engine == "model":
            forward = [
                self.cost_model.route_steps(delta_in, delta_out, t_nodes)
                if moved
                else 0.0
                for moved, (_, t_nodes, delta_in, delta_out, _) in zip(
                    moves, stage_info
                )
            ]
            plan.finish(stage_info, forward, float(sum(forward)))
            return plan
        legs = [
            (i, PacketBatch(positions[i], positions[i + 1]))
            for i in range(nstages)
            if moves[i]
        ]
        legs += [
            (-1, PacketBatch(positions[leg], positions[leg - 1]))
            for leg in range(nstages, 0, -1)
            if moves[leg - 1]
        ]
        if legs:
            plan.stage_info, plan.legs = stage_info, legs
        else:
            plan.finish(stage_info, [0.0] * nstages, 0.0)
        return plan

    def _place_packets(self, origins, page_keys, copy_nodes):
        """Every packet's node at each leg end, and the widest page span
        of each stage ``k + 1 .. 2``."""
        placement = self.scheme.placement
        positions = [origins]
        widths = []
        for level in range(self.scheme.params.k, 0, -1):
            nodes, span_len = _spread_nodes(placement, level, page_keys[level - 1])
            positions.append(nodes)
            widths.append(int(span_len.max()) if span_len.size else 1)
        positions.append(copy_nodes)
        return positions, widths

    def _page_loads(self, origins, page_keys, copy_nodes):
        """Every leg end's per-node loads, indexed by curve rank, and the
        widest page span of each stage ``k + 1 .. 2``, from histograms
        of the packets' page keys."""
        placement = self.scheme.placement
        n = self.scheme.params.n
        if self._curve_nodes is None:
            self._curve_nodes = placement.mesh.node_of_rank(np.arange(n))
        curve = self._curve_nodes
        loads = [np.bincount(origins, minlength=n)[curve]]
        widths = []
        for level in range(self.scheme.params.k, 0, -1):
            load, widest = _spread_loads(placement, level, page_keys[level - 1])
            loads.append(load)
            widths.append(widest)
        loads.append(np.bincount(copy_nodes, minlength=n)[curve])
        return loads, widths

    def _emit_lane_spans(self, tracer, op, culling_res, stages, return_steps):
        """Mesh-step lane trace of one access.

        Every charged phase becomes one span on lane ``"mesh"`` whose
        ``dur`` *is* its mesh-step cost, in protocol order: CULLING
        (with zero-width ``culling.iteration[i]`` markers carrying the
        per-level diagnostics), each stage's sort and route, and the
        return journey — plus one enclosing rollup span so Perfetto
        nests the whole access.  :func:`repro.obs.summary.stage_breakdown`
        recovers :meth:`SimulationReport.breakdown` exactly from these.
        """
        base = tracer.lane_cursor("mesh")
        tracer.lane_span(
            "mesh",
            "protocol.culling",
            culling_res.charged_steps,
            selected=int(culling_res.total_selected),
        )
        for it in culling_res.iterations:
            tracer.lane_span(
                "mesh",
                f"culling.iteration[{it.level}]",
                0.0,
                at=base,
                cap=int(it.cap),
                marked=int(it.marked),
                max_page_load=int(it.max_page_load),
            )
        for s in stages:
            for part, steps in (("sort", s.sort_steps), ("route", s.route_steps)):
                tracer.lane_span(
                    "mesh",
                    f"stage[{s.stage}].{part}",
                    steps,
                    t_nodes=int(s.t_nodes),
                    delta_in=int(s.delta_in),
                    delta_out=int(s.delta_out),
                )
        tracer.lane_span("mesh", "protocol.return", return_steps)
        tracer.lane_span(
            "mesh",
            "protocol.access",
            tracer.lane_cursor("mesh") - base,
            at=base,
            rollup=True,
            op=op,
        )

    def _sort_charge(self, delta: int, t_nodes: int) -> float:
        """Charge for sort-and-rank within submeshes of ``t_nodes`` nodes."""
        if delta == 0:
            return 0.0  # no packets anywhere: nothing to sort
        if self.engine == "model":
            return self.cost_model.sort_steps(delta, t_nodes)
        side = max(2, 1 << max(0, (max(t_nodes, 1) - 1).bit_length() // 2))
        return float(max(delta, 1) * shearsort_steps(side))
