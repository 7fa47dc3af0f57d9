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
    step counts equal a fresh protocol's.  Only a plan whose step
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
        return self._execute(variables, "read", None, timestamp=0)

    def write(self, variables, values, *, timestamp: int) -> AccessResult:
        """Satisfy a set of distinct write requests at the given time."""
        return self._execute(variables, "write", values, timestamp=timestamp)

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
        is_write : bool array aligned with ``variables``
        values : int array aligned with ``variables`` (ignored at read
            positions)

        Returns
        -------
        AccessResult with ``op="mixed"``; ``values[i]`` is the
        *pre-step* value of ``variables[i]`` (the read phase precedes
        the write phase, so concurrent readers of a written variable see
        the old value).
        """
        return self._execute(
            variables, "mixed", values, timestamp=timestamp, is_write=is_write
        )

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
            continues with the next step.

        Fault schedules: when the protocol carries a
        :class:`FaultInjector` with a schedule, every step boundary
        first applies the deaths due at the injector's step clock
        ("node p dies at step t") and the clock advances whether the
        step completed or was refused — so steps before the earliest
        due event are bit-identical to a fault-free run.  This is the
        clock's only owner: :class:`repro.pram.MeshBackend` issues
        every step, single or batched, as a one-step call here.

        Returns
        -------
        list of AccessResult or StepError, aligned with ``steps``.
        """
        if on_error not in ("raise", "record"):
            raise ValueError(
                f"on_error must be 'raise' or 'record', got {on_error!r}"
            )
        tracer = _obs.current()
        faults = self.faults
        results: list = []
        for index, step in enumerate(steps):
            op = step.op
            variables = step.variables
            # StepSpec and other duck-typed steps carry no origin token.
            origin = getattr(step, "origin", None)
            timestamp = start_timestamp + index
            if faults is not None:
                faults.apply_due_events()
            try:
                with tracer.span("protocol.step", index=index, op=op):
                    if op == "read":
                        result = self.read(variables)
                    elif op == "write":
                        result = self.write(
                            variables, step.values, timestamp=timestamp
                        )
                    elif op == "mixed":
                        result = self.mixed(
                            variables,
                            step.is_write,
                            step.values,
                            timestamp=timestamp,
                        )
                    else:
                        raise ValueError(f"step {index}: unknown op {op!r}")
                if origin is not None:
                    result = replace(result, origin=origin)
                results.append(result)
            except RuntimeError as exc:
                if on_error == "raise":
                    raise
                tracer.count("protocol.step_errors")
                results.append(
                    StepError(
                        index=index,
                        op=op,
                        n_requests=len(variables),
                        message=str(exc),
                        origin=origin,
                    )
                )
            finally:
                if faults is not None:
                    faults.advance_clock()
        return results

    # -- internals --------------------------------------------------------------

    def _execute(
        self, variables, op, values, *, timestamp: int, is_write=None
    ) -> AccessResult:
        tracer = _obs.current()
        if not tracer.enabled:
            return self._execute_impl(
                variables, op, values, timestamp=timestamp, is_write=is_write,
                tracer=tracer,
            )
        with tracer.span(
            "protocol.access", op=op, engine=self.engine
        ) as span:
            result = self._execute_impl(
                variables, op, values, timestamp=timestamp, is_write=is_write,
                tracer=tracer,
            )
            span.set(
                requests=int(result.variables.size),
                total_steps=float(result.total_steps),
                culling_steps=float(result.culling.charged_steps),
                return_steps=float(result.return_steps),
            )
            return result

    def _execute_impl(
        self, variables, op, values, *, timestamp: int, is_write=None, tracer
    ) -> AccessResult:
        scheme = self.scheme
        variables = check_int_array("variables", variables)
        if op in ("write", "mixed"):
            values = np.asarray(values, dtype=np.int64)
            if values.shape != variables.shape:
                raise ValueError("values must align with variables")
        if op == "mixed":
            is_write = np.asarray(is_write, dtype=bool)
            if is_write.shape != variables.shape:
                raise ValueError("is_write must align with variables")

        # Fault-free 1-D request arrays are keyed by their bytes; any
        # other shape is planned, so CULLING refuses it every time.
        key = None
        if self.faults is None and variables.ndim == 1:
            key = variables.tobytes()
        plan = self._plans.get(key) if key is not None else None
        reassignments: tuple[tuple[int, int], ...] = ()
        if plan is not None:
            self._plans.move_to_end(key)
            tracer.count("protocol.plan_hits")
            culling_res, stages, return_steps = plan
        else:
            culling_res, stages, return_steps, reassignments = self._plan(
                variables, tracer
            )

        if tracer.enabled:
            self._emit_lane_spans(tracer, op, culling_res, stages, return_steps)

        # Memory access at the copies.  Read phase precedes write phase
        # (the PRAM read-compute-write convention).
        sel = culling_res.selected
        out_values = None
        if op == "write":
            scheme.memory.write(variables, sel, values, timestamp)
        elif op == "read":
            out_values = scheme.memory.read_latest_masked(variables, sel)
        else:  # mixed: returned values are PRE-write (read phase first),
            # so a concurrent reader of a written variable sees the old
            # value — the PRAM read-compute-write convention.
            out_values = scheme.memory.read_latest_masked(variables, sel)
            scheme.memory.write(
                variables[is_write], sel[is_write], values[is_write], timestamp
            )

        # A step is "degraded" when it completed but not at full
        # strength: requests ran through proxies, or surviving copies
        # forced weaker-than-level-0 starting target sets.
        start_levels = culling_res.start_levels
        if reassignments or (
            start_levels is not None and (start_levels > 0).any()
        ):
            tracer.count("protocol.degraded_steps")

        # Only a step that succeeded leaves a plan behind.  The page keys
        # were only needed for planning; a logged result must not keep
        # (N, q^k) arrays per level alive.
        if plan is None:
            if key is None:
                culling_res = replace(culling_res, page_keys=None)
            else:
                culling_res = self._remember(key, culling_res, stages, return_steps)
        return AccessResult(
            op=op,
            variables=culling_res.variables,
            values=out_values,
            culling=culling_res,
            stages=stages,
            return_steps=return_steps,
            reassignments=reassignments,
        )

    def _remember(self, key: bytes, culling_res, stages, return_steps):
        """Cache a fault-free step's plan under its request bytes and
        return the CULLING result the plan keeps.

        The kept result owns no caller array: ``variables`` is a
        read-only view of ``key`` and ``selected`` is made read-only,
        so the steps sharing it cannot change it.
        """
        culling_res.selected.flags.writeable = False
        culling_res = replace(
            culling_res,
            variables=np.frombuffer(key, dtype=np.int64),
            page_keys=None,
        )
        plans = self._plans
        plans[key] = (culling_res, stages, return_steps)
        self._planned_requests += culling_res.variables.size
        # A plan's objects cost about 1.5 KB whatever its size, so the
        # plan count is held to n as well.
        n = self.scheme.params.n
        while self._planned_requests > _PLAN_CACHE_LOADS * n or len(plans) > n:
            _, (evicted, _, _) = plans.popitem(last=False)
            self._planned_requests -= evicted.variables.size
        return culling_res

    def _plan(self, variables: np.ndarray, tracer):
        """CULLING, stage planning and route costs of one request array.

        Returns the CULLING result (still carrying its page keys), the
        stage metrics, the return cost and the processor reassignments.
        """
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
        # data-independent routing problems.  The cycle engine advances
        # them in ONE route_many stepping loop; the model engine charges
        # each leg in closed form.
        forward_steps, return_steps = self._route_legs(positions, moves, stage_info)
        stages = tuple(
            StageMetrics(
                stage=stage,
                t_nodes=t_nodes,
                delta_in=delta_in,
                delta_out=delta_out,
                sort_steps=sort_charge,
                route_steps=forward_steps[i],
            )
            for i, (stage, t_nodes, delta_in, delta_out, sort_charge) in enumerate(
                stage_info
            )
        )
        return culling_res, stages, return_steps, reassignments

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

    def _route_legs(self, positions, moves, stage_info):
        """Step costs of the forward legs (aligned with ``stage_info``)
        plus the total return journey.

        ``moves[i]`` tells whether leg ``i`` moves any packet; a leg
        that moves none costs nothing either way.  A reversed routing
        schedule takes exactly as many steps as the forward one, which
        is why the paper notes the origin->destination part dominates;
        the model engine charges the mirror cost, the cycle engine
        measures the actual reversed batches of ``positions`` — all
        legs batched through one ``route_many`` call.
        """
        if self.engine == "model":
            forward = [
                self.cost_model.route_steps(delta_in, delta_out, t_nodes)
                if moved
                else 0.0
                for moved, (_, t_nodes, delta_in, delta_out, _) in zip(
                    moves, stage_info
                )
            ]
            return forward, float(sum(forward))
        nstages = len(stage_info)
        forward = [0.0] * nstages
        return_steps = 0.0
        slots: list[tuple[str, int]] = []
        batches: list[PacketBatch] = []
        for i in range(nstages):
            if moves[i]:
                slots.append(("fwd", i))
                batches.append(PacketBatch(positions[i], positions[i + 1]))
        for leg in range(nstages, 0, -1):
            if moves[leg - 1]:
                slots.append(("ret", leg))
                batches.append(PacketBatch(positions[leg], positions[leg - 1]))
        if batches:
            results = self._sync.route_many(batches)
            for (kind, i), res in zip(slots, results):
                if kind == "fwd":
                    forward[i] = float(res.steps)
                else:
                    return_steps += float(res.steps)
        return forward, return_steps
