"""Node-failure injection for the HMOS (extension beyond the paper).

The majority machinery the paper uses for *consistency* also provides
*fault tolerance* for free: any two target sets of a copy tree intersect
(the standard quorum argument), so as long as both a write and a later
read can still assemble target sets from the surviving copies, the read
returns the newest value — no matter which nodes failed in between.

:class:`FaultInjector` tracks failed mesh nodes and translates them into
per-variable availability masks; the fault-aware culling in
:mod:`repro.culling.faults` consumes those masks.  The congestion bound
of Theorem 3 degrades gracefully (failed pages push load onto survivors)
— this module is an *extension*, documented as such in DESIGN.md.

Freshness theorem (stronger than generic quorum systems): if a variable
is *recoverable* — some target set survives — then every read is fresh.
A surviving read target set T and any past write target set W both
access the root, hence intersect; the intersection copy lies in T and
is therefore a survivor carrying the written timestamp.  Unlike quorum
systems that shrink read quorums after failures, reads here always use
full target sets, so recoverability alone implies visibility of every
past write (:func:`write_survives` verifies the implication's premise
explicitly for auditing).

Processor faults (Chlebus–Gąsieniec–Pelc model) are tracked separately
from memory-node faults: a dead *processor* can no longer issue or
carry requests, but the node's router and memory module keep working
(fail-stop compute element, live network).  A dead processor's
outstanding requests are deterministically reassigned to surviving
processors (:func:`reassign_requesters`: round-robin over live ranks,
seeded, reproducible), so a PRAM step completes in degraded mode — the
surviving proxy performs the access on the dead requester's behalf —
or is refused when *every* processor is dead.

Mid-run injection: a :class:`FaultEvent` schedule ("processor p dies at
step t", "module m dies at step t") attached to the injector is
consulted by :meth:`repro.protocol.access.AccessProtocol.run_steps` at
every step boundary, so steps before the earliest due event are
bit-identical to a fault-free run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hmos.copytree import access_mask
from repro.hmos.scheme import HMOS

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "parse_fault_event",
    "reassign_requesters",
    "write_survives",
]

#: Canonical fault-event kinds: ``"processor"`` kills a compute element
#: (its requests are reassigned), ``"module"`` kills a memory node (its
#: stored copies become unavailable).
EVENT_KINDS = ("processor", "module")

_KIND_ALIASES = {
    "processor": "processor",
    "proc": "processor",
    "p": "processor",
    "module": "module",
    "mem": "module",
    "m": "module",
    "node": "module",
}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled failure: ``nodes`` die at step boundary ``step``.

    ``step`` is the 0-based index into the request stream: the event is
    applied *before* step ``step`` executes, so all earlier steps are
    bit-identical to a fault-free run.  Events whose step lies past the
    end of the stream never fire.  Duplicate deaths are harmless
    (failing is idempotent).
    """

    step: int
    kind: str
    nodes: tuple[int, ...]

    def __post_init__(self):
        if self.step < 0:
            raise ValueError(f"event step must be >= 0, got {self.step}")
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"event kind must be one of {EVENT_KINDS}, got {self.kind!r}"
            )
        if not self.nodes:
            raise ValueError("event must name at least one node")


def parse_fault_event(text: str) -> FaultEvent:
    """Parse the CLI syntax ``STEP:KIND:ID[,ID...]``.

    ``KIND`` accepts the aliases proc/p (processor) and mem/m/node
    (module), e.g. ``2:proc:5`` or ``0:module:1,3``.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(
            f"fault event must be STEP:KIND:ID[,ID...], got {text!r}"
        )
    step_s, kind_s, nodes_s = parts
    kind = _KIND_ALIASES.get(kind_s.strip().lower())
    if kind is None:
        raise ValueError(
            f"unknown fault kind {kind_s!r} (use processor/proc or module/mem)"
        )
    nodes = tuple(int(x) for x in nodes_s.split(",") if x.strip())
    return FaultEvent(step=int(step_s), kind=kind, nodes=nodes)


def reassign_requesters(
    live_mask: np.ndarray, count: int, *, seed: int = 0, step_index: int = 0
) -> np.ndarray:
    """Origin processor for each of ``count`` requests under dead ranks.

    Requester ``j`` normally sits at mesh node ``j``; when processor
    ``j`` is dead its request is handed to a surviving processor.  The
    rule is a pure function of ``(live set, count, seed, step_index)``
    — round-robin over the live ranks in ascending order, starting at
    offset ``(seed + step_index) mod #live``, dead positions served in
    ascending order — so independently-built protocol instances agree
    on every choice and a run is reproducible in ``(case, seed)``.

    Raises ``RuntimeError`` (the consistency-preserving refusal class)
    when no processor survives.
    """
    live_mask = np.asarray(live_mask, dtype=bool)
    origins = np.arange(count, dtype=np.int64)
    dead_positions = np.nonzero(~live_mask[:count])[0]
    if dead_positions.size == 0:
        return origins
    live = np.nonzero(live_mask)[0]
    if live.size == 0:
        raise RuntimeError(
            "all processors failed: step refused (no live rank to "
            "reassign requests to)"
        )
    start = (seed + step_index) % live.size
    origins[dead_positions] = live[
        (start + np.arange(dead_positions.size)) % live.size
    ]
    return origins


def write_survives(
    scheme: HMOS, written_mask: np.ndarray, allowed_mask: np.ndarray
) -> np.ndarray:
    """Audit hook: did any written copy survive per variable?

    The freshness theorem (module docstring) guarantees this is implied
    by recoverability — destroying *all* copies written by some target
    set necessarily destroys every read target set too, because any two
    target sets intersect.  This function lets tests verify that
    implication on concrete failure patterns.
    """
    surviving = np.asarray(written_mask, dtype=bool) & np.asarray(
        allowed_mask, dtype=bool
    )
    return surviving.any(axis=1)


class FaultInjector:
    """Mutable fault state: failed memory nodes, failed processors, and
    an optional mid-run schedule, with availability queries.

    Parameters
    ----------
    scheme : HMOS
    schedule : iterable of FaultEvent, optional
        Deaths to apply at step boundaries.  The injector keeps a
        monotone step clock: :meth:`apply_due_events` (called by
        ``AccessProtocol.run_steps`` before each step) applies every
        event whose ``step`` is due, and :meth:`advance_clock` (called
        after the step, refused or not) moves time forward.  The clock
        spans multiple ``run_steps`` calls on the same injector, so a
        long-lived backend sees one global timeline.
    seed : int
        Seeds the reassignment round-robin (see
        :func:`reassign_requesters`).
    """

    def __init__(self, scheme: HMOS, *, schedule=None, seed: int = 0):
        self.scheme = scheme
        self.seed = int(seed)
        self._failed = np.zeros(scheme.params.n, dtype=bool)
        self._failed_procs = np.zeros(scheme.params.n, dtype=bool)
        self._schedule = tuple(
            sorted(schedule or (), key=lambda e: (e.step, e.kind, e.nodes))
        )
        self._applied = 0  # schedule cursor
        self._step = 0  # monotone step clock

    def _check_ids(self, node_ids) -> np.ndarray:
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if np.any((node_ids < 0) | (node_ids >= self.scheme.params.n)):
            raise ValueError("node id out of range")
        return node_ids

    # -- memory-node faults ------------------------------------------------

    @property
    def failed_nodes(self) -> np.ndarray:
        """Ids of currently-failed memory nodes (sorted)."""
        return np.nonzero(self._failed)[0]

    def fail_nodes(self, node_ids) -> None:
        """Mark memory nodes as failed (idempotent)."""
        self._failed[self._check_ids(node_ids)] = True

    def heal_nodes(self, node_ids) -> None:
        """Bring nodes back (their copies' last values reappear —
        timestamps make stale resurrected copies harmless)."""
        self._failed[self._check_ids(node_ids)] = False

    # -- processor faults --------------------------------------------------

    @property
    def failed_processors(self) -> np.ndarray:
        """Ids of currently-failed processors (sorted)."""
        return np.nonzero(self._failed_procs)[0]

    @property
    def live_processor_mask(self) -> np.ndarray:
        """Boolean liveness per processor rank (True = alive)."""
        return ~self._failed_procs

    def fail_processors(self, proc_ids) -> None:
        """Mark processors as failed (idempotent); their requests are
        reassigned to survivors from the next step on."""
        self._failed_procs[self._check_ids(proc_ids)] = True

    def heal_processors(self, proc_ids) -> None:
        """Revive processors; they resume serving their own requests."""
        self._failed_procs[self._check_ids(proc_ids)] = False

    def requester_map(self, count: int) -> np.ndarray:
        """Origin processor for each of ``count`` requests at the
        current step (see :func:`reassign_requesters`)."""
        return reassign_requesters(
            self.live_processor_mask,
            count,
            seed=self.seed,
            step_index=self._step,
        )

    # -- mid-run schedule --------------------------------------------------

    @property
    def schedule(self) -> tuple[FaultEvent, ...]:
        """The (sorted) fault schedule; pending events keep their place."""
        return self._schedule

    @property
    def step_index(self) -> int:
        """The monotone step clock (0-based index of the next step)."""
        return self._step

    def apply_due_events(self) -> tuple[FaultEvent, ...]:
        """Apply every scheduled event due at or before the current
        step; returns the events applied (for logging)."""
        fired = []
        while (
            self._applied < len(self._schedule)
            and self._schedule[self._applied].step <= self._step
        ):
            event = self._schedule[self._applied]
            nodes = np.asarray(event.nodes, dtype=np.int64)
            if event.kind == "processor":
                self.fail_processors(nodes)
            else:
                self.fail_nodes(nodes)
            fired.append(event)
            self._applied += 1
        return tuple(fired)

    def advance_clock(self) -> None:
        """One step boundary has passed (executed or refused)."""
        self._step += 1

    def allowed_mask(self, variables, *, chains=None) -> np.ndarray:
        """Availability of each copy of each variable; shape ``(N, q^k)``.

        A copy is available iff the node storing it has not failed.
        ``chains`` optionally carries the precomputed ``(N, q^k, k)``
        module-chain tensor of the full copy grid (the batched step
        executor computes it once and shares it with fault-aware
        culling) so copy locations need no second chain derivation.
        """
        variables = np.asarray(variables, dtype=np.int64)
        red = self.scheme.params.redundancy
        v_grid = np.repeat(variables, red)
        p_grid = np.tile(np.arange(red, dtype=np.int64), variables.size)
        if chains is not None:
            chains = np.asarray(chains).reshape(v_grid.size, self.scheme.params.k)
        nodes = self.scheme.placement.copy_nodes(v_grid, p_grid, chains).reshape(
            variables.size, red
        )
        return ~self._failed[nodes]

    def recoverable(self, variables) -> np.ndarray:
        """Whether each variable still has a (level-k) target set."""
        params = self.scheme.params
        return access_mask(
            self.allowed_mask(variables), params.q, params.k, level=params.k
        )
