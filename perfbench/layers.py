"""Per-layer attribution, wrapped from outside the program.

Every layer is a set of public entry points (functions or methods).
:func:`install` replaces each entry point by a wrapper that records a
span -- layer name, start, end, parent span and op id -- and calls the
original; :func:`uninstall` puts the originals back.  The program's
code is never edited.  A layer's *self time* is the duration of its
spans minus the time covered by their child spans, so nested layers
(``culling`` inside ``protocol.access`` inside ``pram``) never count
the same wall time twice.

Two modes share the wrappers:

* ``timing=False`` (every timed run): only the two entry points that
  yield determinism counts -- ``cull`` and ``route_many`` -- are
  wrapped, and they only add to counters (no clock reads, no spans).
* ``timing=True`` (the traced run): every entry point in
  :data:`LAYERS` records spans, and observers add the layer's work
  counts.

``repro.obs``'s tracer is never installed: installing it switches
``route_many`` to its traced path, which is a different code path from
the one the end-to-end numbers measure.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import defaultdict

import numpy as np

__all__ = ["LAYERS", "SETUP_LAYERS", "Recorder", "install", "uninstall"]


# -- observers: work counts taken at the layer boundary ----------------------


def _obs_encode(rec, args, result, span):
    rec.add("serve.protocol.bytes", len(result))


def _obs_decode(rec, args, result, span):
    if hasattr(result, "batch"):  # a RESULT frame
        rec.attr(span, request=result.id, batch=result.batch, step=result.step)


def _obs_submit(rec, args, result, span):
    _core, sid, msg = args[:3]
    rec.submitted_at[(sid, msg.id)] = rec.starts[span]
    rec.attr(span, request=msg.id)


def _obs_flush(rec, args, result, span):
    start = rec.starts[span]
    for session, msg in result:
        submitted = rec.submitted_at.pop((session.sid, msg.id), None)
        if submitted is not None:
            rec.queue_waits.append(start - submitted)


def _active_lanes(addrs):
    return int(np.count_nonzero(np.asarray(addrs) != -1))


def _obs_machine_rw(rec, args, result, span):
    rec.add("pram.active_lanes", _active_lanes(args[1]))


def _obs_machine_step(rec, args, result, span):
    rec.add("pram.active_lanes", _active_lanes(args[1]) + _active_lanes(args[2]))


def _obs_machine_scatter(rec, args, result, span):
    rec.add("pram.active_lanes", int(np.asarray(args[2]).size))


def _obs_machine_gather(rec, args, result, span):
    rec.add("pram.active_lanes", int(args[2]))


def _obs_backend_cells(rec, args, result, span):
    rec.add("pram.cells_sent", int(np.asarray(args[1]).size))


def _obs_backend_mixed(rec, args, result, span):
    rec.add("pram.cells_sent", int(np.union1d(args[1], args[2]).size))


def _obs_backend_run_steps(rec, args, result, span):
    rec.add("pram.cells_sent", sum(len(r.variables) for r in args[1]))


def _obs_cull(rec, args, result, span):
    rec.add("culling.requests", int(result.variables.size))
    rec.add("culling.copies_selected", result.total_selected)
    rec.add(
        "culling.augmented_copies",
        sum(it.augmented_copies for it in result.iterations),
    )
    rec.add("culling.charged_steps", float(result.charged_steps))


def _obs_read_latest(rec, args, result, span):
    rec.add("hmos.memory.copies_reached", int(np.count_nonzero(args[2])))


def _obs_memory_read(rec, args, result, span):
    rec.add("hmos.memory.copies_fetched", int(result[0].size))


def _obs_route_many(rec, args, result, span):
    rec.add("mesh.engine.packets", sum(int(b.src.size) for b in args[1]))
    rec.add("mesh.engine.hops", sum(int(r.total_hops) for r in result))
    rec.add("mesh.engine.route_steps", sum(int(r.steps) for r in result))
    rec.peak("mesh.engine.max_queue", max((int(r.max_queue) for r in result), default=0))


# -- the layer table ----------------------------------------------------------
#
# (layer, module, owner attribute or None, entry point, observer).  A
# module-level function is patched where its caller binds it:
# ``repro.protocol.access`` imports ``cull`` and ``rank_within_groups``
# by name, and ``repro.culling.procedure`` imports
# ``extract_min_target_set`` by name.

LAYERS = (
    ("serve.protocol", "repro.serve.protocol", None, "encode_message", _obs_encode),
    ("serve.protocol", "repro.serve.protocol", None, "decode_message", _obs_decode),
    ("serve.server", "repro.serve.server", "ServerCore", "submit", _obs_submit),
    ("serve.server", "repro.serve.server", "ServerCore", "flush", _obs_flush),
    ("serve.server", "repro.serve.server", "ServerCore", "certify", None),
    ("pram", "repro.pram.machine", "PRAMMachine", "read", _obs_machine_rw),
    ("pram", "repro.pram.machine", "PRAMMachine", "write", _obs_machine_rw),
    ("pram", "repro.pram.machine", "PRAMMachine", "step", _obs_machine_step),
    ("pram", "repro.pram.machine", "PRAMMachine", "scatter", _obs_machine_scatter),
    ("pram", "repro.pram.machine", "PRAMMachine", "gather", _obs_machine_gather),
    ("pram", "repro.pram.backends", "MeshBackend", "read_step", _obs_backend_cells),
    ("pram", "repro.pram.backends", "MeshBackend", "write_step", _obs_backend_cells),
    ("pram", "repro.pram.backends", "MeshBackend", "mixed_step", _obs_backend_mixed),
    ("pram", "repro.pram.backends", "MeshBackend", "run_steps", _obs_backend_run_steps),
    ("protocol.access", "repro.protocol.access", "AccessProtocol", "run_steps", None),
    ("protocol.access", "repro.protocol.access", "AccessProtocol", "read", None),
    ("protocol.access", "repro.protocol.access", "AccessProtocol", "write", None),
    ("protocol.access", "repro.protocol.access", "AccessProtocol", "mixed", None),
    ("util.grouping", "repro.protocol.access", None, "rank_within_groups", None),
    ("culling", "repro.protocol.access", None, "cull", _obs_cull),
    ("hmos.copytree", "repro.culling.procedure", None, "extract_min_target_set", None),
    ("hmos.placement", "repro.hmos.placement", "Placement", "chains", None),
    ("hmos.placement", "repro.hmos.placement", "Placement", "copy_nodes", None),
    ("hmos.placement", "repro.hmos.placement", "Placement", "page_keys", None),
    ("hmos.placement", "repro.hmos.placement", "Placement", "page_node_spans", None),
    ("hmos.memory", "repro.hmos.memory", "CopyMemory", "read_latest_masked", _obs_read_latest),
    ("hmos.memory", "repro.hmos.memory", "CopyMemory", "write", None),
    ("mesh.engine", "repro.mesh.engine", "SynchronousEngine", "route_many", _obs_route_many),
    ("bibd", "repro.cache", "ArtifactCache", "subgraph", None),
    ("cache", "repro.cache", "ArtifactCache", "scheme", None),
)

#: Layers whose work happens while a scheme is built, not during ops;
#: their per-op figures are per cold build (see NOTES.md).
SETUP_LAYERS = ("bibd", "cache")

#: Entry points wrapped in every run, counting only: the simulated
#: counts the determinism guard compares, traced or not.
_COUNTING = {("repro.protocol.access", "cull"), ("repro.mesh.engine", "route_many")}

#: Counting-only probe inside the memory layer: copies fetched per read
#: (no span, so it changes no layer's self time or call count).  If the
#: program no longer has the method, or reads stop going through it,
#: the probe sees no fetch and the traced run fails (see
#: ``bench.memory_probe_problems``).
_PROBES = (("repro.hmos.memory", "CopyMemory", "read", _obs_memory_read),)


class Recorder:
    """In-memory spans plus counters for one process.

    Spans are parallel lists indexed by span id.  ``enabled`` gates all
    recording, so warm-up ops and input checks never reach the counts.
    """

    def __init__(self, timing: bool):
        self.timing = timing
        self.enabled = False
        self.op = -1
        self.names: list[str] = []  # "<layer>:<entry point>"
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[list] = []  # [span id, child time]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.submitted_at: dict = {}
        self.queue_waits: list[float] = []
        self.window: dict = {}

    def add(self, name: str, value) -> None:
        self.counts[name] += value

    def peak(self, name: str, value) -> None:
        self.counts[name] = max(self.counts[name], value)

    def attr(self, span: int, **values) -> None:
        self.attrs.setdefault(span, {}).update(values)

    def open(self, name: str) -> int:
        span = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1][0] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(math.nan)
        self._stack.append([span, 0.0])
        self.starts.append(time.perf_counter())
        return span

    def close(self) -> None:
        end = time.perf_counter()
        span, child = self._stack.pop()
        self.ends[span] = end
        duration = end - self.starts[span]
        name = self.names[span]
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def reset_totals(self) -> None:
        """Forget aggregated times and counts (spans are kept)."""
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.submitted_at.clear()
        self.queue_waits.clear()

    def freeze(self) -> None:
        """Copy the totals of the timed window into ``window``; later
        spans (e.g. certification) still reach the span dump."""
        self.window = {
            "self_s": defaultdict(float, self.self_s),
            "calls": defaultdict(int, self.calls),
            "counts": defaultdict(float, self.counts),
            "queue_waits": list(self.queue_waits),
        }

    def layer_totals(self, which: str = "self_s") -> dict[str, float]:
        """Window totals (``self_s`` or ``calls``) summed per layer."""
        out: dict[str, float] = defaultdict(float)
        for name, value in self.window[which].items():
            out[name.split(":")[0]] += value
        return out

    def write_spans(self, path) -> None:
        """Dump every span as one JSON line (name, start, end, parent,
        op, attributes)."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                row = [name, self.starts[i], self.ends[i], self.parents[i], self.ops[i]]
                if i in self.attrs:
                    row.append(self.attrs[i])
                fh.write(json.dumps(row) + "\n")


def _counting(rec: Recorder, original, observe):
    @functools.wraps(original)
    def counting(*args, **kwargs):
        result = original(*args, **kwargs)
        if rec.enabled:
            observe(rec, args, result, None)
        return result

    return counting


def _traced(rec: Recorder, layer: str, original, observe):
    name = f"{layer}:{original.__name__}"

    @functools.wraps(original)
    def traced(*args, **kwargs):
        if not rec.enabled:
            return original(*args, **kwargs)
        span = rec.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            rec.close()
        if observe is not None:
            observe(rec, args, result, span)
        return result

    return traced


def install(rec: Recorder) -> list:
    """Wrap the entry points for ``rec``'s mode; returns the undo list
    for :func:`uninstall`."""
    undo = []

    def patch(mod, owner, name, wrapper):
        target = getattr(importlib.import_module(mod), owner) if owner else importlib.import_module(mod)
        original = vars(target)[name]
        setattr(target, name, wrapper(original))
        undo.append((target, name, original))

    for layer, mod, owner, name, observe in LAYERS:
        if rec.timing:
            patch(mod, owner, name, lambda f, l=layer, o=observe: _traced(rec, l, f, o))
        elif (mod, name) in _COUNTING:
            patch(mod, owner, name, lambda f, o=observe: _counting(rec, f, o))
    if rec.timing:
        for mod, owner, name, observe in _PROBES:
            if name in vars(getattr(importlib.import_module(mod), owner)):
                patch(mod, owner, name, lambda f, o=observe: _counting(rec, f, o))
    return undo


def uninstall(undo: list) -> None:
    for target, name, original in reversed(undo):
        setattr(target, name, original)
