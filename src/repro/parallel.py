"""Process-parallel execution: the sweep pool and subprocess fan-out.

Two layers, both built so that ``workers <= 1`` (or a machine that
cannot pay for processes) degrades to plain inline execution:

* :func:`parallel_map` — the sweep runner shared by the fuzzer and the
  experiments.  Workers are plain processes (``ProcessPoolExecutor``)
  and share no cache directory: a forked worker inherits the parent's
  in-process HMOS artifact memo (:func:`repro.cache.default_cache`), a
  spawned one rebuilds what it uses.  Dispatch is sized honestly:
  the worker count is clamped to the machine's real cores (a pool
  cannot beat its own overhead without them), an explicit ``chunksize``
  keeps the per-item pickle round-trips amortized, and a caller-supplied
  ``cost_hint`` lets trivially small campaigns skip the pool entirely —
  the pool path must never lose to the inline path.
* :func:`run_commands` — independent *subprocess* invocations (the
  per-experiment pytest runs of ``repro experiments``), fanned out on
  threads since the children are processes already.

Mesh stepping never runs here: a large routing call splits over the
engine's own helper process (DESIGN.md, "Engine core").

Worker ids: every pool worker derives a distinct small id from its own
``multiprocessing`` process identity and exports it as
``$REPRO_OBS_WORKER`` (consumed by any :class:`repro.obs.Tracer` the
worker creates, so merged sweep timelines interleave by worker instead
of collapsing onto one track).  The id is *not* shipped through a
fork-context ``Value`` anymore — synchronized primitives cannot be
passed via ``initargs`` under the spawn start method, which crashed
``parallel_map`` on spawn-only platforms.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import subprocess
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

from repro.obs import tracer as _obs

__all__ = ["parallel_map", "run_commands"]

#: Estimated wall-clock cost of spinning up a worker pool (fork/spawn +
#: interpreter bootstrap + initializer imports).  A map whose *total*
#: estimated work is below this cannot win by going parallel, so
#: ``parallel_map`` runs it inline when the caller provides a
#: ``cost_hint``.
POOL_SPINUP_COST_S = 0.25


def _worker_rank() -> int:
    """Distinct small id of this pool worker (0 in the parent).

    Derived from ``multiprocessing``'s own per-child identity counter,
    which exists under every start method — unlike a fork-context
    ``Value`` shipped through ``initargs``, which the spawn pickler
    rejects ("synchronized objects should only be shared through
    inheritance").
    """
    identity = multiprocessing.current_process()._identity
    return int(identity[0]) if identity else 0


def _init_worker() -> None:
    """Worker bootstrap: a distinct worker id."""
    # Worker ids start at 1: id 0 is the parent's (default) track.
    os.environ["REPRO_OBS_WORKER"] = str(max(1, _worker_rank()))


def _mp_context(start_method: str | None = None):
    if start_method is None:
        start_method = os.environ.get("REPRO_MP_START") or None
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def parallel_map(
    fn,
    items,
    *,
    workers: int = 1,
    chunksize: int | None = None,
    cost_hint: float | None = None,
    start_method: str | None = None,
    oversubscribe: bool = False,
):
    """Map ``fn`` over ``items``, order-preserving.

    ``workers <= 1`` runs inline.  ``fn`` and the items must be picklable
    for the pool path (top-level functions, plain data).

    Parameters
    ----------
    workers : int
        Requested pool size.  Clamped to ``len(items)`` and — unless
        ``oversubscribe`` — to ``os.cpu_count()``: below its own core
        count a process pool only adds serialization overhead, which is
        exactly the BENCH_protocol regression this clamp removes.
    chunksize : int, optional
        Explicit ``pool.map`` chunk size.  Default: items split into at
        most 4 chunks per worker, so per-item dispatch overhead is
        amortized while the tail stays balanced.
    cost_hint : float, optional
        Caller's estimate of the *total* sequential seconds of the whole
        map.  When it is below the pool spin-up cost
        (:data:`POOL_SPINUP_COST_S`) the pool is skipped entirely — the
        parallel path must never run slower than the inline path.
    start_method : str, optional
        Force a multiprocessing start method (``"fork"``/``"spawn"``);
        default prefers fork where available (``$REPRO_MP_START``
        overrides).
    oversubscribe : bool
        Allow more workers than real cores (testing hook: exercises the
        pool path on single-core machines).
    """
    items = list(items)
    workers = min(int(workers), len(items))
    if not oversubscribe:
        workers = min(workers, os.cpu_count() or 1)
    if cost_hint is not None and cost_hint < POOL_SPINUP_COST_S:
        workers = 1
    tracer = _obs.current()
    if workers <= 1 or len(items) <= 1:
        with tracer.span("parallel.map", items=len(items), workers=1):
            return [fn(item) for item in items]
    if chunksize is None:
        chunksize = max(1, math.ceil(len(items) / (workers * 4)))
    ctx = _mp_context(start_method)
    with tracer.span(
        "parallel.map", items=len(items), workers=workers, chunksize=chunksize
    ):
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=ctx,
            initializer=_init_worker,
        ) as pool:
            return list(pool.map(fn, items, chunksize=chunksize))


def run_commands(commands, *, workers: int = 1) -> list[int]:
    """Run independent subprocess command lines; returns exit codes in order.

    The children are full processes, so the fan-out layer is threads.
    """
    commands = [list(cmd) for cmd in commands]
    tracer = _obs.current()
    if not tracer.enabled:
        if workers <= 1 or len(commands) <= 1:
            return [subprocess.call(cmd) for cmd in commands]
        with ThreadPoolExecutor(max_workers=min(workers, len(commands))) as pool:
            return list(pool.map(subprocess.call, commands))

    def _traced_call(indexed_cmd):
        index, cmd = indexed_cmd
        with tracer.span(
            "parallel.command",
            index=index,
            command=" ".join(cmd),
            worker=threading.current_thread().name,
        ) as span:
            code = subprocess.call(cmd)
            span.set(returncode=code)
            return code

    indexed = list(enumerate(commands))
    with tracer.span(
        "parallel.commands", commands=len(commands), workers=workers
    ):
        if workers <= 1 or len(commands) <= 1:
            return [_traced_call(ic) for ic in indexed]
        with ThreadPoolExecutor(max_workers=min(workers, len(commands))) as pool:
            return list(pool.map(_traced_call, indexed))
