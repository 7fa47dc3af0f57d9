"""Seeded case generation for the differential fuzzer.

Draws :class:`~repro.check.case.CaseSpec` instances from a seeded NumPy
generator over the protocol stack's real parameter space — mesh sizes,
the alpha/q/k grid, curves, fault budget, workload mix (uniform and the
adversarial generators of :mod:`repro.hmos.adversary`), step shapes —
at microseconds per case.  ``random_cases(seed, count)`` is
deterministic and pickles to plain dicts for process-pool shards.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from repro.check.case import CaseSpec, StepSpec
from repro.hmos.adversary import (
    doomed_processor_requests,
    majority_collision_requests,
    module_collision_requests,
)
from repro.hmos.faults import EVENT_KINDS, FaultEvent
from repro.hmos.params import HMOSParams
from repro.hmos.scheme import HMOS

__all__ = [
    "PROFILES",
    "feasible_configs",
    "full_size_configs",
    "random_case",
    "random_cases",
]

#: Bounds keeping one fuzz case under ~100 ms: small meshes, capped
#: memory (the invariants are size-uniform; the theorems' asymptotics
#: are covered by the E4/E8 benchmarks instead).
N_CHOICES = (16, 64)
ALPHA_CHOICES = (1.1, 1.25, 1.5, 2.0)
Q_CHOICES = (3, 4, 5)
K_CHOICES = (1, 2, 3)
MAX_VARIABLES = 20_000
MAX_STEPS = 4
MAX_FAULTS = 3
MAX_SCHEDULE_EVENTS = 2
CURVES = ("morton", "hilbert")
WORKLOADS = ("uniform", "module", "majority", "doomed")

#: Generator profiles: ``default`` mixes fault-free and faulty cases;
#: ``fault-heavy`` guarantees every case carries static processor
#: faults AND a mid-run fault schedule (plus an elevated memory-fault
#: budget) — the CI slice exercising the degraded-mode machinery on
#: every single case; ``full-size`` draws ``default``-style cases from
#: :func:`full_size_configs`, and each case's first step (and about
#: half of the others) carries a full load of ``n`` requests, so the
#: model engine's full-load stage planning meets the cycle engine's
#: placed packets at the sizes the benchmarks run.
PROFILES = ("default", "fault-heavy", "full-size")

#: The ``full-size`` profile's meshes, and its largest alpha: at
#: alpha <= 1.5 a scheme's cold build (the incidence tables the
#: oracle's cached scheme materializes) stays under 0.4 s on the 2-core
#: x86_64 reference host, where alpha = 2.0 holds 7.2M variables at
#: n = 1024 and 64.6M at n = 4096.
FULL_SIZE_N = (1024, 4096)
FULL_SIZE_MAX_ALPHA = 1.5


def _instantiable(ns, alphas):
    """``(config, params)`` of every ``(n, alpha, q, k)`` over ``ns``,
    ``alphas`` and all q and k choices that the HMOS can instantiate."""
    for n, alpha, q, k in itertools.product(ns, alphas, Q_CHOICES, K_CHOICES):
        try:
            params = HMOSParams(n=n, alpha=alpha, q=q, k=k)
        except ValueError:
            continue
        yield (n, alpha, q, k), params


@lru_cache(maxsize=1)
def feasible_configs() -> tuple[tuple[int, float, int, int], ...]:
    """All ``(n, alpha, q, k)`` combinations the HMOS can instantiate
    within the fuzz budget, smallest first (shrinking prefers the front
    of the list)."""
    out = [
        cfg
        for cfg, params in _instantiable(N_CHOICES, ALPHA_CHOICES)
        if params.num_variables <= MAX_VARIABLES
    ]
    out.sort(key=lambda cfg: (cfg[0], HMOSParams(*cfg).num_variables, cfg[3]))
    return tuple(out)


@lru_cache(maxsize=1)
def full_size_configs() -> tuple[tuple[int, float, int, int], ...]:
    """All ``(n, alpha, q, k)`` the ``full-size`` profile draws from:
    ``n`` in :data:`FULL_SIZE_N`, alpha at most
    :data:`FULL_SIZE_MAX_ALPHA`, every feasible q and k."""
    alphas = [a for a in ALPHA_CHOICES if a <= FULL_SIZE_MAX_ALPHA]
    return tuple(cfg for cfg, _ in _instantiable(FULL_SIZE_N, alphas))


def _scheme_for(n: int, alpha: float, q: int, k: int) -> HMOS:
    """Read-only HMOS used to materialize adversarial request sets at
    generation time (the oracle builds its own fresh instances)."""
    return HMOS.cached(n, alpha, q, k)


def _request_count(rng: np.random.Generator, n: int) -> int:
    """Log-uniform request-set size in ``[1, n]``.

    Standard fuzz sizing: mostly small cases (fast to execute, easy to
    shrink) with a tail reaching the full-load boundary.
    """
    return int(np.exp(rng.uniform(0.0, np.log(n + 1))))


def _random_step(
    rng: np.random.Generator,
    n: int,
    alpha: float,
    q: int,
    k: int,
    doomed: tuple[int, ...] = (),
    full_load: bool = False,
) -> StepSpec:
    """One memory step against the given configuration.

    ``doomed`` carries the processor ranks the case's fault state will
    kill (static + scheduled), so the ``doomed`` workload can aim its
    concentration at exactly the requests that will be reassigned.
    A ``full_load`` step carries ``n`` requests, one per processor.
    """
    scheme = _scheme_for(n, alpha, q, k)
    num_vars = scheme.num_variables
    workload = WORKLOADS[rng.integers(len(WORKLOADS))]
    if workload == "doomed" and not doomed:
        workload = "module"  # nothing to doom; fall back to the module attack
    count = n if full_load else _request_count(rng, n)
    if workload == "uniform":
        variables = tuple(
            int(v) for v in rng.choice(num_vars, size=count, replace=False)
        )
    else:
        if workload == "doomed":
            module = int(rng.integers(scheme.placement.graphs[0].num_outputs))
            picked = doomed_processor_requests(
                scheme, count, doomed=doomed, module=module
            )
        elif workload == "module":
            graph = scheme.placement.graphs[0]
            module = int(rng.integers(graph.num_outputs))
            picked = module_collision_requests(scheme, count, module=module)
        else:
            try:
                picked = majority_collision_requests(scheme, count)
            except ValueError:
                # Pool too small to force majorities at this count; the
                # single-module attack is the fallback concentration.
                picked = module_collision_requests(scheme, count)
        variables = tuple(int(v) for v in np.asarray(picked))
    op = ("read", "write", "mixed")[rng.integers(3)]
    values = is_write = None
    if op in ("write", "mixed"):
        values = tuple(
            int(v) for v in rng.integers(0, 10**6 + 1, size=len(variables))
        )
    if op == "mixed":
        is_write = tuple(bool(b) for b in rng.integers(0, 2, size=len(variables)))
    return StepSpec(
        op=op,
        variables=variables,
        values=values,
        is_write=is_write,
        workload=workload,
    )


def _random_schedule(
    rng: np.random.Generator, n: int, n_steps: int, *, minimum: int
) -> tuple[FaultEvent, ...]:
    """0..MAX_SCHEDULE_EVENTS mid-run fault events.

    Event steps are drawn from ``[0, n_steps]`` *inclusive* — step 0
    (death before anything runs) and ``n_steps`` (death scheduled past
    the end of the stream, which must never fire) are both edge cases
    the oracle is expected to handle.
    """
    n_events = int(rng.integers(minimum, MAX_SCHEDULE_EVENTS + 1))
    events = []
    for _ in range(n_events):
        step = int(rng.integers(0, n_steps + 1))
        kind = EVENT_KINDS[rng.integers(len(EVENT_KINDS))]
        size = int(rng.integers(1, 3))
        nodes = tuple(
            int(x) for x in sorted(rng.choice(n, size=size, replace=False))
        )
        events.append(FaultEvent(step=step, kind=kind, nodes=nodes))
    return tuple(events)


def random_case(rng: np.random.Generator, profile: str = "default") -> CaseSpec:
    """A full differential-oracle scenario drawn from ``rng``."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; choose from {PROFILES}")
    heavy = profile == "fault-heavy"
    full_size = profile == "full-size"
    configs = full_size_configs() if full_size else feasible_configs()
    n, alpha, q, k = configs[rng.integers(len(configs))]
    curve = CURVES[rng.integers(len(CURVES))]
    n_faults = int(rng.integers(1 if heavy else 0, MAX_FAULTS + 1))
    failed = tuple(
        int(x) for x in sorted(rng.choice(n, size=n_faults, replace=False))
    )
    n_procs = int(rng.integers(1 if heavy else 0, MAX_FAULTS + 1))
    failed_procs = tuple(
        int(x) for x in sorted(rng.choice(n, size=n_procs, replace=False))
    )
    n_steps = int(rng.integers(1, MAX_STEPS + 1))
    schedule = _random_schedule(rng, n, n_steps, minimum=1 if heavy else 0)
    doomed = tuple(
        sorted(
            set(failed_procs).union(
                node
                for e in schedule
                if e.kind == "processor"
                for node in e.nodes
            )
        )
    )
    steps = []
    for i in range(n_steps):
        full_load = full_size and (i == 0 or rng.random() < 0.5)
        steps.append(
            _random_step(rng, n, alpha, q, k, doomed=doomed, full_load=full_load)
        )
    return CaseSpec(
        n=n,
        alpha=alpha,
        q=q,
        k=k,
        curve=curve,
        failed_nodes=failed,
        failed_processors=failed_procs,
        fault_schedule=schedule,
        steps=tuple(steps),
    )


def random_cases(
    seed: int, count: int, profile: str = "default"
) -> list[CaseSpec]:
    """``count`` cases, deterministic in ``(seed, profile)`` (independent
    of worker count — the stream is drawn up front, then sharded)."""
    rng = np.random.default_rng(seed)
    return [random_case(rng, profile) for _ in range(count)]
