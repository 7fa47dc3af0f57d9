"""Differential verification of the protocol stack against PRAM semantics.

Three pillars (see DESIGN.md, "Differential verification harness"):

* :mod:`repro.check.oracle` — runs one request stream through the cycle
  engine, the Theorem 2 cost model, and an ideal PRAM memory image, and
  cross-checks values, delivered packets, congestion, and stage-metric
  invariants after every step;
* :mod:`repro.check.generate` + :mod:`repro.check.fuzz` — a seeded
  case generator over the real parameter space and the campaign that
  runs it (``repro check fuzz`` on the command line), shrinking any
  divergence to a minimized JSON artifact under ``tests/data/repros/``;
* ``tests/property/`` — the per-layer property suite that runs under
  tier-1.
"""

from repro.check.case import CaseSpec, StepSpec, load_artifact, save_artifact
from repro.check.oracle import (
    DifferentialOracle,
    DivergenceError,
    OracleReport,
    StepOutcome,
    run_case,
)

__all__ = [
    "CaseSpec",
    "StepSpec",
    "DifferentialOracle",
    "DivergenceError",
    "OracleReport",
    "StepOutcome",
    "load_artifact",
    "run_case",
    "save_artifact",
]
