"""Differential-oracle properties: the fuzz core, run under tier-1.

Every generated case must execute with zero divergence between the
cycle engine, the Theorem 2 cost model, and the ideal-PRAM reference —
this is experiment E12's consistency claim, continuously fuzzed.  The
harness itself is then tested the only way a verifier can be: by
injecting a corruption and asserting it is caught, shrunk, serialized,
and replayable.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import CaseSpec, DivergenceError, StepSpec, load_artifact, run_case
from repro.check.fuzz import replay, run_fuzz
from repro.check.generate import feasible_configs, random_case


class TestOracleFuzz:
    @settings(max_examples=20)
    @given(
        seed=st.integers(0, 2**63 - 1),
        # The full-size profile runs in CI's fuzz-smoke campaign; here
        # its cases are only generated (tests/test_parallel.py).
        profile=st.sampled_from(("default", "fault-heavy")),
    )
    def test_stack_matches_pram_semantics(self, seed, profile):
        case = random_case(np.random.default_rng(seed), profile)
        report = run_case(case)
        assert report.steps_checked + report.steps_skipped == len(case.steps)
        # Fault-free cases can never be refused.  (Processor faults and
        # scheduled deaths can: unrecoverable variables after a module
        # event, or every processor dead.)
        if not (
            case.failed_nodes or case.failed_processors or case.fault_schedule
        ):
            assert report.steps_skipped == 0

    def test_parameter_space_is_covered(self):
        configs = feasible_configs()
        assert len(configs) >= 10
        assert {cfg[0] for cfg in configs} == {16, 64}
        assert {cfg[2] for cfg in configs} >= {3, 4, 5}


class TestOracleChecks:
    def test_detects_value_corruption(self):
        case = CaseSpec(
            n=16,
            alpha=1.5,
            q=3,
            k=1,
            steps=(
                StepSpec(op="write", variables=(1, 2), values=(7, 8)),
                StepSpec(op="read", variables=(1, 2)),
            ),
        )

        def corrupt(values):
            out = values.copy()
            out[-1] ^= 1
            return out

        run_case(case)  # sanity: clean stack passes
        with pytest.raises(DivergenceError, match="diverge from ideal PRAM"):
            run_case(case, corrupt_read=corrupt)

    def test_mixed_steps_see_pre_write_values(self):
        case = CaseSpec(
            n=16,
            alpha=1.5,
            q=3,
            k=1,
            steps=(
                StepSpec(op="write", variables=(3,), values=(5,)),
                StepSpec(
                    op="mixed",
                    variables=(3, 4),
                    values=(9, 0),
                    is_write=(True, False),
                ),
                StepSpec(op="read", variables=(3, 4)),
            ),
        )
        run_case(case)

    def test_consistent_fault_refusal_is_skipped(self):
        """Failing every node leaves nothing recoverable; both engines
        must refuse identically, which the oracle records as a skip."""
        case = CaseSpec(
            n=16,
            alpha=1.5,
            q=3,
            k=1,
            failed_nodes=tuple(range(16)),
            steps=(StepSpec(op="read", variables=(0,)),),
        )
        report = run_case(case)
        assert report.steps_skipped == 1 and report.steps_checked == 0


class TestFuzzHarness:
    def test_clean_stack_fuzzes_clean(self, tmp_path):
        report = run_fuzz(seed=7, cases=5, artifact_dir=tmp_path)
        assert report.ok, report.summary()
        assert report.executed == 5
        assert not list(tmp_path.iterdir())  # no artifacts on success

    def test_injected_corruption_is_caught_shrunk_and_replayable(self, tmp_path):
        def corrupt(values):
            if values.size:
                values = values.copy()
                values[0] += 1
            return values

        report = run_fuzz(
            seed=0, cases=30, artifact_dir=tmp_path, corrupt_read=corrupt
        )
        assert not report.ok
        assert report.case is not None and report.artifact is not None
        # Shrinking drove the failure to a minimal scenario: a single
        # step with a single request on the smallest configuration.
        assert len(report.case.steps) == 1
        assert len(report.case.steps[0].variables) == 1
        assert report.case.n == 16
        # The artifact is self-contained: it reloads, reproduces under
        # the corruption, and passes on the clean stack.
        loaded, meta = load_artifact(report.artifact)
        assert loaded == report.case
        assert meta["seed"] == 0
        with pytest.raises(DivergenceError):
            replay(report.artifact, corrupt_read=corrupt)
        clean = replay(report.artifact)
        assert clean.steps_checked == 1

    def test_deterministic_for_fixed_seed(self, tmp_path):
        def corrupt(values):
            if values.size:
                values = values.copy()
                values[0] += 1
            return values

        a = run_fuzz(seed=3, cases=10, artifact_dir=tmp_path / "a",
                     corrupt_read=corrupt)
        b = run_fuzz(seed=3, cases=10, artifact_dir=tmp_path / "b",
                     corrupt_read=corrupt)
        assert a.case == b.case
        assert a.artifact.name == b.artifact.name


class TestArtifactFormat:
    def test_rejects_unknown_format(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "nope", "case": {}}')
        with pytest.raises(ValueError, match="unsupported artifact format"):
            load_artifact(bad)

    def test_step_spec_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            StepSpec(op="read", variables=(1, 1))
        with pytest.raises(ValueError, match="align"):
            StepSpec(op="write", variables=(1, 2), values=(1,))
        with pytest.raises(ValueError, match="unknown op"):
            StepSpec(op="scan", variables=(1,))

    def test_case_roundtrip(self):
        case = CaseSpec(
            n=64,
            alpha=1.25,
            q=4,
            k=2,
            curve="hilbert",
            failed_nodes=(3, 9),
            steps=(
                StepSpec(
                    op="mixed",
                    variables=(0, 17),
                    values=(1, 2),
                    is_write=(True, False),
                    workload="module",
                ),
            ),
        )
        assert CaseSpec.from_dict(case.to_dict()) == case


def test_corrupt_hook_sees_numpy_values():
    """The hook contract: called with an int64 ndarray per read step."""
    seen = []

    def spy(values):
        seen.append(values.dtype)
        return values

    case = CaseSpec(
        n=16, alpha=1.5, q=3, k=1,
        steps=(StepSpec(op="read", variables=(0,)),),
    )
    run_case(case, corrupt_read=spy)
    assert seen and all(dt == np.int64 for dt in seen)
