"""Differential-oracle certification of the degraded-mode machinery.

The acceptance bar for the processor-fault extension: the oracle (cycle
engine vs cost model vs ideal PRAM, plus the reassignment-agreement and
two-sided refusal rules) certifies a seeded campaign of cases that all
carry static processor faults AND mid-run fault schedules, and the
whole pipeline round-trips through the JSON artifact format.
"""

import json

import numpy as np
import pytest

from repro.check.case import CaseSpec, StepSpec
from repro.check.fuzz import run_fuzz, shrink_case
from repro.check.generate import PROFILES, random_case, random_cases
from repro.check.oracle import run_case
from repro.hmos.faults import FaultEvent


class TestFaultHeavyGeneration:
    def test_profile_guarantees_fault_state(self):
        cases = random_cases(3, 25, "fault-heavy")
        assert all(c.failed_processors for c in cases)
        assert all(c.fault_schedule for c in cases)
        assert all(c.failed_nodes for c in cases)

    def test_default_profile_mixes(self):
        cases = random_cases(0, 40, "default")
        assert any(c.fault_schedule for c in cases)
        assert any(not c.fault_schedule for c in cases)

    def test_deterministic_in_seed_and_profile(self):
        assert random_cases(5, 10, "fault-heavy") == random_cases(
            5, 10, "fault-heavy"
        )
        assert random_cases(5, 10, "fault-heavy") != random_cases(
            5, 10, "default"
        )

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown profile"):
            random_case(np.random.default_rng(0), "bogus")
        assert set(PROFILES) == {"default", "fault-heavy", "full-size"}

    def test_schedule_covers_past_end_edge(self):
        """The generator draws event steps up to n_steps inclusive, so
        never-firing events are part of the certified space."""
        cases = random_cases(0, 60, "fault-heavy")
        assert any(
            e.step >= len(c.steps) for c in cases for e in c.fault_schedule
        )
        assert any(
            e.step == 0 for c in cases for e in c.fault_schedule
        )


class TestOracleCertification:
    def test_fifty_fault_heavy_cases_certified(self):
        """The headline acceptance criterion: >= 50 seeded cases with
        processor faults and mid-run schedules pass the differential
        oracle (values, accounting, reassignment agreement, two-sided
        refusals)."""
        cases = random_cases(0, 50, "fault-heavy")
        assert len(cases) == 50
        for case in cases:
            report = run_case(case)
            assert report.steps_checked + report.steps_skipped == len(
                case.steps
            )

    def test_campaign_through_sweep_runner(self, tmp_path):
        report = run_fuzz(
            seed=1, cases=12, workers=2, profile="fault-heavy",
            artifact_dir=tmp_path,
        )
        assert report.ok, report.summary()
        assert report.executed == 12


class TestFaultyCaseRoundTrip:
    def _case(self):
        return CaseSpec(
            n=16,
            alpha=1.5,
            q=3,
            k=1,
            failed_nodes=(2,),
            failed_processors=(1, 5),
            fault_schedule=(
                FaultEvent(step=1, kind="processor", nodes=(3,)),
                FaultEvent(step=2, kind="module", nodes=(0, 4)),
            ),
            steps=(
                StepSpec(op="write", variables=(0, 1), values=(10, 11)),
                StepSpec(op="read", variables=(0, 1)),
            ),
        )

    def test_json_round_trip_preserves_schedule(self):
        case = self._case()
        rebuilt = CaseSpec.from_dict(json.loads(json.dumps(case.to_dict())))
        assert rebuilt == case
        assert isinstance(rebuilt.fault_schedule[0], FaultEvent)

    def test_describe_mentions_fault_state(self):
        text = self._case().describe()
        assert "dead_procs=[1, 5]" in text
        assert "1:processor:3" in text and "2:module:0,4" in text

    def test_old_artifacts_still_load(self):
        data = self._case().to_dict()
        del data["failed_processors"]
        del data["fault_schedule"]
        rebuilt = CaseSpec.from_dict(data)
        assert rebuilt.failed_processors == ()
        assert rebuilt.fault_schedule == ()

    def test_shrinker_clears_fault_dimensions(self):
        """A failure independent of the fault state shrinks to a case
        with all three fault dimensions cleared."""
        minimized = shrink_case(self._case(), lambda cand: True)
        assert minimized.failed_nodes == ()
        assert minimized.failed_processors == ()
        assert minimized.fault_schedule == ()
        assert len(minimized.steps) == 1
