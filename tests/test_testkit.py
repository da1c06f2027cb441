"""Tests for repro.testkit: fuzzer, oracles, shrinker, artifacts.

The expensive end-to-end checks (25-case oracle sweep, byte-identical
replay) run on deliberately small cases; the whole module stays well
inside the tier-1 time budget.
"""

import json
import os
from pathlib import Path

import pytest

from repro.testkit import (
    Artifact,
    CasePlan,
    FuzzCase,
    FuzzRunner,
    ORACLES,
    OracleContext,
    OracleVerdict,
    PlannedEvent,
    ScenarioFuzzer,
    artifact_matches_expectation,
    execute_plan,
    execution_digest,
    iter_artifacts,
    load_artifact,
    normalize_events,
    plan_case,
    shrink,
    write_artifact,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REGRESSIONS = os.path.join(
    REPO_ROOT, "tests", "fixtures", "fuzz_regressions"
)


class TestCaseModel:
    def test_planned_event_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown planned-event kind"):
            PlannedEvent(1.0, "reboot", "R0")

    def test_case_round_trips_through_json(self):
        case = ScenarioFuzzer(5).case(3)
        data = json.loads(json.dumps(case.to_dict()))
        assert FuzzCase.from_dict(data) == case

    def test_case_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown FuzzCase field"):
            FuzzCase.from_dict({"seed": 1, "bogus": 2})

    def test_case_requires_seed(self):
        with pytest.raises(ValueError, match="needs a seed"):
            FuzzCase.from_dict({"routers": 4})

    def test_plan_round_trips_through_json(self):
        plan = plan_case(ScenarioFuzzer(5).case(0))
        data = json.loads(json.dumps(plan.to_dict()))
        assert CasePlan.from_dict(data) == plan

    def test_normalize_drops_orphaned_withdraw(self):
        kept = normalize_events(
            [PlannedEvent(2.0, "withdraw", "Ext0", prefix_index=0)]
        )
        assert kept == ()

    def test_normalize_keeps_announced_withdraw(self):
        kept = normalize_events(
            [
                PlannedEvent(1.0, "announce", "Ext0", prefix_index=0),
                PlannedEvent(2.0, "withdraw", "Ext0", prefix_index=0),
            ]
        )
        assert [e.kind for e in kept] == ["announce", "withdraw"]

    def test_normalize_drops_orphaned_link_up_and_dup_down(self):
        kept = normalize_events(
            [
                PlannedEvent(1.0, "link_up", "R0|R1"),
                PlannedEvent(2.0, "link_down", "R0|R1"),
                PlannedEvent(3.0, "link_down", "R0|R1"),
                PlannedEvent(4.0, "link_up", "R0|R1"),
            ]
        )
        assert [(e.time, e.kind) for e in kept] == [
            (2.0, "link_down"),
            (4.0, "link_up"),
        ]

    def test_normalize_orders_by_time(self):
        kept = normalize_events(
            [
                PlannedEvent(3.0, "announce", "Ext0", prefix_index=1),
                PlannedEvent(1.0, "announce", "Ext0", prefix_index=0),
            ]
        )
        assert [e.time for e in kept] == [1.0, 3.0]


class TestFuzzerDeterminism:
    def test_same_seed_same_cases(self):
        assert ScenarioFuzzer(9).cases(10) == ScenarioFuzzer(9).cases(10)

    def test_case_independent_of_stream_position(self):
        # Case i never depends on cases generated before it.
        assert ScenarioFuzzer(9).case(7) == ScenarioFuzzer(9).cases(10)[7]

    def test_different_seeds_differ(self):
        assert ScenarioFuzzer(1).cases(5) != ScenarioFuzzer(2).cases(5)

    def test_knobs_within_ranges(self):
        for case in ScenarioFuzzer(3).cases(20):
            assert 4 <= case.routers <= 7
            assert 1 <= case.uplinks <= 2
            assert 2 <= case.prefixes <= 4
            assert (case.straggler_index >= 0) == (case.straggler_lag > 0)

    def test_plan_is_deterministic(self):
        case = ScenarioFuzzer(4).case(0)
        assert plan_case(case) == plan_case(case)


class TestExecutionDigest:
    def test_same_plan_same_digest(self):
        plan = plan_case(FuzzCase(seed=11, routers=4, uplinks=1, prefixes=2,
                                  churn_events=3, flap_events=1))
        assert execution_digest(execute_plan(plan)) == execution_digest(
            execute_plan(plan)
        )

    def test_different_plans_different_digest(self):
        small = FuzzCase(seed=11, routers=4, uplinks=1, prefixes=2,
                         churn_events=3, flap_events=0)
        other = FuzzCase(seed=12, routers=4, uplinks=1, prefixes=2,
                         churn_events=3, flap_events=0)
        assert execution_digest(execute_plan(plan_case(small))) != (
            execution_digest(execute_plan(plan_case(other)))
        )


class TestOracles:
    def test_registry_has_the_seven_oracles(self):
        assert list(ORACLES) == [
            "snapshot-consistency",
            "hbg-distributed",
            "hbg-indexed-equivalence",
            "whatif-replay",
            "provenance-rollback",
            "verify-incremental-equivalence",
            "replay-determinism",
        ]

    @pytest.mark.parametrize("index", range(5))
    def test_all_oracles_pass_on_seeded_cases(self, index):
        # A slice of the seed-0 campaign; `repro fuzz --cases 25` in CI
        # covers the quantity, this keeps a sample inside tier-1.
        plan = plan_case(ScenarioFuzzer(0).case(index))
        ctx = OracleContext(plan)
        for name, oracle_fn in ORACLES.items():
            verdict = oracle_fn(ctx)
            assert verdict.ok, f"{name} failed on case {index}: {verdict.detail}"
            assert verdict.oracle == name


def _planted_oracle(ctx):
    """Fails iff the workload contains an inverting misconfig."""
    bad = [
        e
        for e in ctx.plan.events
        if e.kind == "misconfig" and e.local_pref < 100
    ]
    return OracleVerdict(
        oracle="planted",
        ok=not bad,
        detail=f"{len(bad)} inverting misconfig(s)",
        checked=len(ctx.plan.events),
    )


class TestShrinker:
    def test_converges_on_planted_bug(self):
        case = FuzzCase(seed=42, routers=5, uplinks=2, prefixes=3,
                        churn_events=12, flap_events=2, misconfig_rounds=2)
        plan = plan_case(case)
        assert not _planted_oracle(OracleContext(plan)).ok
        result = shrink(plan, _planted_oracle)
        assert not result.verdict.ok
        assert result.shrunk_events <= 0.25 * result.original_events
        assert all(
            e.kind == "misconfig" and e.local_pref < 100
            for e in result.plan.events
        )

    def test_shrunk_plan_replays_to_same_failure(self, tmp_path):
        case = FuzzCase(seed=42, routers=5, uplinks=2, prefixes=3,
                        churn_events=12, flap_events=2, misconfig_rounds=2)
        result = shrink(plan_case(case), _planted_oracle)
        artifact = Artifact(
            oracle="planted", expect="fail", plan=result.plan,
            detail=result.verdict.detail, shrink=result.to_dict(),
        )
        path = write_artifact(artifact, tmp_path)
        loaded = load_artifact(path)
        assert loaded.plan == result.plan
        replayed = _planted_oracle(OracleContext(loaded.plan))
        assert not replayed.ok
        assert replayed.detail == result.verdict.detail

    def test_rejects_passing_plan(self):
        plan = plan_case(FuzzCase(seed=1, routers=4, uplinks=1, prefixes=2,
                                  churn_events=2, misconfig_rounds=0))
        with pytest.raises(ValueError, match="does not fail"):
            shrink(plan, _planted_oracle)

    def test_respects_oracle_run_budget(self):
        case = FuzzCase(seed=42, routers=5, uplinks=2, prefixes=3,
                        churn_events=12, flap_events=2, misconfig_rounds=2)
        result = shrink(plan_case(case), _planted_oracle, max_oracle_runs=3)
        assert result.oracle_runs <= 3


class TestArtifacts:
    def _plan(self):
        return plan_case(FuzzCase(seed=7, routers=4, uplinks=1, prefixes=2,
                                  churn_events=2, flap_events=0))

    def test_round_trip(self, tmp_path):
        artifact = Artifact(
            oracle="replay-determinism", expect="pass", plan=self._plan()
        )
        path = write_artifact(artifact, tmp_path)
        loaded = load_artifact(path)
        assert loaded.oracle == artifact.oracle
        assert loaded.expect == artifact.expect
        assert loaded.plan == artifact.plan

    def test_corrupt_json_raises_value_error(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="cannot read artifact"):
            load_artifact(bad)

    def test_wrong_schema_raises_value_error(self, tmp_path):
        bad = tmp_path / "schema.json"
        bad.write_text(json.dumps({"schema": 99}), encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported artifact schema"):
            load_artifact(bad)

    def test_missing_field_raises_value_error(self, tmp_path):
        bad = tmp_path / "missing.json"
        bad.write_text(
            json.dumps({"schema": 1, "oracle": "x", "expect": "pass"}),
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="missing"):
            load_artifact(bad)

    def test_bad_expect_raises_value_error(self, tmp_path):
        artifact = Artifact(
            oracle="replay-determinism", expect="pass", plan=self._plan()
        )
        data = artifact.to_dict()
        data["expect"] = "maybe"
        bad = tmp_path / "expect.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValueError, match="expect"):
            load_artifact(bad)

    def test_iter_artifacts_on_missing_dir(self, tmp_path):
        assert list(iter_artifacts(tmp_path / "nope")) == []


class TestRunner:
    def test_report_is_deterministic(self):
        kwargs = dict(seed=0, cases=2)
        first = FuzzRunner().run(**kwargs).to_dict()
        second = FuzzRunner().run(**kwargs).to_dict()
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
        assert first["failures"] == 0

    def test_rejects_unknown_oracle(self):
        with pytest.raises(ValueError, match="unknown oracle"):
            FuzzRunner(oracle_names=["nope"])

    def test_oracle_subset_runs_only_those(self):
        report = FuzzRunner(oracle_names=["replay-determinism"]).run(
            seed=0, cases=1
        )
        assert report.oracles == ["replay-determinism"]
        assert [v.oracle for v in report.results[0].verdicts] == [
            "replay-determinism"
        ]

    def test_planted_failure_produces_shrunk_artifact(self, tmp_path):
        # Register a throwaway oracle, fuzz one case known to contain
        # an inverting misconfig, and check the full failure pipeline:
        # detect -> shrink -> persist -> replay.
        name = "planted-test-oracle"

        def stamped(ctx):
            verdict = _planted_oracle(ctx)
            verdict.oracle = name
            return verdict

        ORACLES[name] = stamped
        try:
            runner = FuzzRunner(
                oracle_names=[name], artifacts_dir=tmp_path
            )
            report = runner.run(seed=42, cases=8)
            failing = report.failures
            assert failing, "expected at least one inverting misconfig"
            result = failing[0]
            assert result.artifact_path is not None
            assert result.shrink is not None
            assert result.shrink["shrunk_events"] <= result.events
            loaded = load_artifact(iter_artifacts(tmp_path).__next__())
            assert loaded.expect == "fail"
            assert not _planted_oracle(OracleContext(loaded.plan)).ok
        finally:
            del ORACLES[name]

    def test_minutes_budget_skips_remaining_cases(self):
        report = FuzzRunner(
            oracle_names=["replay-determinism"]
        ).run(seed=0, cases=3, minutes=0.0)
        assert report.cases == 0
        assert report.budget_skipped == 3


@pytest.mark.parametrize(
    "path",
    sorted(
        os.path.join(REGRESSIONS, name)
        for name in os.listdir(REGRESSIONS)
        if name.endswith(".json")
    ),
    ids=os.path.basename,
)
def test_regression_fixture_replays(path):
    """Every committed artifact must replay to its recorded outcome."""
    artifact = load_artifact(Path(path))
    verdict = artifact_matches_expectation(artifact)
    assert verdict.oracle == artifact.oracle
