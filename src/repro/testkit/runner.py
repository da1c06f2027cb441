"""The fuzz campaign driver behind ``repro fuzz``.

:class:`FuzzRunner` turns a (seed, case-count) pair into a
:class:`FuzzReport`: generate cases, execute each one once, run every
requested oracle against it, shrink the first failure per case, and
persist the shrunk plan as a regression artifact.  The report itself
contains only deterministic content — counts, per-case digests, and
a combined campaign digest — so two runs of the same seed produce
byte-identical reports; wall-clock timings live exclusively in the
obs metrics stream.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from repro import obs
from repro.testkit.artifacts import Artifact, write_artifact
from repro.testkit.case import CasePlan, FuzzCase
from repro.testkit.execution import execution_digest, plan_case
from repro.testkit.fuzzer import ScenarioFuzzer
from repro.testkit.oracles import (
    ORACLES,
    OracleContext,
    OracleVerdict,
    default_oracle_names,
)
from repro.testkit.shrinker import ShrinkResult, shrink


@dataclass
class CaseResult:
    """Everything the report keeps about one fuzzed case."""

    index: int
    case: FuzzCase
    events: int
    digest: str
    verdicts: List[OracleVerdict]
    artifact_path: Optional[str] = None
    shrink: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def to_dict(self) -> dict:
        data = {
            "index": self.index,
            "case": self.case.to_dict(),
            "events": self.events,
            "digest": self.digest,
            "ok": self.ok,
            "verdicts": [v.to_dict() for v in self.verdicts],
        }
        if self.artifact_path is not None:
            data["artifact"] = self.artifact_path
        if self.shrink is not None:
            data["shrink"] = self.shrink
        return data


@dataclass
class FuzzReport:
    """Deterministic summary of one fuzz campaign."""

    seed: int
    oracles: List[str]
    results: List[CaseResult] = field(default_factory=list)
    #: Cases planned but skipped because the --minutes budget ran out.
    budget_skipped: int = 0

    @property
    def cases(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> List[CaseResult]:
        return [r for r in self.results if not r.ok]

    @property
    def campaign_digest(self) -> str:
        blob = "\n".join(r.digest for r in self.results)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "oracles": list(self.oracles),
            "cases": self.cases,
            "failures": len(self.failures),
            "budget_skipped": self.budget_skipped,
            "campaign_digest": self.campaign_digest,
            "results": [r.to_dict() for r in self.results],
        }

    def account_bytes(self, audit: bool = False) -> int:
        """Resident bytes of the case corpus (resource-ledger callback)."""
        from repro.obs import resources

        return resources.combined_sizeof(
            (self.results,),
            sample=None if audit else obs.get_ledger().sample,
        )


class FuzzRunner:
    """Run fuzz campaigns and mint regression artifacts."""

    def __init__(
        self,
        oracle_names: Optional[Sequence[str]] = None,
        artifacts_dir: Optional[Path] = None,
        shrink_failures: bool = True,
        max_shrink_runs: int = 200,
    ) -> None:
        names = (
            list(oracle_names)
            if oracle_names is not None
            else default_oracle_names()
        )
        unknown = [n for n in names if n not in ORACLES]
        if unknown:
            raise ValueError(f"unknown oracle(s): {', '.join(sorted(unknown))}")
        self.oracle_names = names
        self.artifacts_dir = artifacts_dir
        self.shrink_failures = shrink_failures
        self.max_shrink_runs = max_shrink_runs

    def run(
        self,
        seed: int,
        cases: int,
        minutes: Optional[float] = None,
    ) -> FuzzReport:
        """Fuzz ``cases`` cases from ``seed``; stop early on budget.

        ``minutes`` bounds wall-clock spend: once exceeded, remaining
        cases are skipped and counted in ``report.budget_skipped``.
        The cases that *do* run are unaffected by the budget, so a
        truncated campaign is a prefix of the full one.
        """
        registry = obs.get_registry()
        tracer = obs.get_tracer()
        fuzzer = ScenarioFuzzer(seed)
        report = FuzzReport(seed=seed, oracles=list(self.oracle_names))
        ledger = obs.get_ledger()
        if ledger.enabled:
            ledger.register("testkit.corpus", report)
        deadline = (
            time.monotonic() + minutes * 60.0 if minutes is not None else None
        )
        campaign_watch = registry.stopwatch()
        for index in range(cases):
            if deadline is not None and time.monotonic() >= deadline:
                report.budget_skipped = cases - index
                registry.counter("testkit.budget_skipped_total").inc(
                    report.budget_skipped
                )
                break
            with tracer.span("testkit.case", index=str(index)):
                result = self._run_case(index, fuzzer.case(index), registry)
            report.results.append(result)
            registry.counter("testkit.cases_total").inc()
            if not result.ok:
                for verdict in result.verdicts:
                    if not verdict.ok:
                        registry.counter(
                            "testkit.oracle_failures_total",
                            oracle=verdict.oracle,
                        ).inc()
        elapsed = campaign_watch.elapsed()
        if elapsed > 0:
            registry.gauge("testkit.cases_per_second").set(
                report.cases / elapsed
            )
        # Oracle cases stream verdicts too; make sure a campaign ends
        # with the ledger durable rather than waiting on flush_every.
        verdict_log = obs.get_verdicts()
        if verdict_log.enabled:
            verdict_log.flush()
        return report

    def _run_case(self, index, case, registry) -> CaseResult:
        watch = registry.stopwatch()
        plan = plan_case(case)
        context = OracleContext(plan)
        verdicts = [ORACLES[name](context) for name in self.oracle_names]
        result = CaseResult(
            index=index,
            case=case,
            events=len(plan.events),
            digest=execution_digest(context.shared),
            verdicts=verdicts,
        )
        failure = next((v for v in verdicts if not v.ok), None)
        if failure is not None:
            self._capture_failure(result, plan, failure, registry)
        registry.histogram("testkit.case_seconds").observe(watch.elapsed())
        return result

    def _capture_failure(
        self,
        result: CaseResult,
        plan: CasePlan,
        failure: OracleVerdict,
        registry,
    ) -> None:
        shrunk_plan = plan
        detail = failure.detail
        shrink_meta: Optional[dict] = None
        if self.shrink_failures:
            try:
                outcome: ShrinkResult = shrink(
                    plan,
                    ORACLES[failure.oracle],
                    max_oracle_runs=self.max_shrink_runs,
                )
            except ValueError:
                # Flaky-by-construction failure that no longer
                # reproduces on a fresh context: keep the full plan.
                pass
            else:
                shrunk_plan = outcome.plan
                detail = outcome.verdict.detail
                shrink_meta = outcome.to_dict()
                registry.histogram("testkit.shrink_oracle_runs").observe(
                    outcome.oracle_runs
                )
                result.shrink = shrink_meta
        if self.artifacts_dir is not None:
            artifact = Artifact(
                oracle=failure.oracle,
                expect="fail",
                plan=shrunk_plan,
                detail=detail,
                shrink=shrink_meta,
            )
            path = write_artifact(artifact, self.artifacts_dir)
            result.artifact_path = str(path)
            registry.counter("testkit.artifacts_written_total").inc()
