"""Regression artifacts: shrunk failures persisted as JSON.

When an oracle fails, the runner shrinks the workload and writes one
self-contained JSON file under ``tests/fixtures/fuzz_regressions/``.
The artifact carries the full shrunk plan plus an ``expect`` field:

* ``"fail"`` — the oracle still fails on this plan; freshly written
  artifacts start here so the bug can be triaged.
* ``"pass"`` — the bug was fixed; the artifact stays as a committed
  regression fixture and replay asserts the oracle now passes.

The pytest collector in ``tests/test_testkit.py`` replays every
``*.json`` in the fixtures directory and asserts the recorded
expectation, so a fixed bug that regresses fails tier-1 immediately.

Schema history:

* v1 — oracle, expect, detail, case, events, probe_times, shrink.
* v2 — added an optional ``trace`` block: a tail of recorded pipeline
  events from the *original* (pre-shrink) failing run.  No artifact
  is written with it any more: the shrunk plan replays the run, and
  its HBG and verdicts are the record.  The loader ignores a ``trace``
  block if one is present.  v1 and v2 fixtures remain loadable
  forever.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from repro.testkit.case import CasePlan
from repro.testkit.oracles import ORACLES, OracleContext, OracleVerdict

SCHEMA_VERSION = 2
#: Every schema this loader still understands.
SUPPORTED_SCHEMAS = (1, 2)


@dataclass
class Artifact:
    """One persisted (usually shrunk) oracle failure."""

    oracle: str
    expect: str
    plan: CasePlan
    detail: str = ""
    shrink: Optional[dict] = None

    def to_dict(self) -> dict:
        plan = self.plan.to_dict()
        data = {
            "schema": SCHEMA_VERSION,
            "tool": "repro.testkit",
            "oracle": self.oracle,
            "expect": self.expect,
            "detail": self.detail,
            "case": plan["case"],
            "events": plan["events"],
            "probe_times": plan["probe_times"],
        }
        if self.shrink is not None:
            data["shrink"] = self.shrink
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Artifact":
        if not isinstance(data, dict):
            raise ValueError("artifact is not a JSON object")
        if data.get("schema") not in SUPPORTED_SCHEMAS:
            raise ValueError(
                f"unsupported artifact schema {data.get('schema')!r} "
                f"(expected one of "
                f"{', '.join(str(s) for s in SUPPORTED_SCHEMAS)})"
            )
        for key in ("oracle", "expect", "case", "events"):
            if key not in data:
                raise ValueError(f"artifact is missing {key!r}")
        if data["expect"] not in ("pass", "fail"):
            raise ValueError(
                f"artifact expect must be 'pass' or 'fail', "
                f"got {data['expect']!r}"
            )
        plan = CasePlan.from_dict(
            {
                "case": data["case"],
                "events": data["events"],
                "probe_times": data.get("probe_times", ()),
            }
        )
        return cls(
            oracle=str(data["oracle"]),
            expect=str(data["expect"]),
            plan=plan,
            detail=str(data.get("detail", "")),
            shrink=data.get("shrink"),
        )


def write_artifact(artifact: Artifact, directory: Path) -> Path:
    """Persist ``artifact`` under a content-derived stable name."""
    directory.mkdir(parents=True, exist_ok=True)
    name = (
        f"{artifact.oracle}-seed{artifact.plan.case.seed}-"
        f"{len(artifact.plan.events)}ev.json"
    )
    path = directory / name
    path.write_text(
        json.dumps(artifact.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def load_artifact(path: Path) -> Artifact:
    """Load one artifact; raises ValueError on any malformed input."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read artifact {path}: {exc}") from exc
    try:
        return Artifact.from_dict(data)
    except ValueError as exc:
        raise ValueError(f"bad artifact {path}: {exc}") from exc


def iter_artifacts(directory: Path) -> Iterator[Path]:
    """All artifact files in ``directory``, stably ordered."""
    if not directory.is_dir():
        return iter(())
    return iter(sorted(directory.glob("*.json")))


def replay_artifact(artifact: Artifact) -> OracleVerdict:
    """Re-run the artifact's oracle against its recorded plan."""
    oracle = ORACLES.get(artifact.oracle)
    if oracle is None:
        raise ValueError(f"artifact names unknown oracle {artifact.oracle!r}")
    return oracle(OracleContext(artifact.plan))


def artifact_matches_expectation(artifact: Artifact) -> OracleVerdict:
    """Replay and assert the recorded expectation.

    Returns the verdict on success; raises AssertionError when the
    replayed outcome contradicts ``expect`` (a regressed fixture or a
    bug that silently went away).
    """
    verdict = replay_artifact(artifact)
    expected_ok = artifact.expect == "pass"
    if verdict.ok != expected_ok:
        raise AssertionError(
            f"artifact for oracle {artifact.oracle!r} expected "
            f"{artifact.expect!r} but replay "
            f"{'passed' if verdict.ok else 'failed'}: {verdict.detail}"
        )
    return verdict
