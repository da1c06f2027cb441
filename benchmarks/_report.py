"""Shared reporting helpers for the benchmark suite.

Every benchmark regenerates one of the paper's figures (or checks one
of its quantitative claims) and emits the rows both to stdout and to
``benchmarks/reports/<experiment>.txt`` so EXPERIMENTS.md can cite a
durable artifact.

:func:`emit_json` additionally writes machine-readable
``benchmarks/reports/BENCH_<experiment>.json`` trajectories (wall
clock plus the full :mod:`repro.obs` metrics document) so future PRs
have a perf baseline to diff against.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, List, Mapping, Sequence

from repro.obs.export import table_lines

REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")


def emit(experiment: str, lines: Iterable[str]) -> str:
    """Print and persist one experiment's report; returns the path."""
    os.makedirs(REPORT_DIR, exist_ok=True)
    path = os.path.join(REPORT_DIR, f"{experiment}.txt")
    text = "\n".join(lines)
    with open(path, "w") as handle:
        handle.write(text + "\n")
    print(f"\n===== {experiment} =====")
    print(text)
    return path


def emit_json(experiment: str, payload: dict) -> str:
    """Persist a machine-readable benchmark trajectory; returns the path."""
    os.makedirs(REPORT_DIR, exist_ok=True)
    path = os.path.join(REPORT_DIR, f"BENCH_{experiment}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")
    return path


def table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> List[str]:
    """Format an aligned text table (delegates to repro.obs.export)."""
    return table_lines(headers, rows)


def shape_line(claims: Mapping[str, bool]) -> str:
    """The "paper shape" sentence, judged from the measured columns.

    ``claims`` maps each clause of the sentence to whether the rows
    above it bear the clause out; the line ends in ``OK`` only when
    every clause holds, and otherwise names the ones that do not.
    """
    failed = [claim for claim, holds in claims.items() if not holds]
    verdict = "OK" if not failed else "MISMATCH: " + "; ".join(failed)
    return "paper shape: " + "; ".join(claims) + " — " + verdict
