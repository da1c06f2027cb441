"""repro.lint — AST-based static analysis for this repository.

The paper's happens-before inference is only trustworthy if the
trace-producing layers are strictly deterministic (§4.2); this
package machine-checks that property — plus the architectural
layering, instrumentation, and concurrency invariants — on every
commit, via ``repro lint`` and the CI lint jobs.

Two analysis modes:

* **fast** (default) — single-pass per-file syntactic rules plus the
  cross-file import graph.  Runs on every edit.
* **deep** (``repro lint --deep``) — additionally builds a
  whole-program symbol table and call graph
  (:mod:`repro.lint.callgraph`), runs fixpoint dataflow analyses
  (:mod:`repro.lint.dataflow`), and caches results by content hash
  (:mod:`repro.lint.cache`) so warm runs cost only the fast pass.

Rule families (full catalogue in ``docs/STATIC_ANALYSIS.md``):

* **DET** — determinism: no wall clocks or global RNG in the
  simulator/capture/HBR layers; set iteration must be sorted.
  **DET100** (deep) extends this interprocedurally: a function in a
  deterministic package is flagged if any call chain reaches a
  nondeterministic sink, with the chain as evidence.
* **CONC** (deep) — concurrency: **CONC001** fork-safety of
  ``DistributedHbg.build_all``'s worker pool (worker-reachable code
  must not mutate process-global state), **CONC002** thread-safety of state reachable
  from the live-metrics HTTP handler, **CONC003** module globals
  written from multiple pipeline stages.
* **LAY** — layering: imports must follow
  ``net → capture → protocols → hbr → {snapshot, verify} → repair →
  cli``; package import cycles are fatal.
* **OBS** — instrumentation: pipeline-stage entry points must carry
  a :mod:`repro.obs` span or metric.
* **HYG** — hygiene: mutable default args, bare ``except``,
  ``assert`` in shipped source, unused suppression pragmas (HYG004).

Programmatic use::

    from repro.lint import LintRunner, sort_findings

    result = LintRunner(deep=True).run_paths(["src/repro"])
    for finding in sort_findings(result.findings):
        print(finding.location, finding.rule, finding.message)
        for hop in finding.evidence:
            print("   ", hop)
"""

from repro.lint import baseline  # noqa: F401  (re-exported submodule)
from repro.lint.core import (  # noqa: F401
    RULE_REGISTRY,
    FileContext,
    Finding,
    Rule,
    Severity,
    default_rules,
    register,
)
from repro.lint.engine import (  # noqa: F401
    LintResult,
    LintRunner,
    discover_files,
    module_name_for,
    sort_findings,
)

__all__ = [
    "FileContext",
    "Finding",
    "LintResult",
    "LintRunner",
    "Rule",
    "RULE_REGISTRY",
    "Severity",
    "baseline",
    "default_rules",
    "discover_files",
    "module_name_for",
    "register",
    "sort_findings",
]
