"""OBS — instrumentation-coverage rules.

PR 1 instrumented every pipeline stage with :mod:`repro.obs`; the
``repro stats --require`` CI gate then catches *silently dead*
metric sections at runtime.  OBS001 closes the static half of that
loop: every function in the ``SITES`` catalogue below must keep
referencing the *witness* of what it emits — a span or metric, a
resource-ledger registration, a verdict-ledger record — so a refactor
cannot drop instrumentation without either updating the catalogue or
failing the lint pass.  ``tests/test_resources.py`` and
``tests/test_verdicts.py`` additionally assert that what the
catalogue says is emitted and ``KNOWN_COMPONENTS`` / ledger ``KINDS``
cannot drift apart.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

from repro.lint.core import FileContext, Finding, Rule, Severity, register


class Site(NamedTuple):
    """One function that must stay instrumented."""

    module: str
    qualname: str
    #: Key into ``_WITNESSES``: which bound name proves it.
    witness: str
    #: What it must emit: a resource-ledger component, a verdict kind
    #: ("" for plain spans/metrics).
    emits: str = ""


class _Witness(NamedTuple):
    #: Names whose presence in the function body counts.
    names: frozenset
    #: How findings call the site.
    label: str
    #: ``"'{qualname}' " + missing.format(emits=...)`` is the finding.
    missing: str


#: The canonical idiom binds ``registry = obs.get_registry()`` (or uses
#: ``obs.span`` / ``@obs.traced`` / ``obs.Stopwatch``), so a reference
#: to ``obs`` — or to an already-bound registry/tracer — witnesses a
#: metric.  The other two are stricter: every site follows
#: ``ledger = obs.get_ledger()`` (``verdicts = obs.get_verdicts()``) +
#: one ``.enabled`` guard, so the bound object itself is the witness
#: and a metrics-only ``obs`` reference must NOT satisfy it.
_WITNESSES: Dict[str, _Witness] = {
    "obs": _Witness(
        frozenset({"obs", "registry", "tracer"}),
        "stage entry point",
        "has no repro.obs instrumentation (span, counter, histogram or "
        "stopwatch)",
    ),
    "ledger": _Witness(
        frozenset({"ledger"}),
        "ledger site",
        "does not reference the resource ledger (must register component "
        "'{emits}'; bind it via obs.get_ledger())",
    ),
    "verdicts": _Witness(
        frozenset({"verdicts"}),
        "verdict site",
        "does not reference the verdict ledger (must record kind "
        "'{emits}'; bind it via obs.get_verdicts())",
    ),
}

#: The one catalogue.  Keep in sync with docs/OBSERVABILITY.md.  The
#: drift tests filter it by witness: every component in
#: :data:`repro.obs.resources.KNOWN_COMPONENTS` and every kind in
#: :data:`repro.obs.ledger.KINDS` has at least one site.
SITES: Sequence[Site] = (
    # -- pipeline-stage entry points: a span or metric ------------------
    Site("repro.net.simulator", "Simulator.run", "obs"),
    Site("repro.capture.collector", "Collector.ingest", "obs"),
    Site("repro.hbr.inference", "InferenceEngine.build_graph", "obs"),
    Site("repro.hbr.inference", "StreamingInference.observe", "obs"),
    Site("repro.hbr.distributed", "DistributedHbg.build_all", "obs"),
    Site("repro.hbr.distributed", "DistributedHbg.merged_graph", "obs"),
    Site("repro.snapshot.base", "DataPlaneSnapshot.from_fib_events", "obs"),
    Site("repro.snapshot.consistent", "ConsistentSnapshotter.snapshot", "obs"),
    Site("repro.verify.verifier", "DataPlaneVerifier.verify", "obs"),
    Site("repro.verify.incremental", "IncrementalVerifier.apply", "obs"),
    Site("repro.repair.provenance", "ProvenanceTracer.trace", "obs"),
    Site("repro.core.pipeline", "IntegratedControlPlane._guard", "obs"),
    Site("repro.testkit.runner", "FuzzRunner.run", "obs"),
    # -- resource-ledger registrations, by component --------------------
    Site("repro.hbr.graph", "HappensBeforeGraph.__init__", "ledger", "hbr.graph"),
    # Registration moved out of __init__ into the explicit track()
    # opt-in so forked shard workers can build untracked indices
    # (CONC001 — a worker-side registration dies with the fork).
    Site("repro.hbr.index", "EventIndex.track", "ledger", "hbr.index"),
    Site(
        "repro.snapshot.consistent", "ConsistentSnapshotter.__init__",
        "ledger", "snapshot.closure_cache",
    ),
    Site("repro.obs.ledger", "VerdictLedger.__init__", "ledger", "obs.verdicts"),
    Site("repro.testkit.runner", "FuzzRunner.run", "ledger", "testkit.corpus"),
    # -- verdict-ledger records, by kind --------------------------------
    Site("repro.verify.verifier", "DataPlaneVerifier.verify", "verdicts", "snapshot"),
    Site(
        "repro.verify.incremental", "IncrementalVerifier.apply", "verdicts",
        "incremental",
    ),
    Site("repro.repair.rollback", "RepairEngine.repair", "verdicts", "rollback"),
)


def _collect_functions(
    tree: ast.AST,
) -> Dict[str, ast.AST]:
    """Map ``Class.method`` / ``function`` qualnames to their nodes."""
    found: Dict[str, ast.AST] = {}

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                found[qualname] = child
                walk(child, f"{qualname}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(tree, "")
    return found


def _references_names(func: ast.AST, names: frozenset) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and node.id in names:
            return True
    return False


@register
class InstrumentationRule(Rule):
    """OBS001: catalogued sites must reference their witness."""

    name = "OBS001"
    severity = Severity.ERROR
    description = (
        "pipeline-stage entry point carries no repro.obs span/metric "
        "(or the SITES catalogue is stale)"
    )
    # No per-node work: the whole check runs over the parsed tree once
    # per file, and only for modules in the catalogue.
    node_types = ()

    def __init__(self, sites: Optional[Sequence[Site]] = None) -> None:
        self.sites = SITES if sites is None else sites
        self._modules = frozenset(site.module for site in self.sites)

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module in self._modules

    def finish_file(self, ctx: FileContext) -> Optional[Iterable[Finding]]:
        functions = _collect_functions(ctx.tree)
        findings: List[Finding] = []
        for site in self.sites:
            if site.module != ctx.module:
                continue
            witness = _WITNESSES[site.witness]
            func = functions.get(site.qualname)
            if func is None:
                findings.append(
                    ctx.finding(
                        self,
                        ctx.tree,
                        f"configured {witness.label} '{site.qualname}' not "
                        "found; update SITES in "
                        "repro/lint/rules/obs_rules.py",
                        severity=Severity.ERROR,
                    )
                )
            elif not _references_names(func, witness.names):
                findings.append(
                    ctx.finding(
                        self,
                        func,
                        f"{witness.label} '{site.qualname}' "
                        + witness.missing.format(emits=site.emits),
                    )
                )
        return findings
