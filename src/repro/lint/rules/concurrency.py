"""CONC — whole-program fork/thread safety rules.

The distributed HBG build (``DistributedHbg.build_all(workers=N)`` in
:mod:`repro.hbr.distributed`) forks worker processes; code on another
thread — a ``do_*`` method of an HTTP-handler subclass, a
``threading.Thread`` target, an executor submission — runs while the
owner thread keeps mutating observability state (the package starts
no threads of its own; a scrape handler calling ``render_prometheus``
would be one).  Both concurrency boundaries have invisible failure
modes a per-file pass cannot see:

* **CONC001** — code reachable from a *fork worker* must not mutate
  state the parent will read back implicitly: writes to module-level
  globals vanish at join, metrics/ledger emissions land in the
  forked copy of the registry and are silently lost, and a lock
  acquired in a worker may have been captured mid-held from the
  parent.  Workers communicate through their return value, nothing
  else.
* **CONC002** — code reachable from an *HTTP handler thread* must
  only touch shared state through internally-synchronized APIs
  (:data:`SELF_SYNCHRONIZED`) or on a lock-serialized path.  The
  distinction is two-tier: the process-global
  :class:`~repro.obs.metrics.MetricsRegistry` is mutated by the owner
  thread *without* any server lock, so holding such a lock is not
  enough — the registry itself must synchronize; objects a server
  *owns* (the resource ledger) are safe to touch from a
  handler only under the server's lock, so a locked path suffices.
* **CONC003** — a module-level mutable object written by functions
  reachable from two or more different pipeline packages is shared
  mutable state with no owner; once any stage goes concurrent the
  writes race.

Every finding carries the call chain from the concurrency entry point
to the offending site as evidence.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.core import Finding, Rule, Severity, register
from repro.lint.dataflow import ReachabilityAnalysis, reached_global_writes

#: Internal packages whose own functions are never *flagged* (obs is
#: the sanctioned process-global layer — its thread-safety contract is
#: what CONC002's catalogue encodes; lint is tooling).
_TOOL_MODULES = ("repro.lint.",)

#: Observability APIs that mutate process-global state; reaching one
#: from a fork worker silently drops the write at join.
OBS_MUTATORS = frozenset(
    {
        "repro.obs.metrics.MetricsRegistry.counter",
        "repro.obs.metrics.MetricsRegistry.gauge",
        "repro.obs.metrics.MetricsRegistry.histogram",
        "repro.obs.metrics.MetricsRegistry.clear",
        "repro.obs.metrics.Counter.inc",
        "repro.obs.metrics.Gauge.set",
        "repro.obs.metrics.Gauge.read_from",
        "repro.obs.metrics.Gauge.inc",
        "repro.obs.metrics.Gauge.dec",
        "repro.obs.metrics.Histogram.observe",
        "repro.obs.metrics.Bound.on",
        "repro.obs.metrics.Bound.read_through",
        "repro.obs.resources.ResourceLedger.register",
        "repro.obs.resources.ResourceLedger.refresh",
    }
)

#: Registry entry points whose *implementation* is internally
#: synchronized (a lock inside :class:`MetricsRegistry` — added when
#: this analyzer first flagged the unsynchronized iteration).  Calls
#: to anything registry-shaped outside this set from a handler thread
#: are CONC002 findings even on a lock-guarded path, because the
#: owner thread mutates the registry without that lock.
SELF_SYNCHRONIZED = frozenset(
    {
        "repro.obs.metrics.MetricsRegistry.counter",
        "repro.obs.metrics.MetricsRegistry.gauge",
        "repro.obs.metrics.MetricsRegistry.histogram",
        "repro.obs.metrics.MetricsRegistry.stopwatch",
        "repro.obs.metrics.MetricsRegistry.counters",
        "repro.obs.metrics.MetricsRegistry.gauges",
        "repro.obs.metrics.MetricsRegistry.histograms",
        "repro.obs.metrics.MetricsRegistry.all_metrics",
        "repro.obs.metrics.MetricsRegistry.sections",
        "repro.obs.metrics.MetricsRegistry.clear",
        "repro.obs.metrics.MetricsRegistry.__len__",
    }
)

#: Process-global shared APIs: a handler thread may only call the
#: :data:`SELF_SYNCHRONIZED` subset of these, lock or no lock.
PROCESS_GLOBAL_PREFIXES = ("repro.obs.metrics.MetricsRegistry.",)

#: Mutators on server-*owned* objects: safe from a handler thread iff
#: every path to the call runs under the owner's lock (the serialized
#: render path).
OWNED_MUTATORS = frozenset(
    {
        "repro.obs.resources.ResourceLedger.refresh",
        "repro.obs.resources.ResourceLedger.register",
    }
)

#: Pipeline packages for CONC003's "written from >= 2 stages" test.
PIPELINE_PACKAGES = frozenset(
    {
        "net",
        "protocols",
        "capture",
        "hbr",
        "snapshot",
        "verify",
        "repair",
        "whatif",
        "core",
        "analysis",
        "scenarios",
        "testkit",
        "cli",
    }
)


def _is_tool(module: str) -> bool:
    return module.startswith(_TOOL_MODULES)


def _package_of(module: str) -> str:
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    return ""


def _fn_finding(
    rule: Rule,
    project,
    qname: str,
    message: str,
    evidence: Tuple[str, ...],
) -> Finding:
    fn = project.functions[qname]
    return Finding(
        rule=rule.name,
        severity=rule.severity,
        path=fn.path,
        module=fn.module,
        line=fn.line,
        col=0,
        message=message,
        evidence=evidence,
    )


@register
class ForkSafetyRule(Rule):
    """CONC001: fork workers communicate via return values only."""

    name = "CONC001"
    severity = Severity.ERROR
    description = (
        "fork-worker-reachable code mutates state that does not survive "
        "the join: module globals, the process-global obs registry / "
        "ledger, or holds locks captured across the fork"
    )
    needs_project = True

    def finish_whole_program(self, project) -> Optional[Iterable[Finding]]:
        roots = project.fork_roots()
        if not roots:
            return None
        entries = [worker for worker, _spawner, _line in roots]
        spawners: Dict[str, str] = {}
        for worker, spawner, _line in roots:
            spawners.setdefault(worker, spawner)

        def evidence_for(qname: str) -> Tuple[str, ...]:
            """reach evidence, prefixed with the fork fan-out site."""
            chain = reach.chains.get(qname)
            hops = reach.evidence(qname)
            spawner = spawners.get(chain[0]) if chain else None
            if spawner is not None:
                return (f"forked by {project.describe(spawner)}",) + hops
            return hops

        reach = ReachabilityAnalysis(project, entries)
        findings: List[Finding] = []
        seen: Set[Tuple[str, str]] = set()

        # (a) module-global writes are lost when the worker exits.
        for global_q, writer, how, _line in reached_global_writes(project, reach):
            if _is_tool(project.functions[writer].module):
                continue
            key = (writer, f"g:{global_q}")
            if key in seen:
                continue
            seen.add(key)
            findings.append(
                _fn_finding(
                    self,
                    project,
                    writer,
                    f"'{writer}' {how}s module global '{global_q}' but is "
                    "reachable from a fork worker; the write dies with the "
                    "worker process — return the data instead",
                    evidence_for(writer)
                    + (f"-> writes {project.describe(global_q)}",),
                )
            )

        # (b) obs emissions land in the forked registry copy.
        for qname in reach.reachable():
            fn = project.functions.get(qname)
            if fn is None or _is_tool(fn.module) or fn.module.startswith("repro.obs"):
                continue
            for edge in project.callees(qname):
                if edge.dst not in OBS_MUTATORS:
                    continue
                key = (qname, f"o:{edge.dst}")
                if key in seen:
                    continue
                seen.add(key)
                findings.append(
                    _fn_finding(
                        self,
                        project,
                        qname,
                        f"'{qname}' emits into process-global observability "
                        f"state ({edge.dst.rsplit('.', 2)[-2]}."
                        f"{edge.dst.rsplit('.', 1)[-1]}) but is reachable "
                        "from a fork worker; the sample lands in the forked "
                        "copy and is silently lost at join — aggregate in "
                        "the return value and emit in the parent",
                        evidence_for(qname)
                        + (f"-> calls {project.describe(edge.dst)}",),
                    )
                )

        # (c) lock usage inside a worker: the forked lock may have been
        # captured while held by a parent thread that no longer exists.
        for qname in reach.reachable():
            fn = project.functions.get(qname)
            if fn is None or _is_tool(fn.module):
                continue
            if any(site.locked for site in fn.calls):
                key = (qname, "lock")
                if key in seen:
                    continue
                seen.add(key)
                findings.append(
                    _fn_finding(
                        self,
                        project,
                        qname,
                        f"'{qname}' runs code under a lock but is reachable "
                        "from a fork worker; a lock captured across fork() "
                        "may be held forever by a thread that does not "
                        "exist in the child",
                        evidence_for(qname),
                    )
                )
        return findings


@register
class ThreadSafetyRule(Rule):
    """CONC002: handler threads need synchronized or serialized state."""

    name = "CONC002"
    severity = Severity.ERROR
    description = (
        "HTTP-handler-thread-reachable code touches shared state outside "
        "both the internally-synchronized API set and the lock-serialized "
        "render path"
    )
    needs_project = True

    def finish_whole_program(self, project) -> Optional[Iterable[Finding]]:
        roots = project.thread_roots()
        if not roots:
            return None
        entries = [entry for entry, _why, _line in roots]
        origins: Dict[str, str] = {}
        for entry, why, _line in roots:
            origins.setdefault(entry, why)

        def evidence_for(qname: str) -> Tuple[str, ...]:
            """reach evidence, prefixed with the thread entry's origin."""
            chain = reach.chains.get(qname)
            hops = reach.evidence(qname)
            origin = origins.get(chain[0]) if chain else None
            if origin is not None:
                return (f"thread entry via {project.describe(origin)}",) + hops
            return hops

        reach = ReachabilityAnalysis(project, entries)
        findings: List[Finding] = []
        seen: Set[Tuple[str, str]] = set()

        for qname in reach.reachable():
            fn = project.functions.get(qname)
            if fn is None or _is_tool(fn.module):
                continue
            for edge in project.callees(qname):
                # Tier 1: process-global registry — must self-synchronize.
                if edge.dst.startswith(PROCESS_GLOBAL_PREFIXES):
                    if edge.dst in SELF_SYNCHRONIZED:
                        continue
                    # Calls from within the registry's own class are
                    # its implementation, not a client.
                    if fn.module == "repro.obs.metrics":
                        continue
                    key = (qname, edge.dst)
                    if key in seen:
                        continue
                    seen.add(key)
                    findings.append(
                        _fn_finding(
                            self,
                            project,
                            qname,
                            f"'{qname}' calls {edge.dst.rsplit('.', 2)[-2]}."
                            f"{edge.dst.rsplit('.', 1)[-1]} from an HTTP "
                            "handler thread, but the method is not in the "
                            "internally-synchronized set; the render lock "
                            "cannot help — the owner thread mutates the "
                            "registry without it",
                            evidence_for(qname)
                            + (f"-> calls {project.describe(edge.dst)}",),
                        )
                    )
                # Tier 2: server-owned mutables — a locked path suffices.
                elif edge.dst in OWNED_MUTATORS:
                    if reach.state.get(qname, False) or edge.locked:
                        continue
                    key = (qname, edge.dst)
                    if key in seen:
                        continue
                    seen.add(key)
                    findings.append(
                        _fn_finding(
                            self,
                            project,
                            qname,
                            f"'{qname}' mutates server-owned state "
                            f"({edge.dst.rsplit('.', 2)[-2]}."
                            f"{edge.dst.rsplit('.', 1)[-1]}) from an HTTP "
                            "handler thread on a lock-free path; route it "
                            "through the lock-serialized render path",
                            evidence_for(qname)
                            + (f"-> calls {project.describe(edge.dst)}",),
                        )
                    )
            # Tier 3: raw module-global writes on an unlocked path.
            if fn.module.startswith("repro.obs"):
                continue
            for name, _line, how, locked in fn.global_writes:
                global_q = f"{fn.module}.{name}"
                if global_q not in project.globals:
                    continue
                if locked or reach.state.get(qname, False):
                    continue
                key = (qname, f"g:{global_q}")
                if key in seen:
                    continue
                seen.add(key)
                findings.append(
                    _fn_finding(
                        self,
                        project,
                        qname,
                        f"'{qname}' {how}s module global '{global_q}' from "
                        "an HTTP handler thread without holding a lock",
                        evidence_for(qname)
                        + (f"-> writes {project.describe(global_q)}",),
                    )
                )
        return findings


@register
class SharedGlobalRule(Rule):
    """CONC003: import-time mutables written from >= 2 pipeline stages."""

    name = "CONC003"
    severity = Severity.WARNING
    description = (
        "module-level mutable object is written by code reachable from "
        "two or more pipeline packages; ownerless shared state races as "
        "soon as any stage goes concurrent"
    )
    needs_project = True

    def finish_whole_program(self, project) -> Optional[Iterable[Finding]]:
        # Writers per mutable global (same-module writes only — the
        # extractor's precision boundary, documented in the rule guide).
        writers: Dict[str, Set[str]] = {}
        for qname in sorted(project.functions):
            fn = project.functions[qname]
            for name, _line, _how, _locked in fn.global_writes:
                global_q = f"{fn.module}.{name}"
                info = project.globals.get(global_q)
                if info is None or not info.mutable:
                    continue
                writers.setdefault(global_q, set()).add(qname)

        findings: List[Finding] = []
        for global_q in sorted(writers):
            info = project.globals[global_q]
            # obs *is* the sanctioned process-global layer; lint is
            # tooling.  CONC002 owns obs thread-safety.
            if info.module.startswith(("repro.obs", "repro.lint")):
                continue
            stage_chains = self._stages_reaching(project, writers[global_q])
            stages = sorted(stage_chains)
            if len(stages) < 2:
                continue
            evidence: List[str] = [f"shared: {project.describe(global_q)}"]
            for stage in stages:
                chain = stage_chains[stage]
                evidence.append(
                    f"stage '{stage}': "
                    + " -> ".join(project.describe(hop) for hop in chain)
                )
            findings.append(
                Finding(
                    rule=self.name,
                    severity=self.severity,
                    path=project.location(global_q)[0],
                    module=info.module,
                    line=info.line,
                    col=0,
                    message=(
                        f"module global '{global_q}' is mutable and written "
                        f"from {len(stages)} pipeline stages "
                        f"({', '.join(stages)}); give it an owner or make "
                        "the stages communicate explicitly"
                    ),
                    evidence=tuple(evidence),
                )
            )
        return findings

    @staticmethod
    def _stages_reaching(
        project, writer_set: Set[str]
    ) -> Dict[str, Tuple[str, ...]]:
        """Pipeline packages whose code *invokes* a writer, with a chain.

        Reverse BFS from the writers over the caller graph; for each
        package the lexicographically-first discovered chain (reaching
        function ... writer) is kept as the evidence witness.  The
        writers themselves contribute no stage — a helper executes its
        write on behalf of whoever calls it, so only caller packages
        count toward the >= 2 threshold.
        """
        chains: Dict[str, Tuple[str, ...]] = {}
        queue: List[Tuple[str, Tuple[str, ...]]] = [
            (w, (w,)) for w in sorted(writer_set)
        ]
        visited: Set[str] = set()
        while queue:
            qname, chain = queue.pop(0)
            if qname in visited or len(chain) > 10:
                continue
            visited.add(qname)
            fn = project.functions.get(qname)
            if fn is not None and qname not in writer_set:
                stage = _package_of(fn.module)
                if stage in PIPELINE_PACKAGES:
                    current = chains.get(stage)
                    if current is None or chain < current:
                        chains[stage] = chain
            for edge in project.callers(qname):
                if edge.src not in visited:
                    queue.append((edge.src, (edge.src,) + chain))
        return chains
