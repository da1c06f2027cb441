"""Command-line interface: run the paper's scenarios from a shell.

Usage::

    python -m repro demo fig1          # Figs. 1a/1b convergence
    python -m repro demo fig2          # the misconfiguration episode
    python -m repro demo fig5          # §7 feasibility replay (timeline)
    python -m repro demo pipeline      # Fig. 3 guard catching Fig. 2a
    python -m repro demo vendor        # Cisco vs Junos divergence
    python -m repro audit --routers 8  # random-network toolbox tour
    python -m repro stats --scenario pipeline --format json
                                       # run + dump the metrics document
    python -m repro --metrics demo pipeline
                                       # any command + metrics report
    python -m repro --version

``stats`` is the observability entry point: it enables
:mod:`repro.obs`, runs one scenario, and renders the recorded
metrics/spans in any exporter format.  ``--require`` turns it into a
CI guard that exits nonzero when an expected pipeline stage recorded
nothing (silently-dead instrumentation).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import time
from typing import List, Optional

from repro import obs
from repro.obs.atomicio import atomic_write_text
from repro.obs.export import (
    RENDERERS,
    format_table,
    missing_sections,
    registry_to_dict,
    render_json,
)


def package_version() -> str:
    """Build identity, from installed metadata or the source tree."""
    try:
        from importlib import metadata

        return metadata.version("repro")
    except Exception:  # noqa: BLE001 - not installed; read the source tree
        pass
    try:
        import pathlib
        import tomllib

        pyproject = (
            pathlib.Path(__file__).resolve().parents[2] / "pyproject.toml"
        )
        with open(pyproject, "rb") as handle:
            return tomllib.load(handle)["project"]["version"]
    except Exception:  # noqa: BLE001 - fall back to the package constant
        from repro import __version__

        return __version__


def _demo_fig1(args: argparse.Namespace) -> int:
    from repro.scenarios.fig1 import Fig1Scenario
    from repro.scenarios.paper_net import P

    scenario = Fig1Scenario(seed=args.seed)
    net = scenario.run_fig1b()
    print("Fig. 1a -> 1b convergence complete.")
    rows = []
    for router in ("R1", "R2", "R3"):
        path, outcome = net.trace_path(router, P.first_address())
        rows.append((router, " -> ".join(path), outcome))
    print(format_table(("router", "path", "outcome"), rows))
    print(f"events captured: {len(net.collector)}")
    return 0


def _demo_fig2(args: argparse.Namespace) -> int:
    from repro.scenarios.fig2 import Fig2Scenario
    from repro.scenarios.paper_net import P

    scenario = Fig2Scenario(seed=args.seed)
    net = scenario.run_fig2a()
    print("Applied the Fig. 2a misconfiguration (LP 30 -> 10 on R2).")
    rows = []
    for router in ("R1", "R2", "R3"):
        path, outcome = net.trace_path(router, P.first_address())
        rows.append((router, " -> ".join(path), outcome))
    print(format_table(("router", "path", "outcome"), rows))
    print(f"policy violated: {scenario.violates_policy()}")
    return 0


def _demo_fig5(args: argparse.Namespace) -> int:
    from repro.analysis.timeline import render_timeline
    from repro.scenarios.fig5 import Fig5Scenario

    scenario = Fig5Scenario(seed=args.seed)
    net = scenario.run_localpref_change()
    print("§7 feasibility replay — captured control-plane I/O timeline:")
    print()
    print(
        render_timeline(
            net.collector.all_events(),
            routers=["R1", "R2", "R3"],
            since=scenario.t_change,
        )
    )
    return 0


def _demo_pipeline(args: argparse.Namespace) -> int:
    from repro.core.pipeline import IntegratedControlPlane, PipelineMode
    from repro.scenarios.fig2 import Fig2Scenario, bad_lp_change
    from repro.scenarios.paper_net import P, paper_policy
    from repro.verify.policy import LoopFreedomPolicy

    scenario = Fig2Scenario(seed=args.seed)
    net = scenario.run_baseline()
    pipeline = IntegratedControlPlane(
        net,
        [paper_policy(), LoopFreedomPolicy(prefixes=[P])],
        mode=PipelineMode.REPAIR,
    ).arm()
    net.apply_config_change(bad_lp_change())
    net.run(120)
    print(pipeline.summary())
    print(f"\npolicy violated after the episode: {scenario.violates_policy()}")
    return 0


def _demo_vendor(args: argparse.Namespace) -> int:
    from repro.scenarios.vendor import divergence

    cisco_exit, juniper_exit = divergence(seed=args.seed)
    print("Identical configs and inputs, two vendors:")
    print(
        format_table(
            ("vendor", "chosen exit", "tie-break rule"),
            [
                (
                    "cisco",
                    cisco_exit,
                    "oldest eBGP route",
                ),
                (
                    "juniper",
                    juniper_exit,
                    "lowest router id",
                ),
            ],
        )
    )
    print(f"diverge: {cisco_exit != juniper_exit}")
    return 0


_DEMOS = {
    "fig1": _demo_fig1,
    "fig2": _demo_fig2,
    "fig5": _demo_fig5,
    "pipeline": _demo_pipeline,
    "vendor": _demo_vendor,
}


def _cmd_demo(args: argparse.Namespace) -> int:
    return _DEMOS[args.scenario](args)


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.hbr.inference import InferenceEngine, score_inference
    from repro.scenarios.generators import (
        build_random_network,
        churn_workload,
        external_prefixes,
    )
    from repro.snapshot.base import DataPlaneSnapshot
    from repro.verify.headerspace import (
        compression_ratio,
        compute_equivalence_classes,
    )

    net, specs = build_random_network(
        args.routers, uplinks=args.uplinks, seed=args.seed
    )
    net.start()
    prefixes = external_prefixes(args.prefixes)
    for prefix in prefixes:
        for spec in specs:
            net.announce_prefix(spec.external, prefix)
    churn_workload(
        net, specs, prefixes, events=args.events, start=5.0, seed=args.seed
    )
    net.run(60)
    engine = InferenceEngine()
    distributed_rows = []
    if args.distributed:
        from repro.hbr.distributed import DistributedHbg

        dist = DistributedHbg(engine)
        dist.ingest_all(net.collector.all_events())
        dist.build_all(workers=args.workers)
        graph = dist.merged_graph()
        stats = dist.last_build
        central = engine.build_graph(net.collector.all_events())
        distributed_rows = [
            ("distributed routers", stats.routers),
            ("boundary messages", stats.boundary_messages),
            ("boundary events shipped", stats.boundary_events),
            ("boundary bytes", stats.boundary_bytes),
            ("central-collector bytes", stats.central_bytes),
            (
                "byte savings vs central",
                f"{stats.central_bytes / max(1, stats.boundary_bytes):.1f}x",
            ),
            (
                "merge byte-identical to central",
                "yes" if graph.to_records() == central.to_records() else "NO",
            ),
        ]
    else:
        graph = engine.build_graph(net.collector.all_events())
    observable = {e.event_id for e in net.collector}
    score = score_inference(graph, net.ground_truth, observable_ids=observable)
    snapshot = DataPlaneSnapshot.from_live_network(net)
    classes = compute_equivalence_classes(snapshot)
    prefix_count = len(snapshot.all_prefixes())
    print(
        format_table(
            ("metric", "value"),
            [
                ("captured I/O events", len(net.collector)),
                ("HBG edges inferred", graph.edge_count()),
                ("HBR inference precision", f"{score.precision:.3f}"),
                ("HBR inference recall", f"{score.recall:.3f}"),
                ("HBR inference f1", f"{score.f1:.3f}"),
                ("equivalence classes", len(classes)),
                ("prefixes", prefix_count),
                (
                    "compression (prefixes/class)",
                    f"{compression_ratio(classes, prefix_count):.1f}",
                ),
            ]
            + distributed_rows,
        )
    )
    if score.f1 < args.min_f1:
        print(
            f"FAIL: HBR inference f1 {score.f1:.3f} is below "
            f"--min-f1 {args.min_f1:.3f}"
        )
        return 1
    return 0


def _default_lint_baseline(paths: List[str]) -> Optional[str]:
    """Find a committed lint-baseline.json above the first lint path."""
    import os

    from repro.lint.baseline import BASELINE_FILENAME

    probe = os.path.abspath(paths[0] if paths else os.curdir)
    if os.path.isfile(probe):
        probe = os.path.dirname(probe)
    for _ in range(8):
        candidate = os.path.join(probe, BASELINE_FILENAME)
        if os.path.isfile(candidate):
            return candidate
        parent = os.path.dirname(probe)
        if parent == probe:
            break
        probe = parent
    return None


def _relativize_findings(findings, root: str):
    """Rewrite finding paths relative to ``root``.

    Baseline fingerprints embed the path, so they must not depend on
    the invocation directory; anchoring on the baseline file's own
    directory (the repo root, by convention) makes `repro lint` give
    identical fingerprints from any cwd.
    """
    import dataclasses
    import os

    rewritten = []
    for finding in findings:
        if finding.path.startswith("<"):
            rewritten.append(finding)
            continue
        relative = os.path.relpath(os.path.abspath(finding.path), root)
        rewritten.append(dataclasses.replace(finding, path=relative))
    return rewritten


def _changed_files(ref: str) -> Optional[List[str]]:
    """Python files differing from ``ref`` (plus untracked ones).

    Paths are returned absolute, anchored at the git toplevel —
    ``git diff --name-only`` and ``git ls-files --full-name`` both
    print toplevel-relative paths regardless of cwd, and the lint
    engine matches them against whatever form the lint paths used.
    Returns ``None`` when git is unavailable or the ref is unknown —
    the caller reports the error.
    """
    import os
    import subprocess

    def run(command: List[str]) -> Optional[str]:
        try:
            proc = subprocess.run(
                command, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        if proc.returncode != 0:
            return None
        return proc.stdout

    toplevel_out = run(["git", "rev-parse", "--show-toplevel"])
    if toplevel_out is None or not toplevel_out.strip():
        return None
    toplevel = toplevel_out.strip()

    files: List[str] = []
    for command in (
        ["git", "diff", "--name-only", ref, "--"],
        ["git", "ls-files", "--others", "--exclude-standard", "--full-name"],
    ):
        out = run(command)
        if out is None:
            return None
        files.extend(
            os.path.join(toplevel, line.strip())
            for line in out.splitlines()
            if line.strip().endswith(".py")
        )
    return sorted({os.path.normpath(f) for f in files})


def _cmd_lint(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.lint import LintRunner, Severity, sort_findings
    from repro.lint import baseline as baseline_mod
    from repro.lint.cache import CACHE_DIR_NAME

    paths = args.paths or [os.path.dirname(os.path.abspath(__file__))]

    restrict_to = None
    if args.changed is not None:
        changed = _changed_files(args.changed)
        if changed is None:
            print(
                f"repro lint: cannot resolve --changed against "
                f"{args.changed!r} (not a git checkout, or unknown ref)",
                file=sys.stderr,
            )
            return 2
        restrict_to = set(changed)

    cache_dir = None
    if args.deep and not args.no_cache:
        if args.cache_dir:
            cache_dir = args.cache_dir
        else:
            # Default the cache next to the committed baseline (the
            # repo root, by convention) so every cwd shares one cache.
            anchor = args.baseline or _default_lint_baseline(paths)
            anchor_dir = (
                os.path.dirname(os.path.abspath(anchor))
                if anchor and anchor != "none"
                else os.curdir
            )
            cache_dir = os.path.join(anchor_dir, CACHE_DIR_NAME)

    try:
        result = LintRunner(deep=args.deep, cache_dir=cache_dir).run_paths(
            paths, restrict_to=restrict_to
        )
    except FileNotFoundError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        target = (
            args.baseline
            if args.baseline not in (None, "none")
            else _default_lint_baseline(paths)
            or baseline_mod.BASELINE_FILENAME
        )
        anchored = _relativize_findings(
            result.findings, os.path.dirname(os.path.abspath(target))
        )
        count = baseline_mod.save(target, anchored)
        print(f"wrote {count} grandfathered finding(s) to {target}")
        return 0

    suppressed = 0
    stale: List[str] = []
    baseline_path: Optional[str] = None
    if args.baseline != "none":
        baseline_path = args.baseline or _default_lint_baseline(paths)
        if baseline_path is not None:
            try:
                allowed = baseline_mod.load(baseline_path)
            except (OSError, ValueError) as exc:
                print(f"repro lint: bad baseline: {exc}", file=sys.stderr)
                return 2
            result.findings = _relativize_findings(
                result.findings,
                os.path.dirname(os.path.abspath(baseline_path)),
            )
            result.findings, suppressed, stale = baseline_mod.apply(
                result.findings, allowed
            )

    findings = sort_findings(result.findings)
    summary = {
        "files_scanned": result.files_scanned,
        "findings": len(findings),
        "by_severity": result.by_severity(),
        "suppressed_by_pragma": result.suppressed_by_pragma,
        "suppressed_by_baseline": suppressed,
        "baseline": baseline_path,
        "stale_baseline_entries": stale,
        "deep": bool(args.deep),
    }
    if args.deep:
        summary["analysis_cache"] = (
            "disabled"
            if result.cache_hit is None
            else ("hit" if result.cache_hit else "miss")
        )
        summary["analysis_seconds"] = round(result.analysis_seconds, 6)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "tool": "repro lint",
                    "version": package_version(),
                    "summary": summary,
                    "findings": [f.to_dict() for f in findings],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        if findings:
            print(
                format_table(
                    ("severity", "rule", "location", "message"),
                    [
                        (str(f.severity), f.rule, f.location, f.message)
                        for f in findings
                    ],
                )
            )
            print()
            for finding in findings:
                if not finding.evidence:
                    continue
                print(f"call chain for {finding.rule} at {finding.location}:")
                for hop in finding.evidence:
                    print(f"    {hop}")
                print()
        print(
            f"{result.files_scanned} file(s) scanned, "
            f"{len(findings)} finding(s) "
            f"({result.suppressed_by_pragma} pragma-suppressed, "
            f"{suppressed} baselined)"
            + (
                f"; deep analysis {summary['analysis_cache']} "
                f"in {result.analysis_seconds:.2f}s"
                if args.deep
                else ""
            )
        )
        for fingerprint in stale:
            print(f"stale baseline entry (fixed? remove it): {fingerprint}")

    if args.fail_on == "never":
        return 0
    threshold = Severity.parse(args.fail_on)
    return 1 if any(f.severity >= threshold for f in findings) else 0


#: Scenarios runnable under ``repro stats`` (demos + the audit tour).
_STATS_SCENARIOS = dict(_DEMOS)
_STATS_SCENARIOS["audit"] = _cmd_audit


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run one scenario with observability on; dump the metrics report."""
    registry, tracer = obs.enable()
    try:
        runner = _STATS_SCENARIOS[args.scenario]
        scenario_output = io.StringIO()
        wall_started = time.perf_counter()
        with tracer.span(f"scenario.{args.scenario}"):
            with contextlib.redirect_stdout(scenario_output):
                scenario_rc = runner(args)
        wall_seconds = time.perf_counter() - wall_started
        if args.verbose:
            sys.stderr.write(scenario_output.getvalue())
        meta = {
            "tool": "repro stats",
            "version": package_version(),
            "scenario": args.scenario,
            "seed": args.seed,
            "scenario_exit_code": scenario_rc,
            "wall_seconds": round(wall_seconds, 6),
        }
        if args.format == "json":
            rendered = render_json(registry, tracer, meta=meta)
        else:
            rendered = RENDERERS[args.format](registry, tracer)
        if args.output:
            atomic_write_text(args.output, rendered + "\n")
            print(f"wrote {args.format} metrics report to {args.output}")
        else:
            print(rendered)
        if args.require:
            required = [s.strip() for s in args.require.split(",") if s.strip()]
            document = registry_to_dict(registry, tracer)
            missing = missing_sections(document, required)
            if missing:
                print(
                    "FAIL: required metric section(s) missing or empty: "
                    + ", ".join(missing),
                    file=sys.stderr,
                )
                return 1
        return scenario_rc
    finally:
        obs.disable()


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Run a differential-oracle fuzz campaign (or replay an artifact)."""
    import json
    from pathlib import Path

    from repro.testkit import (
        FuzzRunner,
        artifact_matches_expectation,
        load_artifact,
    )
    from repro.testkit.oracles import ORACLES

    if args.replay:
        try:
            artifact = load_artifact(Path(args.replay))
            verdict = artifact_matches_expectation(artifact)
        except ValueError as exc:
            print(f"repro fuzz: {exc}", file=sys.stderr)
            return 2
        except AssertionError as exc:
            print(f"repro fuzz: replay mismatch: {exc}", file=sys.stderr)
            return 1
        print(
            f"replayed {args.replay}: oracle {artifact.oracle} is "
            f"{'passing' if verdict.ok else 'failing'}, as recorded "
            f"(expect={artifact.expect})"
        )
        return 0

    oracle_names = None
    if args.oracle:
        oracle_names = [
            name
            for chunk in args.oracle
            for name in chunk.split(",")
            if name
        ]
        unknown = sorted(set(oracle_names) - set(ORACLES))
        if unknown:
            print(
                f"repro fuzz: unknown oracle(s): {', '.join(unknown)} "
                f"(known: {', '.join(ORACLES)})",
                file=sys.stderr,
            )
            return 2

    artifacts_dir = (
        None if args.artifacts_dir == "none" else Path(args.artifacts_dir)
    )
    # Instrument even without the global --metrics flag, so the run
    # always exercises the obs layer; only print what was asked for.
    was_enabled = obs.enabled()
    if not was_enabled:
        obs.enable()
    try:
        runner = FuzzRunner(
            oracle_names=oracle_names,
            artifacts_dir=artifacts_dir,
            shrink_failures=not args.no_shrink,
        )
        report = runner.run(
            seed=args.seed, cases=args.cases, minutes=args.minutes
        )
    finally:
        if not was_enabled:
            obs.disable()

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        failures = report.failures
        if failures:
            rows = []
            for result in failures:
                for verdict in result.verdicts:
                    if verdict.ok:
                        continue
                    events = str(result.events)
                    if result.shrink is not None:
                        events += f"→{result.shrink['shrunk_events']}"
                    rows.append(
                        (
                            str(result.index),
                            verdict.oracle,
                            events,
                            result.artifact_path or "-",
                            verdict.detail[:90],
                        )
                    )
            print(
                format_table(
                    ("case", "oracle", "events", "artifact", "detail"), rows
                )
            )
            print()
        print(
            f"fuzz seed={report.seed}: {report.cases} case(s), "
            f"{len(failures)} failing, {report.budget_skipped} skipped "
            f"(budget), oracles: {', '.join(report.oracles)}"
        )
        print(f"campaign digest: {report.campaign_digest}")

    if report.failures and args.fail_on_finding:
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Verify a generated run: batch, incremental, or differential."""
    from repro.scenarios.generators import (
        build_random_network,
        churn_workload,
        external_prefixes,
    )
    from repro.snapshot.base import VerifierView
    from repro.snapshot.consistent import ConsistentSnapshotter
    from repro.testkit.oracles import per_delta_comparisons
    from repro.verify.incremental import (
        IncrementalVerifier,
        incremental_engine,
    )
    from repro.verify.policy import (
        BlackholeFreedomPolicy,
        LoopFreedomPolicy,
    )

    net, specs = build_random_network(
        args.routers, uplinks=args.uplinks, seed=args.seed
    )
    net.start()
    churn_workload(
        net,
        specs,
        external_prefixes(args.prefixes),
        events=args.events,
        start=2.0,
        seed=args.seed,
    )
    net.run(60)
    internal = net.topology.internal_routers()
    lags = {}
    if args.straggler_lag > 0 and internal:
        lags[internal[0]] = args.straggler_lag
    view = VerifierView(net.collector, lags=lags)
    events = net.collector.all_events()
    policies = (LoopFreedomPolicy(), BlackholeFreedomPolicy())
    drained = net.sim.now + max(lags.values(), default=0.0) + 1e-6

    incremental = None
    if args.incremental or args.differential:
        engine = incremental_engine()
        streaming = engine.streaming()
        incremental = IncrementalVerifier(
            internal,
            topology=net.topology,
            policies=policies,
            view=view,
            engine=engine,
        ).attach(streaming)
        mismatches = 0
        started = time.perf_counter()
        if args.differential:
            for event, inc, batch in per_delta_comparisons(
                incremental, events, internal
            ):
                if inc == batch:
                    continue
                mismatches += 1
                print(
                    f"MISMATCH after event {event.event_id} "
                    f"({event.router} {event.prefix}): incremental "
                    f"({inc.consistent}, {sorted(inc.missing_routers)}, "
                    f"{len(inc.violations)} violation(s)) vs "
                    f"batch ({batch.consistent}, "
                    f"{sorted(batch.missing_routers)}, "
                    f"{len(batch.violations)} violation(s))"
                )
        else:
            for event in sorted(
                events, key=lambda e: (view.arrival_time(e), e.event_id)
            ):
                streaming.observe(event)
        wall = time.perf_counter() - started
        per_update = incremental.verify_seconds_total / max(
            incremental.deltas_applied, 1
        )
        print(
            f"incremental: {len(events)} event(s) streamed, "
            f"{incremental.deltas_applied} FIB delta(s) verified, "
            f"{incremental.atoms.atom_count()} atom(s), "
            f"{incremental.checks_run} §5 check(s)"
        )
        print(
            f"incremental: {per_update * 1e6:.0f} µs/update "
            f"(feed wall {wall:.2f}s), "
            f"{len(incremental.violations())} final violation(s)"
        )
        if args.differential:
            print(
                f"differential: {incremental.deltas_applied} delta(s) "
                f"compared against batch, {mismatches} mismatch(es)"
            )
            if mismatches:
                return 1
        if args.incremental and not args.differential:
            return 0

    if not args.incremental:
        snapshotter = ConsistentSnapshotter(view, internal)
        started = time.perf_counter()
        snapshot, report = snapshotter.snapshot(drained)
        wall = time.perf_counter() - started
        violations = []
        for policy in policies:
            violations.extend(policy.check(snapshot, net.topology))
        print(
            f"batch: snapshot at {drained:.3f}s is "
            f"{'consistent' if report.consistent else 'INCONSISTENT'} "
            f"({report.steps} walk step(s), {wall * 1000:.1f} ms), "
            f"{len(violations)} violation(s)"
        )
        for violation in violations[:10]:
            print(f"  {violation}")
        if not report.consistent:
            for reason in report.reasons[:5]:
                print(f"  defer: {reason}")
    return 0


#: Scenarios runnable under ``repro trace``.
_TRACE_SCENARIOS = ("fig1", "fig2", "fig5", "pipeline")


def _run_trace_scenario(scenario: str, seed: int = 0):
    """Run one scenario and return its HBG.

    Shared by ``repro trace`` and the test suite so both exercise the
    exact same capture path.
    """
    from repro.hbr.inference import InferenceEngine

    if scenario == "pipeline":
        from repro.core.pipeline import IntegratedControlPlane, PipelineMode
        from repro.scenarios.fig2 import Fig2Scenario, bad_lp_change
        from repro.scenarios.paper_net import P, paper_policy
        from repro.verify.policy import LoopFreedomPolicy

        net = Fig2Scenario(seed=seed).run_baseline()
        pipeline = IntegratedControlPlane(
            net,
            [paper_policy(), LoopFreedomPolicy(prefixes=[P])],
            mode=PipelineMode.REPAIR,
        ).arm()
        net.apply_config_change(bad_lp_change())
        net.run(120)
        return pipeline.hbg
    if scenario == "fig1":
        from repro.scenarios.fig1 import Fig1Scenario

        net = Fig1Scenario(seed=seed).run_fig1b()
    elif scenario == "fig2":
        from repro.scenarios.fig2 import Fig2Scenario

        net = Fig2Scenario(seed=seed).run_fig2a()
    elif scenario == "fig5":
        from repro.scenarios.fig5 import Fig5Scenario

        net = Fig5Scenario(seed=seed).run_localpref_change()
    else:
        raise ValueError(f"unknown trace scenario {scenario!r}")
    return InferenceEngine().build_graph(net.collector.all_events())


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run one scenario and export its HBG as a causal trace."""
    import json

    from repro.obs.trace import attribution as attribution_mod
    from repro.obs.trace import export as trace_export

    try:
        graph = _run_trace_scenario(args.scenario, seed=args.seed)
    except ValueError as exc:
        print(f"repro trace: {exc}", file=sys.stderr)
        return 2

    if args.format == "chrome":
        document = trace_export.chrome_trace(
            graph, min_confidence=args.min_confidence
        )
        problems = trace_export.validate_chrome_trace(document)
        rendered = json.dumps(document, indent=2, sort_keys=True)
    elif args.format == "otlp":
        document = trace_export.otlp_spans(
            graph, min_confidence=args.min_confidence
        )
        problems = trace_export.validate_otlp_spans(document)
        rendered = json.dumps(document, indent=2, sort_keys=True)
    else:
        problems = []
        rendered = trace_export.text_timeline(
            graph, min_confidence=args.min_confidence
        ).rstrip("\n")

    if problems:
        for problem in problems:
            print(f"repro trace: invalid export: {problem}", file=sys.stderr)
        return 1

    if args.output:
        atomic_write_text(args.output, rendered + "\n")
        print(
            f"wrote {args.format} trace for scenario {args.scenario!r} "
            f"to {args.output} ({len(graph.events())} HBG events)"
        )
    else:
        print(rendered)

    if args.attribute:
        report = attribution_mod.attribute_latency(
            graph, min_confidence=args.min_confidence
        )
        lines = report.table_lines()
        if args.output:
            print()
            print("\n".join(lines))
        else:
            print("\n".join(lines), file=sys.stderr)
    return 0


#: Scenarios runnable under ``repro watch`` (continuous replay).
_WATCH_SCENARIOS = ("fig1", "fig2", "fig5")


def _run_continuous_replay(
    scenario: str,
    seed: int = 0,
    repair: bool = True,
    progress=None,
):
    """Replay one scenario through the streaming verifier with the
    continuous monitor attached; returns ``(net, verifier, monitor)``.

    The monitor subscribes *before* the verifier so watermarks and
    first-suspect timestamps are updated before each verdict fires —
    detection latency is measured from the FIB update that made a
    prefix suspect, not from the verdict that judged it.  When
    ``repair`` is set and the replay ends with open violations, the
    root cause is traced and rolled back so the ledger also records
    the recovery (exposure windows close).
    """
    from repro.obs.continuous import ContinuousMonitor
    from repro.snapshot.base import VerifierView
    from repro.verify.incremental import (
        IncrementalVerifier,
        incremental_engine,
    )
    from repro.verify.policy import (
        BlackholeFreedomPolicy,
        LoopFreedomPolicy,
    )

    if scenario == "fig2":
        from repro.scenarios.fig2 import Fig2Scenario
        from repro.scenarios.paper_net import P, paper_policy

        net = Fig2Scenario(seed=seed).run_fig2a()
        policies = [paper_policy(), LoopFreedomPolicy(prefixes=[P])]
    elif scenario == "fig1":
        from repro.scenarios.fig1 import Fig1Scenario

        net = Fig1Scenario(seed=seed).run_fig1b()
        policies = [LoopFreedomPolicy(), BlackholeFreedomPolicy()]
    elif scenario == "fig5":
        from repro.scenarios.fig5 import Fig5Scenario

        net = Fig5Scenario(seed=seed).run_localpref_change()
        policies = [LoopFreedomPolicy(), BlackholeFreedomPolicy()]
    else:
        raise ValueError(f"unknown watch scenario {scenario!r}")

    internal = net.topology.internal_routers()
    view = VerifierView(net.collector)
    engine = incremental_engine()
    streaming = engine.streaming()
    monitor = ContinuousMonitor(view=view).attach(streaming)
    verifier = IncrementalVerifier(
        internal,
        topology=net.topology,
        policies=policies,
        view=view,
        engine=engine,
    ).attach(streaming)
    monitor.atoms = verifier.atoms
    verdicts = obs.get_verdicts()
    if verdicts.enabled:
        monitor.bind_ledger(verdicts)

    ordered = sorted(
        net.collector.all_events(),
        key=lambda e: (view.arrival_time(e), e.event_id),
    )
    for index, event in enumerate(ordered, start=1):
        streaming.observe(event)
        if progress is not None:
            progress(index, len(ordered))

    if repair and verifier.violations():
        from repro.capture.io_events import IOKind
        from repro.repair.provenance import ProvenanceTracer
        from repro.repair.rollback import RepairEngine
        from repro.verify.verifier import DataPlaneVerifier

        violated = {
            v.prefix for v in verifier.violations() if v.prefix is not None
        }
        # Only FIB churn after the most recent config change is suspect:
        # tracing the baseline announcements too would let the repair
        # engine revert legitimate steady state.
        cutoff = max(
            (
                e.timestamp
                for e in net.collector.all_events()
                if e.kind is IOKind.CONFIG_CHANGE
            ),
            default=0.0,
        )
        fibs = [
            e
            for e in net.collector.all_events()
            if e.kind is IOKind.FIB_UPDATE
            and e.prefix in violated
            and e.timestamp > cutoff
        ]
        if fibs:
            provenance = ProvenanceTracer(streaming.graph).trace_many(
                [e.event_id for e in fibs]
            )
            RepairEngine(
                net, DataPlaneVerifier(net.topology, policies)
            ).repair(provenance, settle=30.0)
            # Stream the recovery too: the rollback emitted fresh
            # config/FIB events, and feeding them through the same
            # verifier flips the per-router verdicts back to PASS.
            fed = {e.event_id for e in ordered}
            tail = sorted(
                (
                    e
                    for e in net.collector.all_events()
                    if e.event_id not in fed
                ),
                key=lambda e: (view.arrival_time(e), e.event_id),
            )
            for event in tail:
                streaming.observe(event)
    return net, verifier, monitor


def _cmd_watch(args: argparse.Namespace) -> int:
    """Replay a scenario and render the continuous-verification table."""
    from repro.obs.continuous import render_watch_table

    # Keep a registry the global --metrics flag installed: main()
    # prints that one after the command returns.
    was_enabled = obs.enabled()
    if not was_enabled:
        obs.enable()
    obs.enable_verdicts(path=args.verdict_ledger)
    try:

        def _redraw(index: int, total: int) -> None:
            if args.refresh <= 0 or index % args.refresh:
                return
            sys.stdout.write("\x1b[2J\x1b[H")
            print(render_watch_table(obs.get_registry(), obs.get_verdicts()))
            print(f"... replayed {index}/{total} event(s)")

        try:
            net, verifier, monitor = _run_continuous_replay(
                args.scenario,
                seed=args.seed,
                repair=not args.no_repair,
                progress=_redraw,
            )
        except ValueError as exc:
            print(f"repro watch: {exc}", file=sys.stderr)
            return 2
        verdicts = obs.get_verdicts()
        verdicts.flush()
        if args.refresh > 0:
            sys.stdout.write("\x1b[2J\x1b[H")
        print(render_watch_table(obs.get_registry(), verdicts))
        exposed = monitor.exposed_prefixes()
        print(
            f"replayed {monitor.tracker.events_seen} event(s) "
            f"(scenario={args.scenario}, seed={args.seed}): "
            f"{len(verdicts)} verdict(s), "
            f"{monitor.detections} detection(s), "
            f"{monitor.exposures_closed} exposure(s) closed, "
            f"{len(exposed)} still exposed"
        )
        if args.verdict_ledger:
            print(
                f"wrote verdict ledger ({len(verdicts)} record(s)) "
                f"to {args.verdict_ledger}"
            )
        return 1 if exposed else 0
    finally:
        obs.disable_verdicts()
        if not was_enabled:
            obs.disable()


def _cmd_bench_diff(args: argparse.Namespace) -> int:
    """Compare two BENCH_*.json reports; exit nonzero on regression."""
    import json

    from repro.obs import benchdiff

    try:
        old = benchdiff.load_report(args.old)
        new = benchdiff.load_report(args.new)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"repro bench diff: {exc}", file=sys.stderr)
        return 2

    diff = benchdiff.diff_reports(
        old,
        new,
        threshold_pct=args.threshold,
        min_abs=args.min_abs,
        min_abs_bytes=args.min_abs_bytes,
    )
    if args.format == "json":
        document = {
            "tool": "repro bench diff",
            "version": package_version(),
            "old": args.old,
            "new": args.new,
            **diff.to_dict(),
        }
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print("\n".join(diff.table_lines()))
    return benchdiff.exit_code(diff, args.fail_on)


def _add_audit_flags(parser: argparse.ArgumentParser) -> None:
    """The audit scenario's knobs, declared once for every subcommand
    that can run it (`audit`, `stats --scenario audit`); :func:`main`
    rejects `--workers` without `--distributed`."""
    parser.add_argument("--routers", type=int, default=8)
    parser.add_argument("--uplinks", type=int, default=2)
    parser.add_argument("--prefixes", type=int, default=6)
    parser.add_argument("--events", type=int, default=12)
    parser.add_argument(
        "--min-f1",
        type=float,
        default=0.0,
        help="exit nonzero if HBR inference f1 falls below this (CI gate)",
    )
    parser.add_argument(
        "--distributed",
        action="store_true",
        help="build the HBG distributedly (per-router subgraphs + "
        "boundary-summary exchange) and report boundary traffic vs "
        "the central baseline",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="fork N worker processes for the --distributed build "
        "(default: in-process; rejected without --distributed)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Integrating Verification and Repair into the Control Plane "
            "(HotNets 2017) — reproduction toolkit"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {package_version()}",
    )
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="enable observability and print a metrics report afterwards",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run one of the paper's scenarios")
    demo.add_argument("scenario", choices=sorted(_DEMOS))
    demo.set_defaults(func=_cmd_demo)

    audit = sub.add_parser("audit", help="toolbox tour on a random network")
    _add_audit_flags(audit)
    audit.set_defaults(func=_cmd_audit)

    lint = sub.add_parser(
        "lint",
        help="run the repo's static-analysis pass "
        "(DET/LAY/OBS/HYG/PERF rules; --deep adds DET100/CONC00x)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    lint.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="report format (default: table)",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=(
            "baseline file of grandfathered findings ('none' disables; "
            "default: nearest lint-baseline.json above the lint paths)"
        ),
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    lint.add_argument(
        "--fail-on",
        choices=("error", "warning", "info", "never"),
        default="error",
        help="exit nonzero if any finding is at/above this severity "
        "(default: error)",
    )
    lint.add_argument(
        "--deep",
        action="store_true",
        help="also run the whole-program pass (call graph + dataflow: "
        "DET100 determinism taint, CONC001-003 fork/thread safety) "
        "with call-chain evidence per finding",
    )
    lint.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        default=None,
        metavar="REF",
        help="restrict single-file rules to files differing from the "
        "git ref (default ref: HEAD); whole-program rules still see "
        "the full call graph",
    )
    lint.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="deep-analysis cache directory (default: .repro-lint-cache "
        "next to the baseline file)",
    )
    lint.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the deep-analysis cache for this run",
    )
    lint.set_defaults(func=_cmd_lint)

    stats = sub.add_parser(
        "stats",
        help="run a scenario with metrics enabled and dump the report",
    )
    stats.add_argument(
        "--scenario",
        choices=sorted(_STATS_SCENARIOS),
        default="pipeline",
        help="which scenario to measure (default: pipeline)",
    )
    stats.add_argument(
        "--format",
        choices=sorted(RENDERERS),
        default="table",
        help="report format (default: table)",
    )
    stats.add_argument(
        "--output", default=None, help="write the report to this file"
    )
    stats.add_argument(
        "--require",
        default=None,
        metavar="SECTIONS",
        help=(
            "comma-separated metric sections that must be non-empty "
            "(e.g. capture,inference,snapshot,verify,repair); exits "
            "nonzero otherwise"
        ),
    )
    stats.add_argument(
        "--verbose",
        action="store_true",
        help="also show the scenario's own output (on stderr)",
    )
    # So `stats --scenario audit` works.
    _add_audit_flags(stats)
    stats.set_defaults(func=_cmd_stats)

    verify = sub.add_parser(
        "verify",
        help="verify a generated run (batch, --incremental, --differential)",
    )
    verify.add_argument(
        "--routers", type=int, default=8, help="network size (default: 8)"
    )
    verify.add_argument(
        "--uplinks", type=int, default=2, help="external uplinks (default: 2)"
    )
    verify.add_argument(
        "--prefixes",
        type=int,
        default=4,
        help="external prefixes in the workload (default: 4)",
    )
    verify.add_argument(
        "--events",
        type=int,
        default=10,
        help="churn events in the workload (default: 10)",
    )
    verify.add_argument(
        "--seed", type=int, default=0, help="workload seed (default: 0)"
    )
    verify.add_argument(
        "--straggler-lag",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="log-delivery lag for one router (exercises arrival-order "
        "feeds; default: 0)",
    )
    verify.add_argument(
        "--incremental",
        action="store_true",
        help="stream FIB deltas through the atom-based incremental "
        "verifier instead of one batch snapshot",
    )
    verify.add_argument(
        "--differential",
        action="store_true",
        help="run incremental AND re-derive the batch verdict after "
        "every FIB delta; exit 1 on any divergence",
    )
    verify.set_defaults(func=_cmd_verify)

    fuzz = sub.add_parser(
        "fuzz",
        help="fuzz the pipeline with differential oracles (repro.testkit)",
    )
    fuzz.add_argument(
        "--cases",
        type=int,
        default=25,
        help="number of fuzz cases to run (default: 25)",
    )
    # Also accepted after the subcommand (CI invokes `fuzz --seed N`).
    fuzz.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help=argparse.SUPPRESS
    )
    fuzz.add_argument(
        "--oracle",
        action="append",
        default=None,
        metavar="NAME",
        help=(
            "oracle(s) to run — repeatable or comma-separated "
            "(default: all of snapshot-consistency, hbg-distributed, "
            "hbg-indexed-equivalence, whatif-replay, "
            "provenance-rollback, verify-incremental-equivalence, "
            "replay-determinism)"
        ),
    )
    fuzz.add_argument(
        "--minutes",
        type=float,
        default=None,
        help="wall-clock budget; remaining cases are skipped once spent",
    )
    fuzz.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="report format (default: table)",
    )
    fuzz.add_argument(
        "--fail-on-finding",
        action="store_true",
        help="exit nonzero if any oracle fails (CI gate)",
    )
    fuzz.add_argument(
        "--artifacts-dir",
        default="tests/fixtures/fuzz_regressions",
        metavar="DIR",
        help=(
            "where to write shrunk repro artifacts for failures "
            "('none' disables; default: tests/fixtures/fuzz_regressions)"
        ),
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="persist failing cases without delta-debugging them first",
    )
    fuzz.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="replay one artifact file instead of fuzzing",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    trace = sub.add_parser(
        "trace",
        help="run a scenario and export its HBG as a causal trace "
        "(Perfetto/OTLP/text)",
    )
    trace.add_argument(
        "--scenario",
        choices=_TRACE_SCENARIOS,
        default="pipeline",
        help="which scenario to run (default: pipeline)",
    )
    trace.add_argument(
        "--format",
        choices=("chrome", "otlp", "table"),
        default="chrome",
        help=(
            "chrome = trace-event JSON (open in Perfetto), otlp = span "
            "tree JSON, table = per-router text timeline (default: chrome)"
        ),
    )
    trace.add_argument(
        "--attribute",
        action="store_true",
        help="also run latency attribution (per-HBR-rule hop histograms)",
    )
    trace.add_argument(
        "--min-confidence",
        type=float,
        default=0.0,
        help="ignore HBG edges below this confidence (default: 0.0)",
    )
    trace.add_argument(
        "--output", default=None, help="write the export to this file"
    )
    trace.set_defaults(func=_cmd_trace)

    watch = sub.add_parser(
        "watch",
        help=(
            "replay a scenario through the streaming verifier and "
            "render the continuous-verification status table"
        ),
    )
    watch.add_argument(
        "--scenario",
        choices=_WATCH_SCENARIOS,
        default="fig2",
        help=(
            "scenario to replay; fig2 plants the paper's §2 violation "
            "(default: fig2)"
        ),
    )
    watch.add_argument(
        "--verdict-ledger",
        default=None,
        metavar="FILE",
        help="persist the verdict ledger (repro-verdicts/v1 JSONL) here",
    )
    watch.add_argument(
        "--refresh",
        type=int,
        default=0,
        metavar="N",
        help=(
            "redraw the table every N replayed events "
            "(default: 0 = render once at the end)"
        ),
    )
    watch.add_argument(
        "--no-repair",
        action="store_true",
        help="skip root-cause rollback; exposures stay open on exit",
    )
    watch.set_defaults(func=_cmd_watch)

    from repro.obs.benchdiff import (
        DEFAULT_MIN_ABS,
        DEFAULT_MIN_ABS_BYTES,
        DEFAULT_THRESHOLD_PCT,
        FAIL_ON_CHOICES,
    )

    bench = sub.add_parser(
        "bench", help="benchmark-report tooling (BENCH_*.json)"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_diff = bench_sub.add_parser(
        "diff",
        help="compare two BENCH_*.json reports; exit nonzero on regression",
    )
    bench_diff.add_argument("old", help="baseline BENCH_*.json")
    bench_diff.add_argument("new", help="candidate BENCH_*.json")
    bench_diff.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD_PCT,
        metavar="PCT",
        help=(
            "relative slowdown (percent) on a seconds/latency key that "
            f"counts as a regression (default: {DEFAULT_THRESHOLD_PCT:g})"
        ),
    )
    bench_diff.add_argument(
        "--min-abs",
        type=float,
        default=DEFAULT_MIN_ABS,
        metavar="SECONDS",
        help=(
            "absolute noise floor a time delta must also exceed "
            f"(default: {DEFAULT_MIN_ABS:g})"
        ),
    )
    bench_diff.add_argument(
        "--min-abs-bytes",
        type=float,
        default=DEFAULT_MIN_ABS_BYTES,
        metavar="BYTES",
        help=(
            "absolute noise floor a *bytes* delta must also exceed "
            f"(default: {DEFAULT_MIN_ABS_BYTES:g})"
        ),
    )
    bench_diff.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="report format (default: table)",
    )
    bench_diff.add_argument(
        "--fail-on",
        choices=FAIL_ON_CHOICES,
        default="regression",
        help=(
            "exit nonzero on: regression (default), changed (any "
            "difference at all), or never (report only)"
        ),
    )
    bench_diff.set_defaults(func=_cmd_bench_diff)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", None) is not None and not args.distributed:
        parser.error("--workers sizes the --distributed pool; add --distributed")
    wants_metrics = getattr(args, "metrics", False) and args.command != "stats"
    if wants_metrics:
        registry, tracer = obs.enable()
    try:
        rc = args.func(args)
        if wants_metrics:
            print("\n===== metrics =====")
            print(obs.export.render_table(registry, tracer))
        return rc
    finally:
        if wants_metrics:
            obs.disable()


if __name__ == "__main__":
    sys.exit(main())
