"""Tests for the whole-program analyzer: call graph, dataflow, rules.

Mirrors tests/test_lint.py's structure one level up: the fixture
corpus under tests/fixtures/lint/flow_* exercises the deep rule
family (DET100, CONC001-003), and the unit tests below poke the
call-graph builder and the fixpoint dataflow engine directly.
"""

import ast
import os
import shutil
import time

from repro.cli import main as cli_main
from repro.lint import LintRunner
from repro.lint.callgraph import build_project
from repro.lint.dataflow import ReachabilityAnalysis, TaintAnalysis
from repro.lint.rules import concurrency, det_flow

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "fixtures", "lint")
SRC = os.path.join(REPO_ROOT, "src", "repro")


def make_project(**modules):
    """module name (dots as __) -> source text, parsed into a Project."""
    files = []
    for module, source in modules.items():
        dotted = module.replace("__", ".")
        files.append((f"<{dotted}>", dotted, ast.parse(source)))
    return build_project(files)


def deep_fixture(*names):
    paths = [os.path.join(FIXTURES, name) for name in names]
    return LintRunner(deep=True).run_paths(paths)


def rules_fired(result):
    return sorted({f.rule for f in result.findings})


# -- call-graph builder ----------------------------------------------------


def test_callgraph_direct_and_method_calls():
    project = make_project(
        repro__x__m=(
            "class Engine:\n"
            "    def run(self):\n"
            "        return self.step()\n"
            "    def step(self):\n"
            "        return tick()\n"
            "\n"
            "def tick():\n"
            "    return 1\n"
            "\n"
            "def drive():\n"
            "    engine = Engine()\n"
            "    return engine.run()\n"
        )
    )
    def callee_names(qname):
        return {edge.dst for edge in project.callees(qname)}

    assert "repro.x.m.Engine.run" in callee_names("repro.x.m.drive")
    assert "repro.x.m.Engine.step" in callee_names("repro.x.m.Engine.run")
    assert "repro.x.m.tick" in callee_names("repro.x.m.Engine.step")


def test_callgraph_decorator_edge():
    project = make_project(
        repro__x__m=(
            "def deco(fn):\n"
            "    return fn\n"
            "\n"
            "@deco\n"
            "def target():\n"
            "    pass\n"
        )
    )
    kinds = {
        (edge.dst, edge.kind) for edge in project.callees("repro.x.m.target")
    }
    assert ("repro.x.m.deco", "decorator") in kinds


def test_callgraph_aliased_imports():
    project = make_project(
        repro__x__base=("def helper():\n    return 1\n"),
        repro__x__use=(
            "import repro.x.base as b\n"
            "from repro.x.base import helper as h\n"
            "\n"
            "def via_module():\n"
            "    return b.helper()\n"
            "\n"
            "def via_name():\n"
            "    return h()\n"
        ),
    )
    for src in ("repro.x.use.via_module", "repro.x.use.via_name"):
        assert "repro.x.base.helper" in {
            edge.dst for edge in project.callees(src)
        }, src


def test_callgraph_function_valued_arguments():
    project = make_project(
        repro__x__m=(
            "def apply(fn):\n"
            "    return fn()\n"
            "\n"
            "def tick():\n"
            "    return 1\n"
            "\n"
            "def go():\n"
            "    return apply(tick)\n"
        )
    )
    # Calling an opaque function-valued parameter creates no edge
    # (documented precision boundary — no false positives from it)...
    assert {e.dst for e in project.callees("repro.x.m.apply")} == set()
    # ...but passing the function records a reference edge, so
    # reachability still sees `tick` behind `go`.
    go_edges = {(e.dst, e.kind) for e in project.callees("repro.x.m.go")}
    assert ("repro.x.m.apply", "call") in go_edges
    assert ("repro.x.m.tick", "ref") in go_edges


def test_callgraph_param_type_binding_through_callers():
    project = make_project(
        repro__x__m=(
            "class Engine:\n"
            "    def step(self):\n"
            "        return 1\n"
            "\n"
            "def run(engine):\n"
            "    return engine.step()\n"
            "\n"
            "def main():\n"
            "    engine = Engine()\n"
            "    return run(engine)\n"
        )
    )
    # `run` learns engine: Engine from its caller's argument.
    assert "repro.x.m.Engine.step" in {
        edge.dst for edge in project.callees("repro.x.m.run")
    }


def test_fork_and_thread_roots():
    project = make_project(
        repro__x__m=(
            "import multiprocessing\n"
            "import threading\n"
            "\n"
            "def worker(item):\n"
            "    return item\n"
            "\n"
            "def poller():\n"
            "    return None\n"
            "\n"
            "def fan_out(items):\n"
            "    with multiprocessing.get_context('fork').Pool(2) as pool:\n"
            "        return pool.map(worker, items)\n"
            "\n"
            "def spawn():\n"
            "    threading.Thread(target=poller, daemon=True).start()\n"
        )
    )
    assert [w for w, _s, _l in project.fork_roots()] == ["repro.x.m.worker"]
    assert [t for t, _w, _l in project.thread_roots()] == ["repro.x.m.poller"]


# -- dataflow engine -------------------------------------------------------


def test_taint_propagates_with_shortest_chain():
    project = make_project(
        repro__x__m=(
            "import time\n"
            "\n"
            "def sink():\n"
            "    return time.time()\n"
            "\n"
            "def middle():\n"
            "    return sink()\n"
            "\n"
            "def top():\n"
            "    return middle()\n"
            "\n"
            "def top_direct():\n"
            "    return sink()\n"
        )
    )
    taint = TaintAnalysis(
        project, det_flow.classify_sink, det_flow.is_sanitizer
    )
    assert set(taint.chains) == {
        "repro.x.m.sink",
        "repro.x.m.middle",
        "repro.x.m.top",
        "repro.x.m.top_direct",
    }
    # top's chain routes through middle; top_direct's is one hop.
    assert len(taint.chains["repro.x.m.top"]) == 3
    assert len(taint.chains["repro.x.m.top_direct"]) == 2
    assert "wall clock" in taint.sink_label("repro.x.m.top")
    evidence = taint.evidence("repro.x.m.top")
    assert any("middle" in hop for hop in evidence)
    assert any("time.time" in hop for hop in evidence)


def test_taint_cut_at_sanitizer_module():
    project = make_project(
        repro__obs__clock=(
            "import time\n"
            "\n"
            "def now():\n"
            "    return time.time()\n"
        ),
        repro__hbr__use=(
            "from repro.obs.clock import now\n"
            "\n"
            "def build():\n"
            "    return now()\n"
        ),
    )
    taint = TaintAnalysis(
        project, det_flow.classify_sink, det_flow.is_sanitizer
    )
    # The obs helper itself is tainted, but the taint stops there.
    assert "repro.obs.clock.now" in taint.chains
    assert "repro.hbr.use.build" not in taint.chains


def test_reachability_lock_state_is_all_paths_meet():
    project = make_project(
        repro__x__m=(
            "import threading\n"
            "\n"
            "LOCK = threading.Lock()\n"
            "\n"
            "def handler():\n"
            "    with LOCK:\n"
            "        locked_path()\n"
            "    free_path()\n"
            "\n"
            "def locked_path():\n"
            "    mutate()\n"
            "\n"
            "def free_path():\n"
            "    mutate()\n"
            "\n"
            "def mutate():\n"
            "    pass\n"
        )
    )
    reach = ReachabilityAnalysis(project, ["repro.x.m.handler"])
    assert reach.state["repro.x.m.locked_path"] is True
    assert reach.state["repro.x.m.free_path"] is False
    # mutate is reachable both ways; the meet is "not always locked".
    assert reach.state["repro.x.m.mutate"] is False
    assert any("handler" in hop for hop in reach.evidence("repro.x.m.mutate"))


# -- DET100 ----------------------------------------------------------------


def test_det100_fixture_pair():
    bad = deep_fixture("flow_det100_bad.py")
    assert rules_fired(bad) == ["DET100"]
    # Both the direct reader and its transitive caller are flagged.
    assert len(bad.findings) == 2
    good = deep_fixture("flow_obs_watch.py", "flow_det100_good.py")
    assert rules_fired(good) == []


def test_det100_cross_module_chain():
    result = deep_fixture("flow_entropy_helper.py", "flow_det100_cross.py")
    assert rules_fired(result) == ["DET100"]
    cross = [
        f for f in result.findings if f.module == "repro.snapshot.flowcross"
    ]
    assert len(cross) == 1
    assert "entropy" in cross[0].message
    # The evidence chain crosses the module boundary down to the sink.
    assert any("flowentropy.fresh_id" in hop for hop in cross[0].evidence)
    assert any("uuid.uuid4" in hop for hop in cross[0].evidence)


def test_det100_silent_in_fast_mode():
    result = LintRunner().run_paths(
        [os.path.join(FIXTURES, "flow_det100_bad.py")]
    )
    assert rules_fired(result) == []


# -- CONC001-003 -----------------------------------------------------------


def test_conc001_fixture_pair():
    bad = deep_fixture("flow_conc001_bad.py")
    assert rules_fired(bad) == ["CONC001"]
    [finding] = bad.findings
    assert "RESULTS" in finding.message
    assert "dies with the worker" in finding.message
    # Evidence walks from the fork fan-out down to the write.
    assert any("fan_out" in hop for hop in finding.evidence)
    assert rules_fired(deep_fixture("flow_conc001_good.py")) == []


def test_conc002_fixture_pair():
    bad = deep_fixture("flow_conc002_bad.py")
    assert rules_fired(bad) == ["CONC002"]
    [finding] = bad.findings
    assert "without holding a lock" in finding.message
    assert rules_fired(deep_fixture("flow_conc002_good.py")) == []


def test_conc003_shared_global_across_stages():
    result = deep_fixture(
        "flow_shared_state.py", "flow_stage_capture.py", "flow_stage_hbr.py"
    )
    assert rules_fired(result) == ["CONC003"]
    [finding] = result.findings
    assert "SEEN" in finding.message
    # Both stages appear in the message and the per-stage evidence.
    assert "capture" in finding.message and "hbr" in finding.message
    assert any(hop.startswith("stage 'capture'") for hop in finding.evidence)
    assert any(hop.startswith("stage 'hbr'") for hop in finding.evidence)


def test_conc003_single_stage_is_fine():
    result = deep_fixture("flow_shared_state.py", "flow_stage_capture.py")
    assert rules_fired(result) == []


def test_deep_findings_carry_evidence():
    for fixtures in (
        ("flow_det100_bad.py",),
        ("flow_conc001_bad.py",),
        ("flow_conc002_bad.py",),
    ):
        result = deep_fixture(*fixtures)
        assert result.findings
        for finding in result.findings:
            assert finding.evidence, finding


def test_deep_pragma_suppression():
    source = (
        "# repro: lint-module=repro.hbr.flowprag\n"
        "import os\n"
        "\n"
        "def salted():  # repro: lint-ignore[DET100] -- documented\n"
        "    return os.getenv('X')\n"
    )
    result = LintRunner(deep=True).run_source(source, path="<prag>")
    assert result.findings == []
    assert result.suppressed_by_pragma == 1


# -- analysis cache --------------------------------------------------------


def test_deep_cache_cold_then_warm(tmp_path):
    cache_dir = str(tmp_path / "cache")
    paths = [os.path.join(FIXTURES, "flow_det100_bad.py")]
    cold = LintRunner(deep=True, cache_dir=cache_dir).run_paths(paths)
    assert cold.cache_hit is False
    warm = LintRunner(deep=True, cache_dir=cache_dir).run_paths(paths)
    assert warm.cache_hit is True
    assert [f.to_dict() for f in warm.findings] == [
        f.to_dict() for f in cold.findings
    ]


def test_deep_cache_invalidated_by_content_change(tmp_path):
    cache_dir = str(tmp_path / "cache")
    target = tmp_path / "flow_edit.py"
    source = (
        "# repro: lint-module=repro.hbr.flowedit\n"
        "import os\n"
        "def salted():\n"
        "    return os.getenv('X')\n"
    )
    target.write_text(source)
    first = LintRunner(deep=True, cache_dir=cache_dir).run_paths([str(target)])
    assert first.cache_hit is False and len(first.findings) == 1
    target.write_text(source.replace("os.getenv('X')", "'fixed'"))
    second = LintRunner(deep=True, cache_dir=cache_dir).run_paths(
        [str(target)]
    )
    assert second.cache_hit is False
    assert second.findings == []


def test_deep_cache_replays_pragma_hits(tmp_path):
    """A pragma consumed by a cached deep finding stays consumed, so
    HYG004 answers identically warm and cold."""
    cache_dir = str(tmp_path / "cache")
    target = tmp_path / "flow_prag.py"
    target.write_text(
        "# repro: lint-module=repro.hbr.flowprag2\n"
        "import os\n"
        "def salted():  # repro: lint-ignore[DET100] -- documented\n"
        "    return os.getenv('X')\n"
    )
    cold = LintRunner(deep=True, cache_dir=cache_dir).run_paths([str(target)])
    warm = LintRunner(deep=True, cache_dir=cache_dir).run_paths([str(target)])
    assert warm.cache_hit is True
    for result in (cold, warm):
        assert result.findings == []  # no HYG004 "unused pragma"
        assert result.suppressed_by_pragma == 1


# -- changed-files mode ----------------------------------------------------


def test_restrict_to_limits_single_file_rules():
    det001 = os.path.join(FIXTURES, "det001_bad.py")
    hyg002 = os.path.join(FIXTURES, "hyg002_bad.py")
    full = LintRunner().run_paths([det001, hyg002])
    assert rules_fired(full) == ["DET001", "HYG002"]
    changed = LintRunner().run_paths(
        [det001, hyg002], restrict_to={hyg002}
    )
    assert rules_fired(changed) == ["HYG002"]
    assert changed.files_scanned == 1


def test_restricted_files_still_feed_whole_program_rules():
    """--changed narrows the single-file rules, not the call graph."""
    helper = os.path.join(FIXTURES, "flow_entropy_helper.py")
    cross = os.path.join(FIXTURES, "flow_det100_cross.py")
    result = LintRunner(deep=True).run_paths(
        [helper, cross], restrict_to={cross}
    )
    # The cross-module DET100 finding needs the (unchanged) helper's
    # definitions in the call graph to resolve the chain.
    assert "DET100" in rules_fired(result)
    cross_findings = [
        f for f in result.findings if f.module == "repro.snapshot.flowcross"
    ]
    assert any("uuid.uuid4" in hop
               for f in cross_findings for hop in f.evidence)


def test_cli_changed_mode_runs(capsys):
    old_cwd = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        rc = cli_main(["lint", "--changed", "--fail-on", "error"])
    finally:
        os.chdir(old_cwd)
    capsys.readouterr()
    assert rc == 0


def test_cli_changed_scans_exactly_the_edited_files(tmp_path, capsys):
    """End to end: edit one tracked file, --changed dispatches only it.

    Guards the path-form contract between ``_changed_files`` (absolute,
    git-toplevel anchored) and the engine's restrict_to matching — a
    mismatch silently restricts *every* file to zero findings.
    """
    import json
    import subprocess

    repo = tmp_path / "mini"
    repo.mkdir()
    clean = repo / "clean.py"
    clean.write_text("def ok():\n    return 1\n")
    edited = repo / "edited.py"
    edited.write_text("def ok():\n    return 2\n")
    env = {
        "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
        "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
        "HOME": str(tmp_path), "PATH": os.environ["PATH"],
    }
    for cmd in (
        ["git", "init", "-q"],
        ["git", "add", "clean.py", "edited.py"],
        ["git", "commit", "-q", "-m", "seed"],
    ):
        subprocess.run(cmd, cwd=repo, env=env, check=True)
    edited.write_text("def bad(x={}):\n    return x\n")  # HYG001

    old_cwd = os.getcwd()
    os.chdir(repo)
    try:
        rc = cli_main([
            "lint", str(repo), "--changed", "--baseline", "none",
            "--format", "json",
        ])
    finally:
        os.chdir(old_cwd)
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["summary"]["files_scanned"] == 1
    assert [f["rule"] for f in doc["findings"]] == ["HYG001"]
    assert doc["findings"][0]["path"].endswith("edited.py")


# -- HYG004 ----------------------------------------------------------------


def test_hyg004_flags_unused_pragma():
    result = LintRunner().run_source(
        "# repro: lint-module=repro.net.fake\n"
        "X = 1  # repro: lint-ignore[DET001]\n",
        path="<f>",
    )
    assert rules_fired(result) == ["HYG004"]
    assert "DET001" in result.findings[0].message


def test_hyg004_multi_rule_pragma_partial_use():
    # DET001 fires and is suppressed; CONC001 never had a finding
    # there, but it is a deep rule not run in fast mode, so no HYG004.
    result = LintRunner().run_source(
        "# repro: lint-module=repro.net.fake\n"
        "import time  # repro: lint-ignore[DET001,CONC001]\n",
        path="<f>",
    )
    assert result.findings == []
    assert result.suppressed_by_pragma == 1


def test_hyg004_unknown_rule_name():
    result = LintRunner().run_source(
        "# repro: lint-module=repro.net.fake\n"
        "X = 1  # repro: lint-ignore[NOPE999]\n",
        path="<f>",
    )
    assert rules_fired(result) == ["HYG004"]
    assert "unknown rule name" in result.findings[0].message


def test_hyg004_itself_suppressible():
    # Two pragma comments on one line: HYG004 suppression of the
    # unused-DET001 report, exercising finditer-based pragma scanning.
    result = LintRunner().run_source(
        "# repro: lint-module=repro.net.fake\n"
        "X = 1  # repro: lint-ignore[DET001]  # repro: lint-ignore[HYG004]\n",
        path="<f>",
    )
    assert result.findings == []


# -- CLI integration -------------------------------------------------------


def test_cli_deep_fixture_table_shows_chain(capsys):
    rc = cli_main(
        [
            "lint",
            os.path.join(FIXTURES, "flow_conc001_bad.py"),
            "--deep",
            "--no-cache",
            "--baseline",
            "none",
            "--fail-on",
            "error",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "CONC001" in out
    assert "call chain for CONC001" in out
    assert "fan_out" in out


def test_cli_deep_json_includes_evidence_and_cache_state(capsys):
    import json

    rc = cli_main(
        [
            "lint",
            os.path.join(FIXTURES, "flow_det100_bad.py"),
            "--deep",
            "--no-cache",
            "--baseline",
            "none",
            "--format",
            "json",
            "--fail-on",
            "never",
        ]
    )
    assert rc == 0
    document = json.loads(capsys.readouterr().out)
    assert document["summary"]["deep"] is True
    assert document["summary"]["analysis_cache"] == "disabled"
    assert document["summary"]["analysis_seconds"] >= 0
    assert all(f["evidence"] for f in document["findings"])


# -- the live repo ---------------------------------------------------------


def test_self_check_repo_is_deep_clean(capsys):
    rc = cli_main(
        [
            "lint",
            SRC,
            "--deep",
            "--no-cache",
            "--baseline",
            os.path.join(REPO_ROOT, "lint-baseline.json"),
            "--fail-on",
            "error",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0, f"repo has deep lint findings:\n{out}"


#: A minimal Prometheus scrape handler: ``do_GET`` runs on a server
#: thread and renders the process-global registry the owner thread
#: keeps adding metrics to.  The registry goes through a typed local:
#: the call graph carries a named argument's type into the callee, not
#: the type of an inline ``obs.get_registry()`` call.
SCRAPE_HANDLER = """\
from http.server import BaseHTTPRequestHandler

from repro import obs
from repro.obs.export import render_prometheus


class ScrapeHandler(BaseHTTPRequestHandler):
    def do_GET(self):
        registry = obs.get_registry()
        body = render_prometheus(registry).encode("utf-8")
        self.send_response(200)
        self.end_headers()
        self.wfile.write(body)
"""


def test_analyzer_detects_unsynchronized_registry(tmp_path, monkeypatch):
    """Re-create the defect this analyzer originally found: a scrape
    handler's reads of the registry race the owner thread's metric
    creation.  With the registry's internally-synchronized contract
    intact the handler is clean; with it revoked, CONC002 must name
    MetricsRegistry."""
    src = tmp_path / "repro"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    (src / "obs" / "scrape.py").write_text(SCRAPE_HANDLER)
    clean = LintRunner(deep=True).run_paths([str(src)])
    assert [f for f in clean.findings if f.rule == "CONC002"] == []
    monkeypatch.setattr(concurrency, "SELF_SYNCHRONIZED", frozenset())
    result = LintRunner(deep=True).run_paths([str(src)])
    conc002 = [f for f in result.findings if f.rule == "CONC002"]
    assert conc002, "emptying SELF_SYNCHRONIZED must resurface the race"
    assert any("MetricsRegistry" in f.message for f in conc002)
    assert any(
        any("ScrapeHandler.do_GET" in hop for hop in f.evidence)
        for f in conc002
    ), [f.evidence for f in conc002]


def test_conc001_sees_into_the_distributed_build_workers(tmp_path):
    """CONC001 is only as strong as the call graph under it: plant a
    registry write in the per-consequent inference the forked workers
    of ``DistributedHbg.build_all`` run, and the finding must arrive
    with a chain through the pool's worker function."""
    src = tmp_path / "repro"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    target = src / "hbr" / "inference.py"
    text = target.read_text()
    marker = "        linked: Set[int] = set()\n"
    assert text.count(marker) == 1
    target.write_text(
        text.replace(
            marker,
            marker
            + '        obs.get_registry().counter("inference.probe").inc()\n',
        )
    )
    result = LintRunner(deep=True).run_paths([str(src)])
    chains = [f.evidence for f in result.findings if f.rule == "CONC001"]
    assert any(
        any("distributed._run_shard" in hop for hop in chain)
        and any("InferenceEngine._infer_edges" in hop for hop in chain)
        for chain in chains
    ), chains


def test_deep_runtime_bounds(tmp_path):
    cache_dir = str(tmp_path / "cache")
    started = time.perf_counter()
    cold = LintRunner(deep=True, cache_dir=cache_dir).run_paths([SRC])
    cold_seconds = time.perf_counter() - started
    assert cold.cache_hit is False
    assert cold_seconds < 10.0, f"cold deep lint took {cold_seconds:.1f}s"
    started = time.perf_counter()
    warm = LintRunner(deep=True, cache_dir=cache_dir).run_paths([SRC])
    warm_seconds = time.perf_counter() - started
    assert warm.cache_hit is True
    assert warm_seconds < 2.0, f"warm deep lint took {warm_seconds:.1f}s"


def test_baseline_must_stay_empty():
    """The grandfathered-debt ratchet: the committed baseline burned
    down to zero in this change set and must never regrow.  Add a
    pragma with a justification instead of a baseline entry."""
    import json

    with open(os.path.join(REPO_ROOT, "lint-baseline.json")) as handle:
        document = json.load(handle)
    assert document["findings"] == {}
