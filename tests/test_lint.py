"""Tests for repro.lint: rules, pragmas, baseline, CLI, self-check.

The fixture corpus under tests/fixtures/lint/ has one bad and one
good snippet per rule; each declares its module identity with a
``# repro: lint-module=`` directive so the package-scoped rules
(DET/LAY/OBS) fire exactly as they would on real repo code.
"""

import json
import os
import subprocess
import sys

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.lint import (
    LintRunner,
    RULE_REGISTRY,
    Severity,
    baseline,
    default_rules,
    module_name_for,
)
from repro.lint.rules.obs_rules import InstrumentationRule, Site

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "fixtures", "lint")
SRC = os.path.join(REPO_ROOT, "src", "repro")


def lint_fixture(*names):
    paths = [os.path.join(FIXTURES, name) for name in names]
    return LintRunner().run_paths(paths)


def rules_fired(result):
    return sorted({f.rule for f in result.findings})


# -- rule registry / framework -------------------------------------------


def test_all_rules_registered():
    assert set(RULE_REGISTRY) == {
        "DET001",
        "DET002",
        "DET003",
        "DET100",
        "CONC001",
        "CONC002",
        "CONC003",
        "LAY001",
        "LAY002",
        "OBS001",
        "HYG001",
        "HYG002",
        "HYG003",
        "HYG004",
        "PERF001",
    }
    for rule in default_rules():
        assert rule.description
        assert rule.severity in (
            Severity.INFO,
            Severity.WARNING,
            Severity.ERROR,
        )


def test_severity_ordering_and_parse():
    assert Severity.ERROR > Severity.WARNING > Severity.INFO
    assert Severity.parse("error") is Severity.ERROR
    with pytest.raises(ValueError):
        Severity.parse("fatal")


def test_module_name_derivation():
    assert (
        module_name_for(os.path.join(SRC, "net", "simulator.py"))
        == "repro.net.simulator"
    )
    assert (
        module_name_for(os.path.join(SRC, "obs", "__init__.py"))
        == "repro.obs"
    )
    assert module_name_for("/elsewhere/scratch.py") == "scratch"


def test_module_directive_overrides_path():
    result = LintRunner().run_source(
        "# repro: lint-module=repro.net.fake\nimport time\n",
        path="<fixture>",
    )
    assert rules_fired(result) == ["DET001"]


def test_syntax_error_reported_as_parse_finding():
    result = LintRunner().run_source("def broken(:\n", path="<bad>")
    assert rules_fired(result) == ["PARSE"]
    assert result.findings[0].severity is Severity.ERROR


# -- DET rules ------------------------------------------------------------


def test_det001_fixture_pair():
    assert rules_fired(lint_fixture("det001_bad.py")) == ["DET001"]
    assert rules_fired(lint_fixture("det001_good.py")) == []


def test_det001_only_in_deterministic_packages():
    result = LintRunner().run_source(
        "# repro: lint-module=repro.cli\nimport time\n", path="<cli>"
    )
    assert rules_fired(result) == []


def test_det002_fixture_pair():
    bad = lint_fixture("det002_bad.py")
    assert rules_fired(bad) == ["DET002"]
    # Both the from-import and the module-level call are flagged.
    assert len(bad.findings) == 2
    assert rules_fired(lint_fixture("det002_good.py")) == []


def test_det003_fixture_pair():
    bad = lint_fixture("det003_bad.py")
    assert rules_fired(bad) == ["DET003"]
    assert len(bad.findings) == 2  # for-loop and comprehension
    assert all(f.severity is Severity.WARNING for f in bad.findings)
    assert rules_fired(lint_fixture("det003_good.py")) == []


# -- LAY rules ------------------------------------------------------------


def test_lay001_fixture_pair():
    assert rules_fired(lint_fixture("lay001_bad.py")) == ["LAY001"]
    assert rules_fired(lint_fixture("lay001_good.py")) == []


def test_lay002_cycle_detected():
    result = lint_fixture("lay002_bad")
    assert "LAY002" in rules_fired(result)
    [cycle] = [f for f in result.findings if f.rule == "LAY002"]
    assert "snapshot" in cycle.message and "verify" in cycle.message


def test_lay_repo_layering_is_acyclic():
    """The live repo's package graph must have no import cycles."""
    result = LintRunner().run_paths([SRC])
    assert [f for f in result.findings if f.rule == "LAY002"] == []


# -- OBS rule -------------------------------------------------------------


def test_obs001_fixture_pair():
    assert rules_fired(lint_fixture("obs001_bad.py")) == ["OBS001"]
    assert rules_fired(lint_fixture("obs001_good.py")) == []


def test_obs001_reports_stale_catalogue():
    rule = InstrumentationRule([Site("repro.net.fake", "Ghost.run", "obs")])
    result = LintRunner(rules=[rule]).run_source(
        "# repro: lint-module=repro.net.fake\nclass Other:\n    pass\n",
        path="<fixture>",
    )
    assert rules_fired(result) == ["OBS001"]
    assert "not found" in result.findings[0].message


def test_obs001_verdict_fixture_pair():
    """Metrics-only instrumentation must not satisfy a verdict site."""
    bad = lint_fixture("obs001_verdict_bad.py")
    assert rules_fired(bad) == ["OBS001"]
    assert any("verdict ledger" in f.message for f in bad.findings)
    assert rules_fired(lint_fixture("obs001_good.py")) == []


def test_obs001_verdict_reports_stale_catalogue():
    rule = InstrumentationRule(
        [Site("repro.net.fake", "Ghost.run", "verdicts", "snapshot")]
    )
    result = LintRunner(rules=[rule]).run_source(
        "# repro: lint-module=repro.net.fake\nclass Other:\n    pass\n",
        path="<fixture>",
    )
    assert rules_fired(result) == ["OBS001"]
    assert "verdict site" in result.findings[0].message


# -- HYG rules ------------------------------------------------------------


def test_hyg_fixtures():
    assert rules_fired(lint_fixture("hyg001_bad.py")) == ["HYG001"]
    assert len(lint_fixture("hyg001_bad.py").findings) == 3
    assert rules_fired(lint_fixture("hyg002_bad.py")) == ["HYG002"]
    assert rules_fired(lint_fixture("hyg003_bad.py")) == ["HYG003"]
    assert rules_fired(lint_fixture("hyg_good.py")) == []


def test_hyg003_skips_test_code():
    result = LintRunner().run_source(
        "# repro: lint-module=tests.test_x\nassert True\n", path="<t>"
    )
    assert rules_fired(result) == []


# -- PERF rule ------------------------------------------------------------


def test_perf001_fixture_pair():
    bad = lint_fixture("perf001_bad.py")
    assert rules_fired(bad) == ["PERF001"]
    # list.insert, insort, and the list-membership test.
    assert len(bad.findings) == 3
    assert all(f.severity is Severity.WARNING for f in bad.findings)
    assert rules_fired(lint_fixture("perf001_good.py")) == []


def test_perf001_only_in_hot_packages():
    # The identical insert is fine outside net/capture/hbr/snapshot.
    result = LintRunner().run_source(
        "# repro: lint-module=repro.cli\n"
        "def f(xs, x):\n"
        "    xs.insert(0, x)\n",
        path="<cli>",
    )
    assert rules_fired(result) == []


def test_perf001_ignores_keyed_insert_arity():
    # One-positional-argument keyed APIs (tries, tables) are not
    # positional list inserts.
    result = LintRunner().run_source(
        "# repro: lint-module=repro.snapshot.fake\n"
        "def f(trie, entry):\n"
        "    trie.insert(entry)\n",
        path="<snap>",
    )
    assert rules_fired(result) == []


def test_perf001_pragma_suppresses():
    result = LintRunner().run_source(
        "# repro: lint-module=repro.hbr.fake\n"
        "def f(xs, x):\n"
        "    xs.insert(0, x)  # repro: lint-ignore[PERF001] -- bounded\n",
        path="<hbr>",
    )
    assert result.findings == []
    assert result.suppressed_by_pragma == 1


# -- pragmas --------------------------------------------------------------


def test_pragma_suppresses_single_rule():
    result = lint_fixture("pragma_ok.py")
    assert result.findings == []
    assert result.suppressed_by_pragma == 1


def test_pragma_wildcard_and_scoping():
    source = (
        "# repro: lint-module=repro.net.fake\n"
        "import time  # repro: lint-ignore[*]\n"
        "import datetime\n"
    )
    result = LintRunner().run_source(source, path="<fixture>")
    # The wildcard only covers its own line; line 3 still fires.
    assert len(result.findings) == 1
    assert result.findings[0].line == 3
    assert result.suppressed_by_pragma == 1


def test_pragma_for_other_rule_does_not_suppress():
    source = (
        "# repro: lint-module=repro.net.fake\n"
        "import time  # repro: lint-ignore[HYG001]\n"
    )
    result = LintRunner().run_source(source, path="<fixture>")
    # DET001 still fires; HYG004 additionally flags the pragma as
    # unused, since HYG001 had nothing to suppress on that line.
    assert rules_fired(result) == ["DET001", "HYG004"]


# -- baseline -------------------------------------------------------------


def test_baseline_roundtrip(tmp_path):
    result = lint_fixture("det001_bad.py")
    assert len(result.findings) == 1
    path = str(tmp_path / "baseline.json")
    assert baseline.save(path, result.findings) == 1
    allowed = baseline.load(path)
    new, suppressed, stale = baseline.apply(result.findings, allowed)
    assert new == [] and suppressed == 1 and stale == []


def test_baseline_catches_new_findings_beyond_allowance(tmp_path):
    result = lint_fixture("det001_bad.py")
    path = str(tmp_path / "baseline.json")
    baseline.save(path, result.findings)
    allowed = baseline.load(path)
    doubled = result.findings + result.findings
    new, suppressed, _ = baseline.apply(doubled, allowed)
    assert suppressed == 1 and len(new) == 1


def test_baseline_reports_stale_entries(tmp_path):
    result = lint_fixture("det001_bad.py")
    path = str(tmp_path / "baseline.json")
    baseline.save(path, result.findings)
    allowed = baseline.load(path)
    new, suppressed, stale = baseline.apply([], allowed)
    assert new == [] and suppressed == 0 and len(stale) == 1


def test_baseline_rejects_malformed_documents(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 99}))
    with pytest.raises(ValueError):
        baseline.load(str(path))


# -- CLI ------------------------------------------------------------------


def test_cli_lint_bad_fixture_fails(capsys):
    rc = cli_main(
        [
            "lint",
            os.path.join(FIXTURES, "det001_bad.py"),
            "--baseline",
            "none",
            "--fail-on",
            "info",
        ]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "DET001" in out


@pytest.mark.parametrize(
    "fixture",
    [
        "det001_bad.py",
        "det002_bad.py",
        "det003_bad.py",
        "lay001_bad.py",
        "lay002_bad",
        "obs001_bad.py",
        "obs001_verdict_bad.py",
        "hyg001_bad.py",
        "hyg002_bad.py",
        "hyg003_bad.py",
    ],
)
def test_cli_every_bad_fixture_nonzero(fixture, capsys):
    rc = cli_main(
        [
            "lint",
            os.path.join(FIXTURES, fixture),
            "--baseline",
            "none",
            "--fail-on",
            "info",
        ]
    )
    assert rc == 1
    capsys.readouterr()


def test_cli_fail_on_threshold(capsys):
    # DET003 findings are warnings: fail-on error passes, warning fails.
    path = os.path.join(FIXTURES, "det003_bad.py")
    assert (
        cli_main(["lint", path, "--baseline", "none", "--fail-on", "error"])
        == 0
    )
    assert (
        cli_main(["lint", path, "--baseline", "none", "--fail-on", "warning"])
        == 1
    )
    capsys.readouterr()


def test_cli_json_format(capsys):
    rc = cli_main(
        [
            "lint",
            os.path.join(FIXTURES, "hyg002_bad.py"),
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
    assert document["tool"] == "repro lint"
    assert document["summary"]["findings"] == 1
    [finding] = document["findings"]
    assert finding["rule"] == "HYG002"


def test_cli_missing_path_is_usage_error(capsys):
    rc = cli_main(["lint", "/nonexistent/nowhere", "--baseline", "none"])
    assert rc == 2
    capsys.readouterr()


def test_cli_write_baseline_then_clean(tmp_path, capsys):
    fixture = os.path.join(FIXTURES, "det001_bad.py")
    path = str(tmp_path / "baseline.json")
    assert cli_main(["lint", fixture, "--write-baseline", "--baseline", path]) == 0
    assert cli_main(["lint", fixture, "--baseline", path]) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out


# -- self-check: the live repo is clean -----------------------------------


def test_self_check_repo_is_lint_clean(capsys):
    """`repro lint` over the live tree exits 0 with the committed baseline."""
    rc = cli_main(
        [
            "lint",
            SRC,
            "--baseline",
            os.path.join(REPO_ROOT, "lint-baseline.json"),
            "--fail-on",
            "error",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0, f"repo has new lint findings:\n{out}"


def test_self_check_no_stale_baseline_entries(capsys):
    cli_main(
        [
            "lint",
            SRC,
            "--baseline",
            os.path.join(REPO_ROOT, "lint-baseline.json"),
            "--fail-on",
            "never",
        ]
    )
    out = capsys.readouterr().out
    assert "stale baseline entry" not in out


def test_self_check_via_subprocess():
    """The packaged entry point works from the repo root."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--fail-on", "error"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# -- observability integration -------------------------------------------


def test_lint_records_metrics_when_enabled():
    with obs.capturing() as (registry, _tracer):
        LintRunner().run_paths([os.path.join(FIXTURES, "hyg002_bad.py")])
        counters = {
            (c.name, c.labels): c.value for c in registry.counters()
        }
    assert counters[("lint.runs_total", ())] == 1
    assert counters[("lint.findings_total", (("rule", "HYG002"),))] == 1
