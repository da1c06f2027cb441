"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main, package_version


class TestParser:
    def test_demo_choices(self):
        parser = build_parser()
        args = parser.parse_args(["demo", "fig1"])
        assert args.scenario == "fig1"

    def test_unknown_demo_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["demo", "nope"])

    def test_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_audit_defaults(self):
        args = build_parser().parse_args(["audit"])
        assert args.routers == 8 and args.uplinks == 2

    def test_seed_flag(self):
        args = build_parser().parse_args(["--seed", "7", "demo", "fig2"])
        assert args.seed == 7


class TestExecution:
    def test_demo_fig1(self, capsys):
        assert main(["demo", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "delivered" in out and "Ext2" in out

    def test_demo_fig2(self, capsys):
        assert main(["demo", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "policy violated: True" in out

    def test_demo_vendor(self, capsys):
        assert main(["demo", "vendor"]) == 0
        out = capsys.readouterr().out
        assert "diverge: True" in out

    def test_demo_fig5(self, capsys):
        assert main(["demo", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "Config" in out and "FIB" in out

    def test_demo_pipeline(self, capsys):
        assert main(["demo", "pipeline"]) == 0
        out = capsys.readouterr().out
        assert "blocked" in out
        assert "policy violated after the episode: False" in out

    def test_stats_audit_scenario(self, capsys):
        # `stats` takes the same audit flags as `audit` itself
        # (they used to hand-copy a subset and crash on the rest).
        rc = main(["stats", "--scenario", "audit", "--routers", "4"])
        assert rc == 0

    def test_workers_requires_distributed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["audit", "--routers", "4", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--distributed" in capsys.readouterr().err

    def test_audit_small(self, capsys):
        assert main(["audit", "--routers", "5", "--events", "4"]) == 0
        out = capsys.readouterr().out
        assert "HBR inference" in out
        assert "equivalence classes" in out


class TestVersion:
    def test_version_flag_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert package_version() in capsys.readouterr().out

    def test_package_version_matches_pyproject(self):
        # Either installed metadata or the source tree; both say 1.x.
        assert package_version()[0].isdigit()


class TestAuditGate:
    def test_min_f1_gate_fails(self, capsys):
        rc = main(
            ["audit", "--routers", "5", "--events", "4", "--min-f1", "0.999"]
        )
        assert rc == 1
        assert "below --min-f1" in capsys.readouterr().out

    def test_min_f1_gate_passes(self):
        rc = main(
            ["audit", "--routers", "5", "--events", "4", "--min-f1", "0.05"]
        )
        assert rc == 0


class TestStats:
    def test_stats_json_has_pipeline_sections(self, capsys):
        rc = main(
            [
                "stats",
                "--scenario",
                "pipeline",
                "--format",
                "json",
                "--require",
                "capture,inference,snapshot,verify,repair",
            ]
        )
        assert rc == 0
        document = json.loads(capsys.readouterr().out)
        sections = document["sections"]
        for name in ("capture", "inference", "snapshot", "verify", "repair"):
            assert name in sections
        verify = sections["verify"]
        assert verify["counters"]["verify.fib_writes_verified"] > 0
        assert (
            verify["histograms"]["verify.fib_write_latency_seconds"]["count"]
            > 0
        )
        assert (
            sections["inference"]["counters"]["inference.hbg_edges_inferred"]
            > 0
        )
        assert document["meta"]["scenario"] == "pipeline"

    def test_stats_require_missing_section_fails(self, capsys):
        # fig1 never arms the pipeline, so no repair metrics exist.
        rc = main(
            [
                "stats",
                "--scenario",
                "fig1",
                "--format",
                "json",
                "--require",
                "repair",
            ]
        )
        assert rc == 1
        assert "missing or empty" in capsys.readouterr().err

    def test_stats_table_format(self, capsys):
        assert main(["stats", "--scenario", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "[capture]" in out and "[sim]" in out

    def test_stats_output_file(self, tmp_path, capsys):
        target = tmp_path / "metrics.json"
        rc = main(
            [
                "stats",
                "--scenario",
                "pipeline",
                "--format",
                "json",
                "--output",
                str(target),
            ]
        )
        assert rc == 0
        document = json.loads(target.read_text())
        assert "sections" in document
        assert str(target) in capsys.readouterr().out

    def test_stats_disables_metrics_afterwards(self):
        from repro import obs

        main(["stats", "--scenario", "fig2"])
        assert not obs.enabled()

    def test_metrics_flag_appends_report(self, capsys):
        assert main(["--metrics", "demo", "pipeline"]) == 0
        out = capsys.readouterr().out
        assert "===== metrics =====" in out
        assert "verify.fib_writes_verified" in out
        from repro import obs

        assert not obs.enabled()


class TestLintErrorPaths:
    def test_corrupt_baseline_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "lint-baseline.json"
        bad.write_text("{broken", encoding="utf-8")
        rc = main(
            ["lint", "--baseline", str(bad), "tests/fixtures/lint"]
        )
        assert rc == 2
        assert "bad baseline" in capsys.readouterr().err

    def test_missing_lint_path_exits_2(self, capsys):
        rc = main(["lint", "does/not/exist.py"])
        assert rc == 2
        assert "repro lint:" in capsys.readouterr().err


class TestVerify:
    SMALL = ["--routers", "5", "--events", "8"]

    def test_incremental_streams_and_stops(self, capsys):
        assert main(["verify", "--incremental", *self.SMALL]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2 and all(
            line.startswith("incremental: ") for line in out
        )
        assert "FIB delta(s) verified" in out[0]
        assert "0 final violation(s)" in out[1]

    def test_differential_under_straggler_lag(self, capsys):
        rc = main(
            ["verify", "--differential", "--straggler-lag", "0.5", *self.SMALL]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "MISMATCH" not in out
        assert "compared against batch, 0 mismatch(es)" in out
        # Differential without --incremental still prints the batch row.
        assert out.splitlines()[-1].startswith("batch: snapshot at 60.500s")

    def test_differential_reports_a_planted_divergence(
        self, capsys, monkeypatch
    ):
        """The CLI prints from the oracle's generator: break the batch
        reference and every delta is a MISMATCH line and rc 1."""
        from repro.snapshot.base import DataPlaneSnapshot

        monkeypatch.setattr(
            DataPlaneSnapshot,
            "from_fib_events",
            classmethod(lambda cls, events, taken_at=None: cls()),
        )
        assert main(["verify", "--differential", *self.SMALL]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH after event" in out
        assert "0 mismatch(es)" not in out


class TestFuzz:
    def test_small_campaign_table(self, capsys):
        rc = main(
            [
                "fuzz",
                "--cases",
                "2",
                "--seed",
                "0",
                "--artifacts-dir",
                "none",
                "--fail-on-finding",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 case(s), 0 failing" in out
        assert "campaign digest:" in out

    def test_output_is_byte_identical_across_runs(self, capsys):
        argv = [
            "fuzz", "--cases", "2", "--seed", "5",
            "--artifacts-dir", "none", "--format", "json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        report = json.loads(first)
        assert report["cases"] == 2 and report["failures"] == 0

    def test_unknown_oracle_exits_2(self, capsys):
        rc = main(["fuzz", "--cases", "1", "--oracle", "nope"])
        assert rc == 2
        assert "unknown oracle" in capsys.readouterr().err

    def test_replay_missing_file_exits_2(self, capsys):
        rc = main(["fuzz", "--replay", "does/not/exist.json"])
        assert rc == 2
        assert "cannot read artifact" in capsys.readouterr().err

    def test_replay_regression_fixture(self, capsys):
        import glob
        import os

        fixture = sorted(
            glob.glob("tests/fixtures/fuzz_regressions/*.json")
        )[0]
        assert os.path.exists(fixture)
        rc = main(["fuzz", "--replay", fixture])
        assert rc == 0
        assert "as recorded" in capsys.readouterr().out

    def test_fuzz_leaves_obs_disabled(self):
        from repro import obs

        assert (
            main(
                [
                    "fuzz", "--cases", "1", "--seed", "0",
                    "--artifacts-dir", "none",
                    "--oracle", "replay-determinism",
                ]
            )
            == 0
        )
        assert not obs.enabled()
