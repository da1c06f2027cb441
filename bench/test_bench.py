"""The benchmark's own tests: ``python -m pytest bench -q`` (toy sizes).

Not collected by tier-1, which only runs ``tests/``.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

from workloads import END_TO_END, FULL, LAYERS, SMOKE, WHY, unit_of  # noqa: E402


def bench(*args, hashseed="0", cwd=ROOT):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run(
        [sys.executable, RUN, *args],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def smoke_run(tmp_path_factory, hashseed):
    out = tmp_path_factory.mktemp("bench") / "runs.json"
    done = bench("--smoke", "--trace", "--out", str(out), hashseed=hashseed)
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out, encoding="utf-8") as handle:
        (run,) = json.load(handle)["runs"]
    return run["workloads"], done.stdout


@pytest.fixture(scope="module")
def first(tmp_path_factory):
    return smoke_run(tmp_path_factory, "0")


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_every_workload_emits_every_metric(first, contract):
    workloads, stdout = first
    assert list(workloads) == list(FULL) == list(SMOKE)
    per_layer = [m["name"] for m in contract["per_layer"]]
    for name, result in workloads.items():
        assert list(result["end_to_end"]) == list(END_TO_END)
        assert list(result["per_layer"]) == per_layer
        assert len(result["per_layer"]) >= 40
        assert result["ops_failed"] == 0, result["failures"]
        assert result["ops_total"] == SMOKE[name].rounds + 14
        for metric in list(END_TO_END) + per_layer:
            assert f"{name:<11} {metric:<34}" in stdout, metric
        assert all(v > 0 for v in result["end_to_end"].values())


def test_contract_matches_the_code(contract):
    assert contract["paths"] == ["bench"]
    assert [w["name"] for w in contract["workloads"]] == list(FULL)
    assert {w["name"]: w["why"] for w in contract["workloads"]} == WHY
    listed = {
        m["name"]: (m["unit"], m["better"]) for m in contract["end_to_end"]
    }
    assert listed == END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    for metric in contract["per_layer"]:
        assert metric["unit"] == unit_of(metric["name"]), metric


def test_calls_per_event_is_exact(first, tmp_path_factory):
    again, _ = smoke_run(tmp_path_factory, "0")
    hashed, _ = smoke_run(tmp_path_factory, "7")
    for name, result in first[0].items():
        calls = result["end_to_end"]["calls_per_event"]
        assert again[name]["end_to_end"]["calls_per_event"] == calls
        assert hashed[name]["end_to_end"]["calls_per_event"] == calls
        for exact in ("capture.events", "hbr.edges", "verify.deltas"):
            assert hashed[name]["per_layer"][exact] == result["per_layer"][exact]


def test_spans_and_profile_partition_the_pass(first):
    for name, result in first[0].items():
        layer = result["per_layer"]
        assert 0.97 <= layer["bench.span_coverage"] <= 1.03, name
        shares = sum(
            layer[f"{part}.profile_share"] for part in LAYERS + ("builtin",)
        )
        assert shares == pytest.approx(1.0, abs=1e-9), name
        trace = os.path.join(HERE, "out", f"trace_{name}.json")
        with open(trace, encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["workload"] == name
        assert document["churn_pass_spans"] >= layer["capture.events"]


def test_telemetry_is_the_only_difference(first):
    churn = first[0]["rr_churn"]["per_layer"]
    watch = first[0]["rr_watch"]["per_layer"]
    for same in ("capture.events", "capture.fib_events", "hbr.edges", "verify.deltas"):
        assert churn[same] == watch[same]
    assert watch["obs.calls_per_event"] >= 100
    assert watch["obs.ledger_records"] == watch["verify.deltas"]
    for name in ("mesh_churn", "rr_churn", "rr_repair"):
        assert first[0][name]["per_layer"]["obs.calls_per_event"] < 10
    # In-order feed: far less re-linking than the lagged rows.
    assert (
        first[0]["rr_repair"]["per_layer"]["hbr.relink_ratio"]
        < churn["hbr.relink_ratio"]
    )


def test_driver_line(contract):
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        done = bench(
            "--workload", "rr_churn", "--smoke", "--seed", "3", "--trace", trace
        )
        assert done.returncode == 0, done.stdout + done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in contract[group]]
        for metric in contract[group]:
            assert line["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_corrupted_reference_fails_the_run():
    done = bench("--workload", "mesh_churn", "--smoke", "--corrupt-reference")
    assert done.returncode == 1
    assert "FAILED mesh_churn: graph:" in done.stdout
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == 1


def test_nothing_to_measure_is_an_error(tmp_path):
    """The driver also runs the benchmark where only BENCHMARK.json and
    bench/ exist: it must fail without printing a result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rr_churn", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_compare(first, tmp_path):
    import report

    workloads = first[0]
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"

    def write(path, scale):
        runs = []
        for _ in range(3):
            copy = json.loads(json.dumps(workloads))
            for result in copy.values():
                result["end_to_end"]["verdict_p50_us"] *= scale
            runs.append({"smoke": True, "trace": True, "seed": 0, "workloads": copy})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"schema": report.SCHEMA, "runs": runs}, handle)

    write(path_a, 1.0)
    write(path_b, 1.0)
    assert bench("--compare", str(path_a), str(path_b)).returncode == 0
    write(path_b, 1.5)
    worse = bench("--compare", str(path_a), str(path_b))
    assert worse.returncode == 1
    assert worse.stdout.count("worse") >= 4
    better = bench("--compare", str(path_b), str(path_a))
    assert better.returncode == 0 and "better" in better.stdout
