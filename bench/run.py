#!/usr/bin/env python3
"""The online-loop benchmark (see README.md beside this file).

    python3 bench/run.py                      all four workloads, one run
    python3 bench/run.py --trace              ... plus span pass and profile split
    python3 bench/run.py --smoke --trace      toy sizes (what test_bench.py runs)
    python3 bench/run.py --workload rr_churn --seed 3 --seconds 8 --trace 0
                                              one workload in this process; the
                                              last line is the driver's JSON
    python3 bench/run.py --compare A.json B.json
    python3 bench/run.py --report             regenerate README.md from out/
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from workloads import FULL, SMOKE, unit_of  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
DEFAULT_RUNS = os.path.join(OUT, "runs.json")
#: Set-ups per invocation (setup_s is their median) and the fewest
#: churn passes; --smoke makes one of each.
SETUPS = 5
MIN_PASSES = 5


def benchmark_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="churn-pass time to measure (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        type=int,
        const=1,
        default=0,
        choices=(0, 1),
        help="add the span pass and the per-package profile split",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="toy sizes, one pass, one round"
    )
    parser.add_argument(
        "--out",
        default=DEFAULT_RUNS,
        help="runs file this run is appended to (default: bench/out/runs.json)",
    )
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--report", action="store_true")
    # test_bench.py only: drop one edge from the batch reference graph
    # and expect the run to fail.
    parser.add_argument(
        "--corrupt-reference", action="store_true", help=argparse.SUPPRESS
    )
    return parser.parse_args(argv)


def print_metrics(result: dict) -> None:
    name = result["workload"]
    samples = result["samples"]
    print(
        f"== {name} seed={result['seed']} {result['params']} "
        f"passes={samples['passes']} verdict_samples={samples['verdicts']} "
        f"repair_cycles={samples['rounds']}"
    )
    for group in ("end_to_end", "per_layer"):
        for metric, value in result[group].items():
            print(f"{name:<11} {metric:<34} {value:>16.6g} {unit_of(metric)}")
    print(
        f"{name:<11} ops_total = {result['ops_total']}  "
        f"ops_failed = {result['ops_failed']}"
    )


def run_one(args) -> int:
    """Driver mode: one workload, in this process."""
    if "PYTHONHASHSEED" not in os.environ:
        # Hash order must not be an input; start over with it pinned.
        os.execve(
            sys.executable,
            [sys.executable] + sys.argv,
            dict(os.environ, PYTHONHASHSEED="0"),
        )
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"bench: no program to measure under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    table = SMOKE if args.smoke else FULL
    if args.workload not in table:
        print(
            f"bench: unknown workload {args.workload!r}; "
            f"choose from {sorted(table)}",
            file=sys.stderr,
        )
        return 2
    contract = benchmark_contract()
    seconds = args.seconds
    if seconds is None:
        seconds = 0 if args.smoke else contract["run_seconds"]
    import harness

    import_s = time.perf_counter() - _PROCESS_START
    result = harness.run_workload(
        args.workload,
        table[args.workload],
        seed=args.seed,
        seconds=seconds,
        trace=bool(args.trace),
        setups=1 if args.smoke else SETUPS,
        min_passes=1 if args.smoke else MIN_PASSES,
        out_dir=OUT,
        import_s=import_s,
        corrupt_reference=args.corrupt_reference,
    )
    print_metrics(result)
    for failure in result["failures"]:
        print(f"FAILED {args.workload}: {failure}")
    with open(
        os.path.join(OUT, f"result_{args.workload}.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    # The driver's line: end-to-end metrics untraced, per-layer traced.
    group = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in contract[group]]
    print(
        json.dumps(
            {
                "correct": result["ops_failed"] == 0,
                "attempted": result["ops_total"],
                "failed": result["ops_failed"],
                "metrics": {
                    metric: {
                        "value": result[group][metric],
                        "unit": unit_of(metric),
                    }
                    for metric in wanted
                },
            }
        )
    )
    return 1 if result["ops_failed"] else 0


def run_all(args) -> int:
    """Every workload, each in its own subprocess; appends to --out."""
    run = {
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "smoke": args.smoke,
        "trace": bool(args.trace),
        "seed": args.seed,
        "workloads": {},
    }
    status = 0
    for name in FULL:
        command = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload",
            name,
            "--seed",
            str(args.seed),
            "--trace",
            str(args.trace),
        ]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.smoke:
            command.append("--smoke")
        if args.corrupt_reference:
            command.append("--corrupt-reference")
        env = dict(os.environ)
        env.setdefault("PYTHONHASHSEED", "0")
        child = subprocess.run(command, env=env, check=False)
        if child.returncode not in (0, 1):
            print(f"bench: {name} exited {child.returncode}", file=sys.stderr)
            return child.returncode
        status = max(status, child.returncode)
        with open(
            os.path.join(OUT, f"result_{name}.json"), encoding="utf-8"
        ) as handle:
            run["workloads"][name] = json.load(handle)
    document = {"schema": "bench-runs/v1", "runs": []}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as handle:
            document = json.load(handle)
    document["runs"].append(run)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    failed = sum(r["ops_failed"] for r in run["workloads"].values())
    total = sum(r["ops_total"] for r in run["workloads"].values())
    print(
        f"bench: ops_total = {total}  ops_failed = {failed}; run "
        f"{len(document['runs'])} appended to {os.path.relpath(args.out)}"
    )
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        import report

        return report.compare(*args.compare, contract=benchmark_contract())
    if args.report:
        import report

        return report.write_readme(OUT, benchmark_contract())
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
