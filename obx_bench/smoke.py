#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload briefly, one traced.

    python3 obx_bench/smoke.py

Runs each workload for 0.5 s untraced and serve-mixed once traced, through
run_benchmark.sh, and checks that each run exits 0, that its last stdout
line carries exactly the metric names and units BENCHMARK.json declares
(end_to_end untraced, per_layer traced), that outputs were checked
(attempted >= 1, correct) and that no operation failed.  It never checks a
threshold.  Exits 1 on the first problem.
"""
import json
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent


def check(workload, trace, spec):
    out_dir = f"bench_results/obx_bench/smoke/{workload}-{trace}"
    proc = subprocess.run(
        ["bash", "obx_bench/run_benchmark.sh", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--out-dir", out_dir],
        cwd=REPO, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        units = sorted(n for n in set(declared) & set(printed) if declared[n] != printed[n])
        return f"metrics differ: missing {missing}, undeclared {extra}, unit mismatch {units}"
    if not result["correct"] or result["attempted"] < 1 or result["failed"] != 0:
        return (f"correct={result['correct']} attempted={result['attempted']} "
                f"failed={result['failed']}")
    return None


def main():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    runs = [(w["name"], 0) for w in spec["workloads"]] + [("serve-mixed", 1)]
    for workload, trace in runs:
        problem = check(workload, trace, spec)
        print(f"{workload} trace={trace}: {problem or 'ok'}", flush=True)
        if problem:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
