#!/usr/bin/env python3
"""Compares two sets of obx_bench results: a parent commit and a change.

    python3 obx_bench/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory is searched recursively for the records obx_bench writes
(<workload>.json, or <workload>.traced.json with --trace 1).  Give every run
its own --out-dir so records are not overwritten; README.md shows a loop that
runs interleaved pairs.  Runs pair up by workload and seed, so run both sides
with the same seeds.

For every workload x end-to-end metric the report prints each side's median
and quartiles, the ratio change/parent with its base, the share of pairs the
change wins (ties count for neither), and a verdict:

  improved     the change wins at least 9 of 10 pairs, and the medians
               differ by more than the parent's own spread (Q3 - Q1);
  worse        the change's median is worse than the parent's by more than
               the metric's bound in BENCHMARK.json;
  unresolved   the parent's spread is wider than the bound, and not every
               change run beats every parent run;
  within bound otherwise.

A gain does not count when more operations fail than at the parent.  Exits 1
when any pairing is worse, 0 otherwise.
"""
import argparse
import json
import pathlib
import statistics
import sys


def load_runs(root, traced):
    """{workload: {seed: [record, ...]}} for every record under root."""
    runs = {}
    suffix = ".traced.json" if traced else ".json"
    for path in sorted(pathlib.Path(root).rglob("*.json")):
        if not path.name.endswith(suffix) or (not traced and path.name.endswith(".traced.json")):
            continue
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(record, dict) or "workload" not in record or "metrics" not in record:
            continue
        runs.setdefault(record["workload"], {}).setdefault(record["seed"], []).append(record)
    return runs


def pairs_of(parent, change):
    """Parent/change record pairs with equal seeds, in seed order."""
    out = []
    for seed in sorted(set(parent) & set(change)):
        out.extend(zip(parent[seed], change[seed]))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent_vals, change_vals, better, bound, more_failures):
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent_vals)
    _, cm, _ = quartiles(change_vals)
    pairs = list(zip(parent_vals, change_vals))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_share = wins / len(pairs)
    spread = p3 - p1
    every_run_better = min(sign * c for c in change_vals) > max(sign * p for p in parent_vals)
    if pm != 0 and spread / abs(pm) > bound and not every_run_better:
        return "unresolved", win_share
    if win_share >= 0.9 and sign * (cm - pm) > spread and not more_failures:
        return "improved", win_share
    if sign * (cm - pm) < -bound * abs(pm):
        return "worse", win_share
    return "within bound", win_share


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(pathlib.Path(__file__).resolve().parent.parent
                                                   / "BENCHMARK.json"))
    parser.add_argument("--traced", action="store_true",
                        help="compare the per-layer records of --trace 1 runs (no verdicts)")
    args = parser.parse_args()

    spec = json.loads(pathlib.Path(args.benchmark).read_text())
    metrics = spec["per_layer"] if args.traced else spec["end_to_end"]
    parent, change = load_runs(args.parent, args.traced), load_runs(args.change, args.traced)
    any_worse = False
    for workload in sorted(set(parent) | set(change)):
        pairs = pairs_of(parent.get(workload, {}), change.get(workload, {}))
        print(f"== {workload}: {len(pairs)} pairs")
        if not pairs:
            print("   no paired runs (pair by seed: run both sides with the same seeds)")
            continue
        if len(pairs) < 10:
            print(f"   only {len(pairs)} pairs; a gain needs at least 10")
        failed_parent = sum(p["failed"] for p, _ in pairs)
        failed_change = sum(c["failed"] for _, c in pairs)
        incorrect = sum(1 for p, c in pairs for r in (p, c) if not r["correct"])
        print(f"   ops failed: parent {failed_parent}, change {failed_change}; "
              f"runs with wrong outputs: {incorrect}")
        for m in metrics:
            name = m["name"]
            pv = [p["metrics"][name]["value"] for p, _ in pairs if name in p["metrics"]]
            cv = [c["metrics"][name]["value"] for _, c in pairs if name in c["metrics"]]
            if len(pv) != len(pairs) or len(cv) != len(pairs):
                print(f"   {name:34s} missing from some runs")
                continue
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            ratio = f"{cm / pm:.4f}x" if pm else "n/a"
            line = (f"   {name:34s} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
                    f"change {cm:.6g} [{c1:.6g}, {c3:.6g}] {m['unit']}  "
                    f"change/parent {ratio} (base: parent median {pm:.6g} {m['unit']})")
            if args.traced:
                print(line)
                continue
            result, win_share = verdict(pv, cv, m["better"], m["bound"],
                                        failed_change > failed_parent)
            any_worse |= result == "worse"
            print(f"{line}  wins {win_share:.0%}  -> {result} (bound {m['bound']:.0%})")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
