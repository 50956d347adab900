#!/usr/bin/env bash
# Golden-plan check: `obx_cli plan <algorithm>` must print exactly the
# checked-in decision record for every program in the registry.  Any drift in
# the optimise/compile/arrange/tile pipeline (or in the plan fingerprint)
# shows up as a diff here before it shows up as a perf or semantics surprise.
#
#   check_plan_golden.sh <obx_cli> <golden_dir>            # diff (CI mode)
#   check_plan_golden.sh <obx_cli> <golden_dir> --update   # regenerate goldens
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 <obx_cli> <golden_dir> [--update]" >&2
  exit 2
fi

cli="$1"
golden_dir="$2"
mode="${3:-check}"

# Plans record the active SIMD tier (and fold it into the fingerprint), which
# depends on the host CPU.  Pin the scalar tier so the goldens are
# host-independent; the SIMD tiers themselves are covered by
# exec_equivalence_test, which asserts bit-identical results in-process.
export OBX_SIMD=scalar
# Likewise the CorePool size lands in the provenance and the fingerprint;
# fix a one-worker pool so the goldens don't depend on the runner's core
# count.  The real pool shapes are covered by core_pool_test /
# fuzz_differential_test in-process.
export OBX_WORKERS=1
# The goldens plan with the default backend (kAuto), which never emits JIT
# code, so their `jit` line reads "skipped (auto backend)" on every host.  The
# JIT itself is covered by exec_jit_test / fuzz_differential_test in-process.

if [[ "$mode" == "--update" ]]; then
  mkdir -p "$golden_dir"
fi

failures=0
count=0
while IFS= read -r algo; do
  count=$((count + 1))
  golden="$golden_dir/$algo.txt"
  if [[ "$mode" == "--update" ]]; then
    "$cli" plan "$algo" > "$golden"
    echo "updated $golden"
    continue
  fi
  if [[ ! -f "$golden" ]]; then
    echo "MISSING golden for '$algo' ($golden); run with --update" >&2
    failures=$((failures + 1))
    continue
  fi
  if ! diff -u "$golden" <("$cli" plan "$algo"); then
    echo "PLAN DRIFT for '$algo' (golden: $golden); if intended, regenerate" \
         "with: $0 $cli $golden_dir --update" >&2
    failures=$((failures + 1))
  fi
done < <("$cli" list --names)

if [[ "$count" -eq 0 ]]; then
  echo "no algorithms listed by '$cli list --names'" >&2
  exit 1
fi

if [[ "$mode" != "--update" ]]; then
  if [[ "$failures" -ne 0 ]]; then
    echo "$failures/$count plans drifted from their goldens" >&2
    exit 1
  fi
  echo "all $count plans match their goldens"
fi
