#!/usr/bin/env bash
# Registry-coverage gate: every algorithm `obx_cli list --names` reports must
# have (a) a checked-in golden plan record and (b) cases in the registry-
# driven exec_equivalence_test sweep.  This is what makes "add an algorithm"
# a closed loop — registering a program without goldens or equivalence
# coverage fails CI instead of silently shipping an untested workload.
#
#   check_registry_coverage.sh <obx_cli> <golden_dir> <exec_equivalence_test>
set -euo pipefail

if [[ $# -ne 3 ]]; then
  echo "usage: $0 <obx_cli> <golden_dir> <exec_equivalence_test>" >&2
  exit 2
fi

cli="$1"
golden_dir="$2"
equivalence="$3"

# gtest parameter names flatten '-' to '_' (see exec_equivalence_test.cpp).
tests="$("$equivalence" --gtest_list_tests)"

failures=0
count=0
while IFS= read -r algo; do
  count=$((count + 1))
  if [[ ! -f "$golden_dir/$algo.txt" ]]; then
    echo "NO GOLDEN PLAN for '$algo': run tests/check_plan_golden.sh --update" >&2
    failures=$((failures + 1))
  fi
  flat="${algo//-/_}"
  # Lane-count cases (<algorithm>_<engine>_p<lanes>) for every host engine
  # must appear in the sweep.
  for engine in interpreted compiled jit; do
    if ! grep -q "/${flat}_${engine}_p" <<< "$tests"; then
      echo "NO EQUIVALENCE COVERAGE for '$algo' (${engine}):" \
           "is it missing test_sizes?" >&2
      failures=$((failures + 1))
    fi
  done
done < <("$cli" list --names)

if [[ "$count" -eq 0 ]]; then
  echo "no algorithms listed by '$cli list --names'" >&2
  exit 1
fi
if [[ "$failures" -ne 0 ]]; then
  echo "$failures coverage gaps across $count registered algorithms" >&2
  exit 1
fi
echo "all $count registered algorithms have golden plans and equivalence coverage"
