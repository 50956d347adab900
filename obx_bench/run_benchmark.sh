#!/usr/bin/env bash
# The benchmark's one command.  From the repository root:
#
#   bash obx_bench/run_benchmark.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds obx_bench (Release, only the library targets it links) into
# .bench_build/obx_bench on first use, then runs one workload in a process of
# its own.  Without --workload it runs all three workloads, one process each,
# with the remaining arguments.  Results land in bench_results/obx_bench/.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
repo=$(cd "$bench_dir/.." && pwd)
build_dir="$repo/.bench_build/obx_bench"

if [[ ! -f "$repo/src/CMakeLists.txt" || ! -f "$repo/CMakeLists.txt" ]]; then
  echo "run_benchmark.sh: no obx sources under $repo; run it from a full checkout" >&2
  exit 2
fi

jobs=$(nproc 2>/dev/null || echo 2)
if (( jobs > 4 )); then jobs=4; fi
if [[ ! -f "$build_dir/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "$bench_dir" -B "$build_dir" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build_dir" --target obx_bench -j "$jobs" >&2

cd "$repo"
for arg in "$@"; do
  if [[ "$arg" == --workload || "$arg" == --workload=* ]]; then
    exec "$build_dir/obx_bench" "$@"
  fi
done

status=0
for workload in bulk-registry serve-mixed net-loopback; do
  "$build_dir/obx_bench" --workload "$workload" "$@" || status=1
done
exit "$status"
