// Quickstart: bulk-execute the paper's prefix-sums algorithm for p inputs,
// compare the coalesced (column-wise) and non-coalesced (row-wise)
// arrangements on the simulated UMM, and verify outputs against a native
// sequential run.
//
//   $ ./examples/quickstart
#include <cstdio>
#include <span>
#include <vector>

#include "algos/prefix_sums.hpp"
#include "bulk/bulk.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "gpusim/virtual_gpu.hpp"
#include "trace/value.hpp"
#include "umm/cost_model.hpp"

int main() {
  using namespace obx;

  const std::size_t n = 64;   // elements per input
  const std::size_t p = 512;  // number of inputs (lanes)

  // 1. Build the oblivious program once; it is shared by every executor.
  const trace::Program program = algos::prefix_sums_program(n);
  std::printf("program: %s, t = %llu memory steps per input\n", program.name.c_str(),
              static_cast<unsigned long long>(algos::prefix_sums_memory_steps(n)));

  // 2. Make p random inputs, lane-major flat.
  Rng rng(2026);
  std::vector<Word> inputs;
  inputs.reserve(p * n);
  for (std::size_t j = 0; j < p; ++j) {
    const auto one = algos::prefix_sums_random_input(n, rng);
    inputs.insert(inputs.end(), one.begin(), one.end());
  }

  // 3. Bulk-execute on the host (functional results).
  const bulk::BulkOutputs outputs = bulk::run_bulk(program, inputs, p);

  // 4. Verify a few lanes against the native sequential algorithm.
  std::size_t verified = 0;
  for (std::size_t j = 0; j < p; j += 37) {
    const auto expected =
        algos::prefix_sums_reference(n, std::span<const Word>(inputs).subspan(j * n, n));
    const auto got = outputs.output(j);
    for (std::size_t i = 0; i < n; ++i) {
      if (got[i] != expected[i]) {
        std::printf("MISMATCH at lane %zu element %zu\n", j, i);
        return 1;
      }
    }
    ++verified;
  }
  std::printf("verified %zu lanes bit-exact against the sequential reference\n", verified);

  // 5. Time both arrangements on the simulated GPU (the paper's comparison).
  const gpusim::VirtualGpu gpu(gpusim::gtx_titan());
  const TimeUnits row = gpu.estimate_units(program, p, bulk::Arrangement::kRowWise);
  const TimeUnits col = gpu.estimate_units(program, p, bulk::Arrangement::kColumnWise);
  std::printf("row-wise    : %12llu time units  (%s)\n",
              static_cast<unsigned long long>(row),
              format_seconds(gpu.seconds_from_units(row)).c_str());
  std::printf("column-wise : %12llu time units  (%s)\n",
              static_cast<unsigned long long>(col),
              format_seconds(gpu.seconds_from_units(col)).c_str());
  std::printf("coalescing advantage: %.1fx (machine width w = %u)\n",
              static_cast<double>(row) / static_cast<double>(col),
              gpu.spec().memory.width);
  return 0;
}
