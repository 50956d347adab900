// Bulk sorting: many small independent sorts, the pattern that motivates
// oblivious sorting networks on wide machines (top-k per user, per-bucket
// ordering, batched median filters, ...).
//
// p sensor windows of n readings each are sorted in bulk with the bitonic
// network; per-window medians and extrema come straight out of the sorted
// lanes.  A row-wise vs column-wise simulated comparison shows the sorting
// network — t = Θ(n log² n) — benefits from coalescing exactly like the
// paper's two case studies.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "algos/bitonic_sort.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "gpusim/virtual_gpu.hpp"
#include "plan/plan.hpp"
#include "trace/value.hpp"

int main() {
  using namespace obx;

  const std::size_t n = 128;  // readings per window
  const std::size_t p = 1024; // windows

  const trace::Program program = algos::bitonic_sort_program(n);

  // 1. Synthesise noisy sensor windows with occasional spikes.
  Rng rng(99);
  std::vector<Word> inputs(p * n);
  for (std::size_t j = 0; j < p; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      double v = 20.0 + rng.next_double(-1.0, 1.0);
      if (rng.next_below(97) == 0) v += 100.0;  // spike
      inputs[j * n + i] = trace::from_f64(v);
    }
  }

  // 2. Bulk-sort all windows.
  const plan::BulkOutputs sorted = plan::run_bulk(program, inputs, p);

  // 3. Validate (sortedness + permutation) and extract robust statistics.
  std::size_t spiky_windows = 0;
  double median_lo = 1e300, median_hi = -1e300;
  for (std::size_t j = 0; j < p; ++j) {
    const auto win = sorted.output(j);
    std::vector<double> expect(n);
    for (std::size_t i = 0; i < n; ++i) expect[i] = trace::as_f64(inputs[j * n + i]);
    std::sort(expect.begin(), expect.end());
    for (std::size_t i = 0; i < n; ++i) {
      if (trace::as_f64(win[i]) != expect[i]) {
        std::printf("window %zu not correctly sorted at %zu\n", j, i);
        return 1;
      }
    }
    const double median = trace::as_f64(win[n / 2]);
    median_lo = std::min(median_lo, median);
    median_hi = std::max(median_hi, median);
    if (trace::as_f64(win[n - 1]) > 60.0) ++spiky_windows;
  }
  std::printf("sorted %zu windows of %zu readings; medians in [%.2f, %.2f]; "
              "%zu windows contain spikes\n",
              p, n, median_lo, median_hi, spiky_windows);

  // 4. Simulated arrangement comparison for the sorting network.
  const gpusim::VirtualGpu gpu(gpusim::gtx_titan());
  const double row = gpu.estimate_seconds(program, p, bulk::Arrangement::kRowWise);
  const double col = gpu.estimate_seconds(program, p, bulk::Arrangement::kColumnWise);
  std::printf("simulated bulk bitonic sort: row-wise %s, column-wise %s (%.1fx)\n",
              format_seconds(row).c_str(), format_seconds(col).c_str(), row / col);
  std::printf("ok\n");
  return 0;
}
