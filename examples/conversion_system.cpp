// The conversion system (paper Section VI, future work): "a conversion
// system that automatically converts a sequential program ... for the bulk
// execution".
//
// A user writes a *new* sequential algorithm — here, second-order exponential
// smoothing of a time series — against the Recorder's value handles.  The
// recording is automatically an oblivious program: it is checked, profiled,
// bulk-executed on both arrangements, and timed on the simulated UMM, with
// zero algorithm-specific parallel code.
#include <cstdio>
#include <vector>

#include "common/format.hpp"
#include "common/rng.hpp"
#include "gpusim/virtual_gpu.hpp"
#include "plan/plan.hpp"
#include "trace/oblivious_checker.hpp"
#include "trace/recorder.hpp"
#include "trace/value.hpp"

int main() {
  using namespace obx;

  const std::size_t n = 128;  // series length
  const std::size_t p = 256;  // series count
  const double alpha = 0.25;

  // 1. Write the sequential algorithm.  No obx internals beyond the typed
  //    handles: this reads like the plain double-loop it replaces.
  trace::Recorder rec(2 * n);  // input series at [0, n), smoothed at [n, 2n)
  {
    auto a = rec.fimm(alpha);
    auto one_minus_a = rec.fimm(1.0 - alpha);
    auto level = rec.fload(0);
    auto trend = rec.fimm(0.0);
    rec.fstore(n, level);
    for (Addr i = 1; i < n; ++i) {
      auto x = rec.fload(i);
      auto prev_level = level;
      level = a * x + one_minus_a * (level + trend);
      trend = a * (level - prev_level) + one_minus_a * trend;
      rec.fstore(n + i, level);
    }
  }
  const trace::Program program =
      std::move(rec).finish("double-exp-smoothing", n, n, n);
  std::printf("recorded '%s': %llu steps, %zu registers, t = %llu memory steps\n",
              program.name.c_str(),
              static_cast<unsigned long long>(program.profile().total()),
              program.register_count,
              static_cast<unsigned long long>(program.memory_steps()));

  // 2. The conversion is oblivious by construction; verify mechanically.
  const auto report = trace::check_program(program, 3);
  if (!report.oblivious) {
    std::printf("NOT oblivious: %s\n", report.detail.c_str());
    return 1;
  }
  std::printf("obliviousness check: passed (%zu-entry access function)\n",
              report.access_function.size());

  // 3. Bulk-execute p series and spot-check against a native loop.
  Rng rng(21);
  std::vector<Word> inputs;
  for (std::size_t j = 0; j < p; ++j) {
    const auto series = rng.words_f64(n, 0.0, 100.0);
    inputs.insert(inputs.end(), series.begin(), series.end());
  }
  const plan::BulkOutputs out = plan::run_bulk(program, inputs, p);

  for (std::size_t j = 0; j < p; j += 63) {
    double level = trace::as_f64(inputs[j * n]);
    double trend = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0) {
        const double x = trace::as_f64(inputs[j * n + i]);
        const double prev = level;
        level = alpha * x + (1.0 - alpha) * (level + trend);
        trend = alpha * (level - prev) + (1.0 - alpha) * trend;
      }
      if (trace::as_f64(out.output(j)[i]) != level) {
        std::printf("mismatch at series %zu element %zu\n", j, i);
        return 1;
      }
    }
  }
  std::printf("bulk smoothing of %zu series verified against the native loop\n", p);

  // 4. Simulated cost, both arrangements.
  const gpusim::VirtualGpu gpu(gpusim::gtx_titan());
  for (const auto arr : {bulk::Arrangement::kRowWise, bulk::Arrangement::kColumnWise}) {
    std::printf("  %-12s %s\n", to_string(arr).c_str(),
                format_seconds(gpu.estimate_seconds(program, p, arr)).c_str());
  }
  std::printf("ok\n");
  return 0;
}
