// Signal processing: the paper's motivating bulk-FFT application.
//
// "In practical signal processing, an input stream is equally partitioned
// into many blocks, and the FFT algorithm is executed for each block in turn
// or in parallel.  This is exactly the bulk execution of the FFT algorithm."
//
// This example synthesises a long sample stream containing a few sine
// bursts, chops it into p blocks of n samples, bulk-executes the oblivious
// FFT over all blocks at once, and then scans the per-block spectra to
// locate the bursts — a toy spectrogram.
#include <cmath>
#include <cstdio>
#include <numbers>
#include <vector>

#include "algos/fft.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "gpusim/virtual_gpu.hpp"
#include "plan/plan.hpp"
#include "trace/value.hpp"

int main() {
  using namespace obx;

  const std::size_t n = 256;   // samples per block
  const std::size_t p = 512;   // blocks in the stream
  const std::size_t total = n * p;

  // 1. Synthesise the stream: noise plus two sine bursts at known offsets.
  Rng rng(7);
  std::vector<double> stream(total);
  for (double& s : stream) s = rng.next_double(-0.1, 0.1);
  struct Burst {
    std::size_t begin_block, end_block, bin;
  };
  const Burst bursts[] = {{100, 120, 16}, {300, 340, 48}};
  for (const Burst& b : bursts) {
    for (std::size_t blk = b.begin_block; blk < b.end_block; ++blk) {
      for (std::size_t i = 0; i < n; ++i) {
        const double t = static_cast<double>(blk * n + i);
        stream[blk * n + i] += std::sin(2.0 * std::numbers::pi *
                                        static_cast<double>(b.bin) * t /
                                        static_cast<double>(n));
      }
    }
  }

  // 2. Pack blocks as FFT inputs (interleaved complex, imag = 0).
  const trace::Program program = algos::fft_program(n);
  std::vector<Word> inputs(p * 2 * n);
  for (std::size_t blk = 0; blk < p; ++blk) {
    for (std::size_t i = 0; i < n; ++i) {
      inputs[blk * 2 * n + 2 * i] = trace::from_f64(stream[blk * n + i]);
      inputs[blk * 2 * n + 2 * i + 1] = trace::from_f64(0.0);
    }
  }

  // 3. Bulk-execute the FFT over all 512 blocks in lockstep.
  const plan::BulkOutputs spectra = plan::run_bulk(program, inputs, p);

  // 4. Detect bursts: a block is "hot" in bin k if |X_k| is large.
  std::printf("spectrogram scan over %zu blocks x %zu samples:\n", p, n);
  for (const Burst& b : bursts) {
    std::size_t first_hot = p, last_hot = 0;
    for (std::size_t blk = 0; blk < p; ++blk) {
      const auto spec = spectra.output(blk);
      const double re = trace::as_f64(spec[2 * b.bin]);
      const double im = trace::as_f64(spec[2 * b.bin + 1]);
      const double mag = std::sqrt(re * re + im * im);
      if (mag > static_cast<double>(n) / 4.0) {
        first_hot = std::min(first_hot, blk);
        last_hot = std::max(last_hot, blk);
      }
    }
    std::printf("  bin %3zu: hot blocks [%zu, %zu]  (injected [%zu, %zu))\n", b.bin,
                first_hot, last_hot, b.begin_block, b.end_block);
    if (first_hot != b.begin_block || last_hot + 1 != b.end_block) {
      std::printf("  detection mismatch!\n");
      return 1;
    }
  }

  // 5. What would this cost on the machine models?
  const gpusim::VirtualGpu gpu(gpusim::gtx_titan());
  std::printf("\nsimulated bulk FFT (t = %llu memory steps per block):\n",
              static_cast<unsigned long long>(algos::fft_memory_steps(n)));
  for (const auto arr : {bulk::Arrangement::kRowWise, bulk::Arrangement::kColumnWise}) {
    std::printf("  %-12s %s\n", to_string(arr).c_str(),
                format_seconds(gpu.estimate_seconds(program, p, arr)).c_str());
  }
  std::printf("ok\n");
  return 0;
}
