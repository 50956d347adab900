#include "bulk/host_executor.hpp"

#include <algorithm>
#include <chrono>
#include <functional>

#include "common/check.hpp"
#include "bulk/core_pool.hpp"
#include "exec/jit/jit_program.hpp"

namespace obx::bulk {

HostRunResult HostBulkExecutor::run(const trace::Program& program,
                                    std::span<const Word> inputs) const {
  return execute(program, inputs, nullptr);
}

HostRunResult HostBulkExecutor::run_outputs(const trace::Program& program,
                                            std::span<const Word> inputs,
                                            std::vector<Word>& outputs) const {
  return execute(program, inputs, &outputs);
}

HostRunResult HostBulkExecutor::execute(const trace::Program& program,
                                        std::span<const Word> inputs,
                                        std::vector<Word>* outputs) const {
  // The plan's artifacts were built from plan.program(); any other program
  // would run on someone else's compiled segments.
  OBX_CHECK(program.exec_cache == slot_,
            "executor runs only its plan's program (plan.program() or a copy)");
  OBX_CHECK(program.stream != nullptr, "program has no stream factory");
  OBX_CHECK(inputs.size() == lanes_ * program.input_words,
            "inputs must be lane-major flat: p * input_words words");
  OBX_CHECK(program.register_count <= 256, "register file limited to 256");

  HostRunResult result;
  const std::size_t p = lanes_;

  // Every engine ends each tile with the same lane-major epilogue: the
  // output window on the output path, every word of every lane on the image
  // path.
  exec::TileSink sink;
  if (outputs != nullptr) {
    outputs->resize(p * program.output_words);
    sink = exec::TileSink::outputs(*outputs, program.output_offset, program.output_words);
  } else {
    result.memory.resize(p * program.memory_words);
    sink = exec::TileSink::outputs(result.memory, 0, program.memory_words);
  }

  std::size_t grain = 0;
  std::function<void(std::size_t, std::size_t)> body;
  if (compiled_ != nullptr) {
    result.backend = jitted_ != nullptr ? exec::Backend::kJit : exec::Backend::kCompiled;
    result.counts = compiled_->counts();
    result.simd = simd_;
    const std::size_t tile =
        exec::resolve_tile_lanes(tile_lanes_, compiled_->register_count(),
                                 program.memory_words, p, simd_width_words(simd_));
    // One pool task per lane tile (not per worker): whoever is free claims
    // the next tile, so a ragged tail spreads across the workers, and
    // grain == tile keeps the task boundaries exactly the cache-sized,
    // W-multiple tiles the kernels already use.
    grain = tile;
    body = [&, tile](std::size_t begin, std::size_t end) {
      if (jitted_ != nullptr) {
        exec::run_jit_chunk(*jitted_, inputs, program.input_words, sink, begin, end, tile);
      } else {
        exec::run_compiled_chunk(*compiled_, inputs, program.input_words, sink, begin, end,
                                 tile, simd_);
      }
    };
  } else {
    result.simd = SimdIsa::kScalar;  // trace::bulk_alu has no SIMD tier
    // Coarse chunks (~4 per worker), not per-tile: every interpreted chunk
    // re-drains the program stream, so the grain must amortise that cost.
    // The chunk containing lane 0 reports the per-input step counts.
    grain = chunk_grain(p, workers_);
    body = [&](std::size_t begin, std::size_t end) {
      exec::run_interpreted_chunk(program, inputs, sink, begin, end,
                                  begin == 0 ? &result.counts : nullptr);
    };
  }

  const auto t0 = std::chrono::steady_clock::now();
  result.sched = CorePool::instance().parallel_for(p, grain, workers_, body);
  const auto t1 = std::chrono::steady_clock::now();
  result.seconds = std::chrono::duration<double>(t1 - t0).count();
  return result;
}

std::vector<Word> HostBulkExecutor::gather_outputs(const trace::Program& program,
                                                   std::span<const Word> memory) const {
  std::vector<Word> out;
  gather_outputs(program, memory, out);
  return out;
}

void HostBulkExecutor::gather_outputs(const trace::Program& program,
                                      std::span<const Word> memory,
                                      std::vector<Word>& out) const {
  const std::size_t p = lanes_;
  const std::size_t n = program.memory_words;
  const std::size_t ow = program.output_words;
  OBX_CHECK(memory.size() == p * n, "memory must be lane-major: p * memory_words words");
  out.resize(p * ow);
  if (ow == 0) return;
  CorePool::instance().parallel_for(
      p, chunk_grain(p, workers_), workers_, [&](std::size_t begin, std::size_t end) {
        for (Lane j = begin; j < end; ++j) {
          const Word* src = memory.data() + j * n + program.output_offset;
          std::copy(src, src + ow, out.data() + j * ow);
        }
      });
}

}  // namespace obx::bulk
