#include "bulk/streaming_executor.hpp"

#include <chrono>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "bulk/bulk.hpp"
#include "bulk/host_executor.hpp"

namespace obx::bulk {

StreamingExecutor::StreamingExecutor(Options options) : options_(options) {
  OBX_CHECK(options_.max_resident_lanes > 0, "need at least one resident lane");
}

StreamingExecutor::Stats StreamingExecutor::run(
    const trace::Program& program, std::size_t p,
    const std::function<void(Lane, std::span<Word>)>& fill_input,
    const std::function<void(Lane, std::span<const Word>)>& consume_output) const {
  OBX_CHECK(program.stream != nullptr, "program has no stream factory");
  OBX_CHECK(fill_input != nullptr && consume_output != nullptr, "callbacks required");

  Stats stats;
  stats.lanes = p;
  using Clock = std::chrono::steady_clock;
  const auto elapsed = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };

  const HostBulkExecutor::Options exec_options{
      .workers = options_.workers,
      .backend = options_.backend,
      .tile_lanes = options_.tile_lanes,
      .compile_budget_steps = options_.compile_budget_steps,
      .simd = options_.simd};
  // All full batches share one layout/executor; only a trailing partial
  // batch (batch size changes at most once) forces a rebuild.
  std::optional<HostBulkExecutor> exec;
  std::size_t exec_batch = 0;
  std::vector<Word> inputs;
  std::vector<Word> outputs;
  for (Lane base = 0; base < p; base += options_.max_resident_lanes) {
    const std::size_t batch = std::min<std::size_t>(options_.max_resident_lanes, p - base);
    inputs.assign(batch * program.input_words, Word{0});
    const auto fill_start = Clock::now();
    for (std::size_t j = 0; j < batch; ++j) {
      fill_input(base + j,
                 std::span<Word>(inputs.data() + j * program.input_words,
                                 program.input_words));
    }

    const auto exec_start = Clock::now();
    if (!exec.has_value() || exec_batch != batch) {
      exec.emplace(make_layout(program, batch, options_.arrangement,
                               options_.arrangement_param),
                   exec_options);
      exec_batch = batch;
    }
    stats.sched += exec->run_outputs(program, inputs, outputs).sched;
    const auto consume_start = Clock::now();
    for (std::size_t j = 0; j < batch; ++j) {
      consume_output(base + j,
                     std::span<const Word>(outputs.data() + j * program.output_words,
                                           program.output_words));
    }
    const auto batch_end = Clock::now();
    stats.callback_seconds +=
        elapsed(fill_start, exec_start) + elapsed(consume_start, batch_end);
    stats.execute_seconds += elapsed(exec_start, consume_start);
    ++stats.batches;
  }
  return stats;
}

}  // namespace obx::bulk
