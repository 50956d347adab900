// Memory-bounded bulk execution: process p lanes in resident batches.
//
// Figure-scale lane counts (p = 4M at n = 32K) cannot be materialised as one
// p·n array.  Lanes are independent, so the executor streams them through in
// batches of at most max_resident_lanes: inputs are pulled from a caller
// callback, each batch runs on the lockstep host executor, outputs are
// pushed to a consumer callback, and peak memory is O(batch · n) regardless
// of p.  Results are bit-identical to a single monolithic run.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "common/simd_isa.hpp"
#include "common/types.hpp"
#include "bulk/core_pool.hpp"
#include "exec/backend.hpp"
#include "trace/program.hpp"

namespace obx::plan {
class ExecutionPlan;
}

namespace obx::bulk {

class StreamingExecutor {
 public:
  /// Compatibility shim over the planning layer (see
  /// HostBulkExecutor::Options); plan::ExecutionPlan::streaming_options()
  /// emits one from a plan.
  struct Options {
    std::size_t max_resident_lanes = 4096;  ///< peak memory = this · n words
    unsigned workers = 1;                   ///< host threads per batch
    /// Lockstep engine for each batch (see HostBulkExecutor::Options).
    exec::Backend backend = exec::Backend::kAuto;
    std::size_t tile_lanes = 0;
    std::size_t compile_budget_steps = exec::kDefaultCompileBudget;
    /// SIMD tier for each batch's compiled kernels; unset = process-wide
    /// active_simd_isa() (see HostBulkExecutor::Options::simd).
    std::optional<SimdIsa> simd{};
  };

  struct Stats {
    std::size_t batches = 0;
    std::size_t lanes = 0;
    double execute_seconds = 0.0;   ///< engine time: lockstep run and outputs
    double callback_seconds = 0.0;  ///< time spent inside fill_input/consume_output
    SchedulerStats sched;           ///< CorePool work summed over the batches
    double seconds() const { return execute_seconds + callback_seconds; }
  };

  StreamingExecutor() : StreamingExecutor(Options()) {}
  explicit StreamingExecutor(Options options);

  /// Plan-driven construction: every engine decision comes from the plan;
  /// only the resident-batch bound stays caller-chosen (it is a memory
  /// budget, not a program property — see
  /// plan::ExecutionPlan::resident_lanes_for_budget).  run() must be given
  /// plan.program() — or use plan::run_streaming().  Defined in
  /// src/plan/executor_shim.cpp: link obx_plan (or obx::obx).
  StreamingExecutor(const plan::ExecutionPlan& plan, std::size_t max_resident_lanes);

  /// Runs `program` for p lanes.  fill_input(j, dst) must write lane j's
  /// input_words into dst; consume_output(j, out) receives lane j's output
  /// region.  Callbacks are invoked from the calling thread, in lane order.
  Stats run(const trace::Program& program, std::size_t p,
            const std::function<void(Lane, std::span<Word>)>& fill_input,
            const std::function<void(Lane, std::span<const Word>)>& consume_output) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace obx::bulk
