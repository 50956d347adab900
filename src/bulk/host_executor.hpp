// Lockstep host execution of a bulk oblivious program.
//
// This is the functional analogue of the paper's CUDA kernels: every step of
// the oblivious program is applied across a whole tile of lanes before the
// next step begins, with registers and memory stored lane-interleaved
// (structure-of-arrays) so every step runs over contiguous memory and
// vectorises.  All three engines (interpreted, compiled, JIT) run through
// exec's one tile driver and return lane-major results: the data
// arrangement is a property of the simulated machine (bulk::Layout,
// UmmBulkExecutor), not of the host.  Results are bit-identical to running
// the scalar interpreter p times.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "common/simd_isa.hpp"
#include "common/types.hpp"
#include "bulk/core_pool.hpp"
#include "exec/backend.hpp"
#include "trace/program.hpp"

namespace obx::plan {
class ExecutionPlan;
}

namespace obx::bulk {

struct HostRunResult {
  /// Final memory of every lane after run(): p·n words, lane j's canonical
  /// word a at memory[j·n + a], 64-byte aligned.  Compares equal to a plain
  /// std::vector<Word> with the same contents (see common/aligned.hpp).
  /// Empty after run_outputs(), on every engine.
  aligned_vector<Word> memory;
  trace::StepCounts counts;   ///< steps in one program stream (per input)
  /// Wall-clock of the tile driver — staging, lockstep and the epilogue —
  /// on every engine.  Allocating the result is excluded.
  double seconds = 0.0;
  /// Engine that actually ran: kJit when emitted zero-dispatch code executed,
  /// kCompiled when the switch backend did (requested, or JIT emission
  /// unavailable), kInterpreted when the program exceeded the compile budget.
  exec::Backend backend = exec::Backend::kInterpreted;
  /// SIMD tier the lockstep loop ran at (Options::simd if set — compiled
  /// backend only — else the process-wide active_simd_isa()).
  SimdIsa simd = SimdIsa::kScalar;
  /// What the CorePool scheduler did for this run's one region: tile tasks,
  /// cross-thread steals, submitter parks.  For workers <= 1 runs the region
  /// executes inline on the caller and counts as one task, while steals and
  /// parks stay zero — the pool's worker threads are never touched.
  SchedulerStats sched;
};

class HostBulkExecutor {
 public:
  /// Compatibility shim over the planning layer: an Options struct carries
  /// exactly the decisions plan::ExecutionPlan::host_options() emits for a
  /// one-off plan.  New code should plan once (plan::Planner / PlanCache)
  /// and use the plan-driven constructor below.
  struct Options {
    /// Parallelism target per bulk run: lane tiles are executed by up to
    /// this many threads of the shared bulk::CorePool (the caller counts as
    /// one).  1 = run inline on the caller; 0 = auto (default_worker_count).
    unsigned workers = 1;
    /// Lockstep engine.  kAuto / kJit / kCompiled compile the step stream
    /// once per (program, process) and run fused lane-tiled kernels — kAuto
    /// and kJit additionally emit per-segment native code (copy-and-patch,
    /// zero dispatch) when the platform and OBX_JIT allow it.  Every rung
    /// falls back down the ladder: jit -> compiled switch -> interpreter.
    exec::Backend backend = exec::Backend::kAuto;
    std::size_t tile_lanes = 0;  ///< compiled lane-tile size; 0 = auto (fit L1 + L2)
    std::size_t compile_budget_steps = exec::kDefaultCompileBudget;
    /// SIMD tier for the compiled backend's lane-vectorized kernels.
    /// Unset = the process-wide active_simd_isa() (OBX_SIMD-overridable).
    /// Setting it pins this executor's runs to one tier regardless of the
    /// environment — every tier is bit-identical, so this is pure tuning
    /// (and how tests compare scalar against vector in one process).  The
    /// interpreted backend ignores it: its ALU sweeps go through
    /// trace::bulk_alu, whose tier is latched process-wide.
    std::optional<SimdIsa> simd{};
  };

  explicit HostBulkExecutor(std::size_t lanes);
  HostBulkExecutor(std::size_t lanes, Options options);

  /// Plan-driven construction: backend, tile size, compile budget and worker
  /// count all come from the plan, for runs of `lanes` lanes.  run() must be
  /// given plan.program() (the plan's optimised program) — or use
  /// plan::run(), which cannot get the pairing wrong.  Defined in
  /// src/plan/executor_shim.cpp: link obx_plan (or obx::obx).
  HostBulkExecutor(const plan::ExecutionPlan& plan, std::size_t lanes);

  /// Image path: runs `program` on p inputs given lane-major flat (input j
  /// occupies inputs[j*program.input_words ... )) and returns every lane's
  /// final memory in HostRunResult::memory, lane-major (p·n words).
  /// Requires inputs.size() == p * program.input_words.  The program's
  /// stream factory must be safe to invoke concurrently.
  HostRunResult run(const trace::Program& program, std::span<const Word> inputs) const;

  /// Output path: as run(), but each tile's epilogue copies only the lane's
  /// output region, straight into `outputs` (resized to p * output_words,
  /// lane-major); HostRunResult::memory stays empty on every engine.
  HostRunResult run_outputs(const trace::Program& program, std::span<const Word> inputs,
                            std::vector<Word>& outputs) const;

  /// Extracts each lane's declared output region from run()'s lane-major
  /// memory, returned lane-major flat (p * output_words).
  std::vector<Word> gather_outputs(const trace::Program& program,
                                   std::span<const Word> memory) const;

  /// As above, writing into `out` (resized to p * output_words) so repeated
  /// runs reuse one allocation.
  void gather_outputs(const trace::Program& program, std::span<const Word> memory,
                      std::vector<Word>& out) const;

  std::size_t lanes() const { return lanes_; }

 private:
  /// run() when `outputs` is null, run_outputs() otherwise.
  HostRunResult execute(const trace::Program& program, std::span<const Word> inputs,
                        std::vector<Word>* outputs) const;

  std::size_t lanes_;
  Options options_;
};

}  // namespace obx::bulk
