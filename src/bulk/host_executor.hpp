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
// the scalar interpreter p times.  An executor is built from a
// plan::ExecutionPlan and runs exactly what the plan decided.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "common/simd_isa.hpp"
#include "common/types.hpp"
#include "bulk/core_pool.hpp"
#include "exec/backend.hpp"
#include "trace/program.hpp"

namespace obx::exec {
class JitProgram;
}

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
  /// Engine that ran: always the plan's resolved engine
  /// (plan::ExecutionPlan::backend()) — kJit when it emitted native code,
  /// kCompiled when only the switch artifact exists, kInterpreted past the
  /// compile budget or when the plan asked for it.
  exec::Backend backend = exec::Backend::kInterpreted;
  /// SIMD tier the lockstep loop ran at: the plan's provenance().simd on the
  /// compiled and JIT engines; the process-wide active_simd_isa() on the
  /// interpreter, whose ALU sweeps go through trace::bulk_alu.
  SimdIsa simd = SimdIsa::kScalar;
  /// What the CorePool scheduler did for this run's one region: tile tasks,
  /// cross-thread steals, submitter parks.  For workers <= 1 runs the region
  /// executes inline on the caller and counts as one task, while steals and
  /// parks stay zero — the pool's worker threads are never touched.
  SchedulerStats sched;
};

class HostBulkExecutor {
 public:
  /// Runs of `lanes` lanes of the plan's program on the engine the plan
  /// resolved, with its tile setting, worker count and SIMD tier.  The
  /// executor shares the plan's compiled/emitted artifacts; it never
  /// compiles.  Defined in src/plan/plan.cpp: link obx_plan (or obx::obx).
  HostBulkExecutor(const plan::ExecutionPlan& plan, std::size_t lanes);

  /// Image path: runs `program` on p inputs given lane-major flat (input j
  /// occupies inputs[j*program.input_words ... )) and returns every lane's
  /// final memory in HostRunResult::memory, lane-major (p·n words).
  /// `program` must be plan.program() or a copy of it (sharing its
  /// exec_cache slot) — anything else throws std::logic_error.  Requires
  /// inputs.size() == p * program.input_words.  The program's stream factory
  /// must be safe to invoke concurrently.
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
  unsigned workers_;
  std::size_t tile_lanes_;  ///< the plan's knob; 0 = auto
  SimdIsa simd_;
  std::shared_ptr<const exec::CompiledProgram> compiled_;
  std::shared_ptr<const exec::JitProgram> jitted_;
  /// plan.program()'s memo slot: the programs this executor may run.
  std::shared_ptr<const trace::ExecCacheSlot> slot_;
};

}  // namespace obx::bulk
