// Planner: the single implementation of the optimise → compile → arrange →
// tile decision path.
//
// Every host run in the tree is planned here — serve::ProgramCache,
// advisor::Session, plan::run_bulk, the differential fuzzer and obx_cli —
// and executors only run what a plan decided, so the decisions cannot drift
// between layers.  The build is deterministic: the same (program stream,
// options) always produce the same decisions and the same
// ExecutionPlan::fingerprint().
#pragma once

#include <memory>

#include "plan/plan.hpp"

namespace obx::plan {

class Planner {
 public:
  Planner() : Planner(PlanOptions{}) {}
  /// Validates `options` (throws std::logic_error when invalid).
  explicit Planner(PlanOptions options);

  /// Builds an immutable plan for `program`:
  ///   1. optimise  — peephole passes, adopted only when steps were removed;
  ///   2. compile   — drain + fuse once into the program's shared exec_cache
  ///                  slot (over-budget => interpreter fallback, recorded),
  ///                  then emit native code for the plan's SIMD tier where
  ///                  the backend and host allow (else the switch engine);
  ///   3. arrange   — search the four arrangements by simulated units at
  ///                  reference_lanes (or honour a forced arrangement,
  ///                  simulating nothing);
  ///   4. tile      — record the lane-tile resolution at reference_lanes.
  /// The program is taken by value: the plan owns its (possibly rewritten)
  /// copy, and the caller's exec_cache slot is shared, not duplicated.
  std::shared_ptr<const ExecutionPlan> build(trace::Program program) const;

  const PlanOptions& options() const { return options_; }

 private:
  PlanOptions options_;
};

/// One-shot convenience for callers without a Planner to reuse.
inline std::shared_ptr<const ExecutionPlan> build_plan(trace::Program program,
                                                       const PlanOptions& options) {
  return Planner(options).build(std::move(program));
}

}  // namespace obx::plan
