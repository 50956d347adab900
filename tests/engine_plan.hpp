// Plans for tests that drive one host engine directly.
#pragma once

#include <memory>

#include "plan/planner.hpp"
#include "trace/program.hpp"

namespace obx::test {

/// A one-off plan (plan::one_off) of `program`: the plan's program is
/// `program` itself, so every memory word stays comparable with
/// trace::interpret of it.  Engine, tile, workers, budget and SIMD pin come
/// from `options` (by default one worker on the auto engine).
inline std::shared_ptr<const plan::ExecutionPlan> engine_plan(
    const trace::Program& program, plan::PlanOptions options = {.workers = 1}) {
  return plan::build_plan(program, plan::one_off(options));
}

}  // namespace obx::test
