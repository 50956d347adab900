// The bulk layer's umbrella header: the lockstep host executor, the
// simulated machine and its layouts.  The one-call "a Program and p inputs
// to p outputs" entry point, plan::run_bulk, lives in plan/plan.hpp.
#pragma once

#include <cstddef>

#include "common/types.hpp"
#include "bulk/host_executor.hpp"
#include "bulk/layout.hpp"
#include "bulk/timing_estimator.hpp"
#include "bulk/umm_executor.hpp"
#include "trace/program.hpp"

namespace obx::bulk {

/// Builds the layout for a program/arrangement pair.  `param` is the
/// arrangement parameter: the block size for kBlocked (required) or the pad
/// stride for kConflictFree (0 = stride 1, plain column addressing); ignored
/// by row-/column-wise.
Layout make_layout(const trace::Program& program, std::size_t p, Arrangement arrangement,
                   std::size_t param = 0);

}  // namespace obx::bulk
