// Closed-form-per-step timing of bulk execution: the figure-scale fast path.
//
// Produces exactly the same time units and counters as UmmBulkExecutor (a
// property the test suite asserts), but in O(1) per step instead of O(p):
// within one step, every full warp's addresses form the same residue class
// of the same arithmetic progression (see Layout), so the per-warp stage
// count is a single memoised lookup.  The counts are charged through the
// same umm::AccessTimer the exact executor uses.  No data is allocated —
// p = 4M sweeps of the paper's Figures 11-12 run in seconds.
#pragma once

#include <cstdint>
#include <optional>

#include "common/types.hpp"
#include "bulk/layout.hpp"
#include "trace/program.hpp"
#include "umm/cost_model.hpp"
#include "umm/machine_config.hpp"
#include "umm/timers.hpp"

namespace obx::bulk {

struct TimingResult {
  TimeUnits time_units = 0;
  umm::TimerStats stats;  ///< the counters UmmRunResult carries
};

class TimingEstimator {
 public:
  /// Requires supports(config, layout).
  TimingEstimator(umm::Model model, umm::MachineConfig config, Layout layout);

  /// True when the fast path accepts this (config, layout) pair: the layout
  /// must have uniform warp residues at the machine width — always true for
  /// row-/column-wise and conflict-free, for blocked layouts when the width
  /// divides the block.  Blocked layouts are further refused off the paper's
  /// group size and with the shared tier enabled, where block-to-block jumps
  /// break the residue cycle; simulate_units() below falls back to the exact
  /// executor for them.
  static bool supports(const umm::MachineConfig& config, const Layout& layout);

  /// Streams the program once, charging each step's closed-form counts.
  TimingResult run(const trace::Program& program) const;

 private:
  umm::Model model_;
  umm::MachineConfig config_;
  Layout layout_;
  umm::StridedStepCost global_cost_;
  std::optional<umm::StridedStepCost> shared_cost_;
};

/// Simulated time units of `program` over `layout` on the given machine:
/// the TimingEstimator fast path when it applies, else an exact
/// UmmBulkExecutor run on all-zero inputs — valid because the programs are
/// oblivious, so their address trace (hence timing) is input-independent.
/// This is what the Planner's arrangement search charges each candidate.
TimeUnits simulate_units(const trace::Program& program, const Layout& layout,
                         umm::Model model, const umm::MachineConfig& config);

}  // namespace obx::bulk
