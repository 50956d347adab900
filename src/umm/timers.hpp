// Time-unit accounting for bulk steps on the UMM / DMM.
//
// One *step* of a bulk execution is the same instruction executed by all p
// threads; an access step produces up to p memory requests (thread i's
// request at index i, inactive threads marked kInvalidAddr).  The timer
// splits the request vector into warps of w, charges each warp under the
// tier's WarpRule, and charges the pipelined batch time: a batch of warps
// occupying S stages completes S + l - 1 time units after the first stage
// enters the l-stage pipeline (paper Fig. 4: W(0) spanning 3 groups and W(1)
// spanning 1 at l = 5 complete at 3 + 1 + 5 - 1 = 8).  A thread holds one
// outstanding request at a time, so consecutive steps serialise on the
// latency — the l·t term of Theorems 2 and 3.
//
// AccessTimer is the only place that accounts time: the exact executor
// (umm::Machine) charges lane-level address vectors through charge_step(),
// and the closed-form estimator (bulk::TimingEstimator) charges per-step
// counts through charge_precomputed(), so the two differ only in how they
// count stages.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/types.hpp"
#include "umm/machine_config.hpp"
#include "umm/warp.hpp"

namespace obx::umm {

struct TimerStats {
  std::uint64_t access_steps = 0;   ///< steps that touched memory
  std::uint64_t compute_steps = 0;  ///< register-only steps
  std::uint64_t warps_dispatched = 0;
  std::uint64_t stages_total = 0;   ///< Σ per-warp stage counts
  /// Σ per-warp bank-conflict rounds on the shared (DMM) tier; stays zero
  /// when config.shared is disabled.
  std::uint64_t shared_rounds_total = 0;

  friend bool operator==(const TimerStats&, const TimerStats&) = default;
};

class AccessTimer {
 public:
  AccessTimer(Model model, MachineConfig config);

  /// Charges one access step: `addrs[i]` is thread i's global address, or
  /// kInvalidAddr when thread i sits this step out.  Returns the time units
  /// consumed by the step (0 when no lane is active).
  TimeUnits charge_step(std::span<const Addr> addrs);

  /// Charges one access step whose stage counts were computed elsewhere
  /// (the closed form of cost_model.hpp): total_stages over `warps`
  /// dispatched warps, costing total_stages + l - 1.  shared_rounds is the
  /// step's total bank-conflict rounds on the shared tier (0 when the tier
  /// is disabled); it adds a serialized rounds + l_s - 1 term on top.
  TimeUnits charge_precomputed(std::uint64_t total_stages, std::uint64_t warps,
                               std::uint64_t shared_rounds = 0);

  /// Charges a register-only step (zero unless config.count_compute is set).
  TimeUnits charge_compute();

  /// Total machine time.  Serialized policy (the paper's model): the sum of
  /// per-step batch times.  Overlap policy: max(total stages + l - 1,
  /// l * access steps) — the pipeline never drains between steps, bounded
  /// below by each thread's dependency chain.  Compute charges add on top in
  /// both policies, as do shared-tier conflict rounds (replays never
  /// overlap: each is a dependent re-issue of the same warp).
  TimeUnits time_units() const;

  const TimerStats& stats() const { return stats_; }
  const MachineConfig& config() const { return config_; }
  Model model() const { return model_; }

 private:
  Model model_;
  MachineConfig config_;
  WarpRule rule_;
  std::optional<WarpRule> shared_rule_;  ///< set when config.shared is enabled
  TimerStats stats_;
  TimeUnits now_ = 0;           ///< serialized clock: Σ step charges
  TimeUnits compute_units_ = 0;
  TimeUnits shared_units_ = 0;  ///< Σ per-step (rounds + l_s - 1)
};

}  // namespace obx::umm
