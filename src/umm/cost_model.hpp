// Closed-form cost model of bulk oblivious execution on the UMM / DMM.
//
// Two layers:
//  1. StridedStepCost — the exact per-step stage count for the layouts used
//     by bulk execution.  In every arrangement with the uniform-residue
//     property, the global addresses of one step form an arithmetic
//     progression over lanes:
//       global(j) = base + j * stride        (j = lane index)
//     with stride = n (row-wise), 1 (column-wise) or the pad stride
//     (conflict-free).  A warp's charge under a WarpRule depends only on its
//     base modulo rule.modulus(), and warp-to-warp bases advance by a fixed
//     delta, so the residues cycle with a short period.  The class memoises
//     the per-residue counts, making the per-step cost O(period) — O(1) for
//     the paper's models — which is what lets figure-scale sweeps run to
//     p = 4M without materialising p·n words.  One instance prices the global
//     tier, another the shared tier; umm::AccessTimer turns the counts into
//     time.
//  2. The paper's asymptotic bounds (Lemma 1, Theorem 2, Theorem 3) as
//     directly evaluable formulas, used by tests and the theory-vs-simulation
//     ablation bench.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "umm/machine_config.hpp"
#include "umm/warp.hpp"

namespace obx::umm {

/// Exact stage/warp counts of one bulk access step whose lane j accesses
/// global address base + j*stride, for lanes 0..p-1.
struct StepStages {
  std::uint64_t stages = 0;  ///< Σ per-warp stage counts (rounds, on a bank rule)
  std::uint64_t warps = 0;   ///< warps dispatched
};

class StridedStepCost {
 public:
  /// rule: the tier's warp charge; width: warp width; p: number of lanes
  /// (threads); stride: lane-to-lane address distance.
  StridedStepCost(WarpRule rule, std::uint32_t width, std::uint64_t p,
                  std::uint64_t stride);

  /// Stage/warp counts of the step with the given base address.  O(1) after
  /// the residue cycle of base has been seen once.
  StepStages stages(Addr base) const;

 private:
  std::uint64_t count_for_residue(std::uint64_t residue, std::uint64_t lanes) const;
  std::uint64_t memoised_full(std::uint64_t residue) const;

  WarpRule rule_;
  std::uint32_t width_;
  std::uint64_t stride_;
  std::uint64_t full_warps_;
  std::uint64_t tail_lanes_;
  std::uint64_t modulus_;  ///< rule_.modulus()
  // Warp-to-warp base advance modulo the modulus.  0 for the paper's models
  // (w * stride ≡ 0 mod w); nonzero with the transaction extension or a
  // shared tier, in which case residues cycle with period
  // modulus_ / gcd(delta, modulus_).
  std::uint64_t delta_;
  std::uint64_t period_;
  // Memoised per-warp counts, indexed by base mod modulus_; 0 = not yet known
  // (a dispatched warp always occupies >= 1 stage).
  mutable std::vector<std::uint64_t> full_warp_count_;
  mutable std::vector<std::uint64_t> tail_warp_count_;
};

// ---------------------------------------------------------------------------
// Paper formulas.  All return time units on a machine with width w, latency l.
// ---------------------------------------------------------------------------

/// Lemma 1, row-wise: prefix-sums of p arrays of size n, arranged p×n.
/// 2n access steps (one read + one write per element), each p + l - 1 units.
TimeUnits lemma1_row_wise(std::uint64_t n, std::uint64_t p, const MachineConfig& cfg);

/// Lemma 1, column-wise: 2n access steps of ceil(p/w) + l - 1 units each.
TimeUnits lemma1_column_wise(std::uint64_t n, std::uint64_t p, const MachineConfig& cfg);

/// Theorem 2, row-wise: any oblivious algorithm with t memory steps.
TimeUnits theorem2_row_wise(std::uint64_t t, std::uint64_t p, const MachineConfig& cfg);

/// Theorem 2, column-wise (the coalesced, time-optimal arrangement).
TimeUnits theorem2_column_wise(std::uint64_t t, std::uint64_t p, const MachineConfig& cfg);

/// Theorem 3: Ω(pt/w + lt) lower bound for any bulk execution of an
/// oblivious algorithm with t memory steps; returned as max(⌈pt/w⌉, lt).
TimeUnits theorem3_lower_bound(std::uint64_t t, std::uint64_t p, const MachineConfig& cfg);

}  // namespace obx::umm
