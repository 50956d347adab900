// The on-chip shared-memory tier: a Discrete Memory Machine below the UMM.
//
// The paper's UMM charges global-memory coalescing and latency only.  Real
// GPUs put a banked shared memory (a DMM in Nakano's taxonomy) next to each
// core: a warp access that lands b requests on one bank is replayed b times
// ("bank-conflict rounds"), and the replays — not the latency — dominate the
// on-chip cost.  The Sitchinava line of work ("Bank Conflict Free
// Comparison-based Sorting On GPUs", "Sorting and Permuting without Bank
// Conflicts on GPUs") shows padded/strided layouts remove the replays
// entirely, which is what bulk::Arrangement::kConflictFree implements.
//
// SharedTier parameterises that memory: `banks` buses of `bank_words`-word
// rows, pipeline depth `latency`.  Word a lives in bank (a / bank_words) mod
// banks — bank_words > 1 models element types wider than a physical bank row
// (e.g. 64-bit words on 32-bit banks), the configuration where the naive
// stride-1 layout conflicts and the conflict-free stride pays off.
//
// The tier's charge is umm::WarpRule::shared (warp.hpp), the same bank
// counter as the DMM's, priced per step by umm::StridedStepCost and charged
// by umm::AccessTimer.
#pragma once

#include <cstdint>

namespace obx::umm {

/// Banked shared-memory (DMM) tier parameters.  banks == 0 disables the tier
/// entirely: no charges, conflict_free_stride() == 1, and the machine is the
/// paper's pure UMM.
struct SharedTier {
  std::uint32_t banks = 0;       ///< bank count; 0 = tier disabled
  std::uint32_t bank_words = 1;  ///< words per bank row (conflict granule)
  std::uint32_t latency = 1;     ///< l_s: shared-memory pipeline depth

  bool enabled() const { return banks > 0; }

  /// Throws std::logic_error when enabled with zero bank_words or latency.
  void validate() const;

  friend bool operator==(const SharedTier&, const SharedTier&) = default;
};

/// Lane-to-lane stride of the conflict-free arrangement: bank_words, so
/// consecutive lanes hit consecutive banks regardless of the bank row size.
/// 1 when the tier is disabled (the layout degenerates to column-wise).
std::uint64_t conflict_free_stride(const SharedTier& tier);

}  // namespace obx::umm
