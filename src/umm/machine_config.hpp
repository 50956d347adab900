// Parameters of the memory machine models (UMM / DMM).
//
// Both models (Nakano, "Simple memory machine models for GPUs", and the paper
// reproduced here) are parameterised by
//   w — the memory width: number of memory banks, which equals the number of
//       threads per warp, and
//   l — the memory access latency: an access traverses an l-stage pipeline.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "umm/dmm.hpp"

namespace obx::umm {

/// Which of the two sibling machine models is being simulated.
enum class Model : std::uint8_t {
  kUmm,  ///< Unified Memory Machine: one address bus; a warp request spanning
         ///< k address groups occupies k pipeline stages.
  kDmm,  ///< Discrete Memory Machine: per-bank address buses; a warp request
         ///< with at most c accesses to one bank occupies c stages.
};

struct MachineConfig {
  std::uint32_t width = 32;   ///< w: banks per machine = threads per warp.
  std::uint32_t latency = 1;  ///< l: pipeline depth of the memory subsystem.

  /// When true, register-only (non-memory) steps are charged one time unit
  /// each.  The paper's analysis charges local computation zero time; flip
  /// this on to study compute-bound oblivious programs (e.g. ciphers).
  bool count_compute = false;

  /// Transaction-granularity extension: size of an address group in words.
  /// 0 (the default) means "= width", the paper's pure UMM.  Real GPUs
  /// coalesce at a fixed transaction size (32 bytes ≈ 8 fp32 words on the
  /// GTX Titan) that is smaller than the 32-lane warp, which is why the
  /// paper *measures* a row/column ratio near the transaction ratio (~6-8)
  /// rather than the UMM-predicted w = 32.  Setting group_words = 8
  /// reproduces the measured ratio (see bench/ablation_transaction).
  std::uint32_t group_words = 0;

  /// Latency-overlap extension: when true, the memory pipeline stays full
  /// across *consecutive* steps (warps of other threads hide each other's
  /// latency — memory-level parallelism), so a program of t access steps
  /// with total stage count S completes in max(S + l - 1, l·t) time units
  /// instead of Σ(S_i + l - 1).  The overlap machine meets Theorem 3's
  /// Ω(pt/w + lt) lower bound to within a factor of ~2.
  bool overlap_latency = false;

  /// Shared-memory (DMM) tier extension: when shared.banks > 0 every access
  /// step is additionally staged through a banked on-chip memory and charged
  /// its serialized bank-conflict rounds (+ l_s - 1 pipeline fill).  The
  /// default (banks = 0) disables the tier — the paper's pure UMM.
  SharedTier shared{};

  /// Effective address-group size: group_words, or width when unset.
  std::uint32_t effective_group() const { return group_words == 0 ? width : group_words; }

  /// Throws std::logic_error if width or latency is zero (or the shared tier
  /// is enabled with zero bank_words / latency).
  void validate() const;
};

/// Returns a config resembling the paper's GeForce GTX Titan runs: global
/// memory warp width 32, a few hundred cycles of DRAM latency.
MachineConfig gtx_titan_like();

/// The textbook illustration config of the paper's Figures 1-4: w=4, l=5.
MachineConfig figure_example();

/// A conflict-heavy machine where the shared tier dominates: wide global
/// transactions (group_words = 128 > width) make coalescing cheap, while
/// 4-word bank rows make every stride-1 warp replay 4×.  Under this config
/// the conflict-free arrangement strictly beats column-wise — the showcase
/// for the Planner's arrangement search (see plan_search_test).
MachineConfig conflict_heavy_example();

}  // namespace obx::umm
