// Per-warp access cost of the UMM and DMM.
//
// A warp of w threads issues at most one memory request per thread.  The cost
// of a warp's combined request, in pipeline stages, is
//   UMM: the number of distinct address groups among the requested addresses
//        (one broadcast address per stage), and
//   DMM: the maximum number of requests destined for any single bank (bank
//        conflicts are serialised).
// Threads may sit out a step: inactive lanes are marked with kInvalidAddr and
// contribute nothing; a fully inactive warp is not dispatched at all.
//
// WarpRule is the one charging rule every timing path uses: the global tier
// of the machine (UMM or DMM) and the shared-memory tier, which is a DMM with
// bank rows of `bank_words` words.
#pragma once

#include <cstdint>
#include <span>

#include "common/types.hpp"
#include "umm/machine_config.hpp"

namespace obx::umm {

/// Stages occupied by one warp request on the UMM: distinct address groups
/// (of `group_words` words each) among the active addresses.  The paper's
/// pure UMM has group_words = width; the transaction-granularity extension
/// allows smaller groups.
std::uint64_t umm_warp_stages(std::span<const Addr> addrs, std::uint32_t group_words);

/// Stages occupied by one warp request on a banked memory: the maximum
/// number of active addresses on one bank, where word a lives in bank
/// (a / bank_words) mod banks.  The paper's DMM has banks = width and
/// bank_words = 1.  This is the one bank-conflict counter, and the
/// brute-force oracle the closed forms are tested against.
std::uint64_t dmm_warp_stages(std::span<const Addr> addrs, std::uint32_t banks,
                              std::uint32_t bank_words = 1);

/// How one tier of the machine charges a warp request.  Built only by the
/// two factories below; nothing configures it directly.
class WarpRule {
 public:
  /// The global memory: UMM address groups of config.effective_group()
  /// words, or — Model::kDmm — the shared-tier rule at {banks = width,
  /// bank_words = 1}.  Validates the config.
  static WarpRule global(Model model, const MachineConfig& config);

  /// The shared-memory tier's bank-conflict rounds.  Requires an enabled,
  /// valid tier.
  static WarpRule shared(const SharedTier& tier);

  /// Stages (UMM) or conflict rounds (banked) of one warp request; 0 when
  /// every lane is inactive.
  std::uint64_t stages(std::span<const Addr> addrs) const;

  /// A warp's charge depends on its addresses only modulo this value: the
  /// group size, or banks * bank_words.
  std::uint64_t modulus() const;

 private:
  WarpRule(Model model, std::uint32_t words, std::uint32_t banks)
      : model_(model), words_(words), banks_(banks) {}

  Model model_;
  std::uint32_t words_;  ///< address-group size (UMM) or bank row (DMM)
  std::uint32_t banks_;  ///< bank count; unused on the UMM
};

}  // namespace obx::umm
