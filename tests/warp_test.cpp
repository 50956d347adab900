// Per-warp stage counts: UMM address-group counting, DMM bank conflicts.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "umm/address.hpp"
#include "umm/warp.hpp"

namespace {

using namespace obx;
using namespace obx::umm;

TEST(UmmWarp, CoalescedAccessIsOneStage) {
  // w consecutive, aligned addresses → one address group.
  std::vector<Addr> addrs;
  for (Addr a = 64; a < 96; ++a) addrs.push_back(a);
  EXPECT_EQ(umm_warp_stages(addrs, 32), 1u);
}

TEST(UmmWarp, MisalignedConsecutiveIsTwoStages) {
  std::vector<Addr> addrs;
  for (Addr a = 65; a < 97; ++a) addrs.push_back(a);
  EXPECT_EQ(umm_warp_stages(addrs, 32), 2u);
}

TEST(UmmWarp, FullyScatteredIsWStages) {
  // Stride >= w puts every lane in its own address group.
  std::vector<Addr> addrs;
  for (Addr j = 0; j < 32; ++j) addrs.push_back(j * 100);
  EXPECT_EQ(umm_warp_stages(addrs, 32), 32u);
}

TEST(UmmWarp, SameAddressBroadcastIsOneStage) {
  std::vector<Addr> addrs(32, Addr{123});
  EXPECT_EQ(umm_warp_stages(addrs, 32), 1u);
}

TEST(UmmWarp, InactiveLanesIgnored) {
  std::vector<Addr> addrs(32, kInvalidAddr);
  EXPECT_EQ(umm_warp_stages(addrs, 32), 0u);
  addrs[5] = 1000;
  EXPECT_EQ(umm_warp_stages(addrs, 32), 1u);
  addrs[17] = 2000;
  EXPECT_EQ(umm_warp_stages(addrs, 32), 2u);
}

TEST(UmmWarp, PaperFigure4FirstWarpSpansThreeGroups) {
  // Fig. 4: W(0)'s requests fall in 3 address groups (w = 4).
  const std::vector<Addr> addrs{0, 5, 6, 10};  // groups 0, 1, 1, 2
  EXPECT_EQ(umm_warp_stages(addrs, 4), 3u);
}

TEST(DmmWarp, ConflictFreeIsOneStage) {
  // Distinct banks: stride 1 over w addresses.
  std::vector<Addr> addrs;
  for (Addr j = 0; j < 32; ++j) addrs.push_back(j);
  EXPECT_EQ(dmm_warp_stages(addrs, 32), 1u);
}

TEST(DmmWarp, StrideWIsFullConflict) {
  // Stride w: every lane hits bank 0.
  std::vector<Addr> addrs;
  for (Addr j = 0; j < 32; ++j) addrs.push_back(j * 32);
  EXPECT_EQ(dmm_warp_stages(addrs, 32), 32u);
}

TEST(DmmWarp, PartialConflict) {
  // Two lanes per bank → 2 stages.
  std::vector<Addr> addrs;
  for (Addr j = 0; j < 16; ++j) {
    addrs.push_back(j);
    addrs.push_back(j + 32);
  }
  EXPECT_EQ(dmm_warp_stages(addrs, 32), 2u);
}

TEST(DmmWarp, InactiveLanesIgnored) {
  std::vector<Addr> addrs(8, kInvalidAddr);
  EXPECT_EQ(dmm_warp_stages(addrs, 4), 0u);
}

TEST(Warp, DispatchOnModel) {
  // A broadcast is UMM-friendly (one group) and DMM-hostile (one bank).
  const MachineConfig cfg{.width = 4, .latency = 1};
  std::vector<Addr> broadcast(4, Addr{40});
  EXPECT_EQ(WarpRule::global(Model::kUmm, cfg).stages(broadcast), 1u);
  EXPECT_EQ(WarpRule::global(Model::kDmm, cfg).stages(broadcast), 4u);
}

TEST(Warp, RuleModulusPerTier) {
  // A warp's charge depends on its addresses modulo the group size (UMM),
  // the bank count (DMM), or banks * bank_words (the shared tier).
  MachineConfig cfg{.width = 32, .latency = 1};
  EXPECT_EQ(WarpRule::global(Model::kUmm, cfg).modulus(), 32u);
  EXPECT_EQ(WarpRule::global(Model::kDmm, cfg).modulus(), 32u);
  cfg.group_words = 8;
  EXPECT_EQ(WarpRule::global(Model::kUmm, cfg).modulus(), 8u);
  EXPECT_EQ(WarpRule::global(Model::kDmm, cfg).modulus(), 32u);
  EXPECT_EQ(WarpRule::shared(SharedTier{.banks = 16, .bank_words = 4}).modulus(), 64u);
  EXPECT_THROW(WarpRule::shared(SharedTier{}), std::logic_error);
  EXPECT_THROW(WarpRule::global(Model::kUmm, MachineConfig{.width = 0}), std::logic_error);
}

struct WarpCase {
  std::uint32_t width;
  std::uint64_t stride;
};

class WarpStagesProperty : public ::testing::TestWithParam<WarpCase> {};

TEST_P(WarpStagesProperty, MatchesSetBasedOracle) {
  const auto [w, stride] = GetParam();
  Rng rng(7 * w + stride);
  for (int trial = 0; trial < 20; ++trial) {
    const Addr base = rng.next_below(1000);
    std::vector<Addr> addrs;
    for (std::uint64_t j = 0; j < w; ++j) addrs.push_back(base + j * stride);

    std::set<std::uint64_t> groups;
    std::vector<std::uint64_t> bank_counts(w, 0);
    for (Addr a : addrs) {
      groups.insert(address_group_of(a, w));
      ++bank_counts[bank_of(a, w)];
    }
    EXPECT_EQ(umm_warp_stages(addrs, w), groups.size());
    EXPECT_EQ(dmm_warp_stages(addrs, w),
              *std::max_element(bank_counts.begin(), bank_counts.end()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    StridePatterns, WarpStagesProperty,
    ::testing::Values(WarpCase{4, 1}, WarpCase{4, 2}, WarpCase{4, 3}, WarpCase{4, 4},
                      WarpCase{4, 5}, WarpCase{8, 1}, WarpCase{8, 6}, WarpCase{8, 8},
                      WarpCase{32, 1}, WarpCase{32, 7}, WarpCase{32, 32},
                      WarpCase{32, 33}, WarpCase{32, 1000}));

}  // namespace
