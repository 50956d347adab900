// Closed-form cost model vs brute-force warp enumeration, plus the paper's
// Lemma 1 / Theorem 2 / Theorem 3 formulas.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "umm/cost_model.hpp"
#include "umm/timers.hpp"
#include "umm/warp.hpp"

namespace {

using namespace obx;
using namespace obx::umm;

/// Brute-force oracle: materialise every lane's address, chunk into warps,
/// sum warp stage counts with the generic counters.
StepStages brute_force_stages(Model model, std::uint32_t w, std::uint64_t p,
                              std::uint64_t stride, Addr base) {
  std::vector<Addr> addrs(p);
  for (std::uint64_t j = 0; j < p; ++j) addrs[j] = base + j * stride;
  StepStages out;
  for (std::uint64_t begin = 0; begin < p; begin += w) {
    const std::uint64_t count = std::min<std::uint64_t>(w, p - begin);
    const std::span<const Addr> warp = std::span<const Addr>(addrs).subspan(begin, count);
    const std::uint64_t k =
        model == Model::kUmm ? umm_warp_stages(warp, w) : dmm_warp_stages(warp, w);
    if (k > 0) {
      out.stages += k;
      ++out.warps;
    }
  }
  return out;
}

struct CostCase {
  std::uint32_t width;
  std::uint32_t latency;
  std::uint64_t p;
  std::uint64_t stride;
};

class StridedCostProperty : public ::testing::TestWithParam<CostCase> {};

TEST_P(StridedCostProperty, UmmMatchesBruteForce) {
  const auto [w, l, p, stride] = GetParam();
  const MachineConfig cfg{.width = w, .latency = l};
  const StridedStepCost cost(WarpRule::global(Model::kUmm, cfg), w, p, stride);
  for (Addr base = 0; base < 3 * w + 5; ++base) {
    const StepStages expected = brute_force_stages(Model::kUmm, w, p, stride, base);
    const StepStages got = cost.stages(base);
    EXPECT_EQ(got.stages, expected.stages) << "base=" << base;
    EXPECT_EQ(got.warps, expected.warps) << "base=" << base;
  }
}

TEST_P(StridedCostProperty, DmmMatchesBruteForce) {
  const auto [w, l, p, stride] = GetParam();
  const MachineConfig cfg{.width = w, .latency = l};
  const StridedStepCost cost(WarpRule::global(Model::kDmm, cfg), w, p, stride);
  for (Addr base = 0; base < 2 * w + 3; ++base) {
    const StepStages expected = brute_force_stages(Model::kDmm, w, p, stride, base);
    const StepStages got = cost.stages(base);
    EXPECT_EQ(got.stages, expected.stages) << "base=" << base;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, StridedCostProperty,
    ::testing::Values(CostCase{4, 5, 16, 1}, CostCase{4, 5, 16, 6},
                      CostCase{4, 5, 16, 4}, CostCase{4, 5, 18, 3},   // tail warp
                      CostCase{8, 2, 64, 1}, CostCase{8, 2, 64, 5},
                      CostCase{32, 100, 128, 1}, CostCase{32, 100, 128, 32},
                      CostCase{32, 100, 128, 33}, CostCase{32, 100, 100, 7},
                      CostCase{3, 4, 10, 2},      // non-power-of-two width
                      CostCase{1, 1, 5, 9}));     // degenerate width 1

TEST(CostModel, RowWiseStepIsPStagesWhenStrideAtLeastW) {
  // Lemma 1 row-wise: stride n >= w puts every lane in its own group.
  const MachineConfig cfg{.width = 32, .latency = 100};
  const StridedStepCost cost(WarpRule::global(Model::kUmm, cfg), 32, 256, 64);
  const StepStages s = cost.stages(0);
  EXPECT_EQ(s.stages, 256u);
  AccessTimer timer(Model::kUmm, cfg);
  EXPECT_EQ(timer.charge_precomputed(s.stages, s.warps), 256u + 100 - 1);
}

TEST(CostModel, ColumnWiseStepIsPOverWStagesWhenAligned) {
  const MachineConfig cfg{.width = 32, .latency = 100};
  const StridedStepCost cost(WarpRule::global(Model::kUmm, cfg), 32, 256, 1);
  EXPECT_EQ(cost.stages(0).stages, 8u);  // p/w aligned
  EXPECT_EQ(cost.stages(1).stages, 16u); // misaligned: 2 groups per warp
}

TEST(CostModel, Lemma1Formulas) {
  const MachineConfig cfg{.width = 32, .latency = 100};
  // n >= w: row-wise 2n(p + l - 1), column-wise 2n(p/w + l - 1).
  EXPECT_EQ(lemma1_row_wise(64, 256, cfg), 2 * 64 * (256 + 99));
  EXPECT_EQ(lemma1_column_wise(64, 256, cfg), 2 * 64 * (8 + 99));
  // n < w: row-wise coalesces partially: ceil(p*n/w) stages.
  EXPECT_EQ(lemma1_row_wise(4, 64, cfg), 2 * 4 * (8 + 99));
}

TEST(CostModel, Theorem2Formulas) {
  const MachineConfig cfg{.width = 32, .latency = 100};
  EXPECT_EQ(theorem2_row_wise(10, 256, cfg), 10 * (256 + 99));
  EXPECT_EQ(theorem2_column_wise(10, 256, cfg), 10 * (8 + 99));
  EXPECT_EQ(theorem2_column_wise(10, 100, cfg), 10 * (4 + 99));  // ceil(100/32)=4
}

TEST(CostModel, Theorem3LowerBoundIsMaxOfTerms) {
  const MachineConfig cfg{.width = 32, .latency = 100};
  // Bandwidth-bound regime: pt/w dominates.
  EXPECT_EQ(theorem3_lower_bound(10, 1 << 20, cfg), (10ull << 20) / 32);
  // Latency-bound regime: lt dominates.
  EXPECT_EQ(theorem3_lower_bound(10, 32, cfg), 1000u);
}

/// Stages of one full DMM warp of width w at addresses base + j*stride.
std::uint64_t dmm_strided_warp(std::uint64_t stride, std::uint32_t w, Addr base = 0) {
  std::vector<Addr> addrs(w);
  for (std::uint64_t j = 0; j < w; ++j) addrs[j] = base + j * stride;
  return dmm_warp_stages(addrs, w);
}

TEST(CostModel, DmmStridedClosedFormMatchesSimulation) {
  // A full warp of stride-s addresses hits w/gcd(s, w) distinct banks,
  // gcd(s, w) lanes each, so its stage count is gcd(s mod w, w) for every
  // stride and base (exhaustive at small widths; gcd(0, w) = w covers the
  // broadcast).  Row-wise bulk execution on the DMM therefore conflicts
  // precisely when the input size shares a factor with the bank count.
  for (const std::uint32_t w : {1u, 2u, 3u, 4u, 8u, 12u, 32u}) {
    for (std::uint64_t stride = 0; stride <= 3 * w; ++stride) {
      for (Addr base : {Addr{0}, Addr{1}, Addr{w - 1}, Addr{5 * w + 3}}) {
        EXPECT_EQ(dmm_strided_warp(stride, w, base), std::gcd<std::uint64_t>(stride % w, w))
            << "w=" << w << " stride=" << stride << " base=" << base;
      }
    }
  }
}

TEST(CostModel, DmmStridedKnownValues) {
  EXPECT_EQ(dmm_strided_warp(1, 32), 1u);    // conflict-free
  EXPECT_EQ(dmm_strided_warp(2, 32), 2u);    // 2-way
  EXPECT_EQ(dmm_strided_warp(32, 32), 32u);  // full conflict
  EXPECT_EQ(dmm_strided_warp(0, 32), 32u);   // broadcast
  EXPECT_EQ(dmm_strided_warp(33, 32), 1u);   // odd stride: free
  EXPECT_EQ(dmm_strided_warp(12, 32), 4u);   // gcd(12,32)
}

class OptimalityProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptimalityProperty, ColumnWiseIsWithinConstantOfLowerBound) {
  // Theorem 2 + Theorem 3: the coalesced arrangement is time-optimal, i.e.
  // theorem2_column_wise <= c * theorem3_lower_bound for a small constant c.
  const std::uint64_t p = GetParam();
  const MachineConfig cfg{.width = 32, .latency = 100};
  for (std::uint64_t t : {1ull, 10ull, 1000ull}) {
    const auto upper = theorem2_column_wise(t, p, cfg);
    const auto lower = theorem3_lower_bound(t, p, cfg);
    EXPECT_LE(upper, 3 * lower) << "p=" << p << " t=" << t;
    EXPECT_GE(upper, lower) << "p=" << p << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(LaneCounts, OptimalityProperty,
                         ::testing::Values(32u, 64u, 1024u, 1u << 16, 1u << 22));

}  // namespace
