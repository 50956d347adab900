// Model extensions: transaction granularity (group_words) and latency
// overlap.  Both must stay consistent across the three timing layers
// (generic warp costs, strided fast path, full machine).
#include <gtest/gtest.h>

#include <vector>

#include "algos/prefix_sums.hpp"
#include "bulk/bulk.hpp"
#include "bulk/timing_estimator.hpp"
#include "bulk/umm_executor.hpp"
#include "common/rng.hpp"
#include "umm/cost_model.hpp"
#include "umm/machine.hpp"
#include "umm/warp.hpp"

namespace {

using namespace obx;
using namespace obx::umm;

// ---------------------------------------------------------------------------
// Transaction granularity
// ---------------------------------------------------------------------------

TEST(Transaction, GroupDefaultsToWidth) {
  MachineConfig cfg{.width = 32, .latency = 1};
  EXPECT_EQ(cfg.effective_group(), 32u);
  cfg.group_words = 8;
  EXPECT_EQ(cfg.effective_group(), 8u);
}

TEST(Transaction, WarpStagesWithSmallGroups) {
  // 32 consecutive addresses: 1 group at g=32, 4 groups at g=8.
  std::vector<Addr> addrs;
  for (Addr a = 0; a < 32; ++a) addrs.push_back(a);
  EXPECT_EQ(umm_warp_stages(addrs, 32), 1u);
  EXPECT_EQ(umm_warp_stages(addrs, 8), 4u);
  // Scattered (stride 64): one group per lane at either granularity.
  std::vector<Addr> scattered;
  for (Addr j = 0; j < 32; ++j) scattered.push_back(j * 64);
  EXPECT_EQ(umm_warp_stages(scattered, 32), 32u);
  EXPECT_EQ(umm_warp_stages(scattered, 8), 32u);
}

TEST(Transaction, ConfigAwareDispatch) {
  MachineConfig cfg{.width = 32, .latency = 1};
  cfg.group_words = 8;
  std::vector<Addr> addrs;
  for (Addr a = 0; a < 32; ++a) addrs.push_back(a);
  EXPECT_EQ(WarpRule::global(Model::kUmm, cfg).stages(addrs), 4u);
  // DMM is bank-based; the group size does not apply.
  EXPECT_EQ(WarpRule::global(Model::kDmm, cfg).stages(addrs), 1u);
}

struct GroupCase {
  std::uint32_t width;
  std::uint32_t group;
  std::uint64_t p;
  std::uint64_t stride;
};

class GroupedCostProperty : public ::testing::TestWithParam<GroupCase> {};

TEST_P(GroupedCostProperty, StridedFastPathMatchesBruteForce) {
  const auto c = GetParam();
  MachineConfig cfg{.width = c.width, .latency = 3};
  cfg.group_words = c.group;
  const StridedStepCost cost(WarpRule::global(Model::kUmm, cfg), c.width, c.p, c.stride);
  for (Addr base = 0; base < 3 * c.group + 7; ++base) {
    // Brute force over all warps.
    std::uint64_t expected = 0;
    for (std::uint64_t lane = 0; lane < c.p; lane += c.width) {
      const std::uint64_t count = std::min<std::uint64_t>(c.width, c.p - lane);
      std::vector<Addr> addrs(count);
      for (std::uint64_t j = 0; j < count; ++j) {
        addrs[j] = base + (lane + j) * c.stride;
      }
      expected += umm_warp_stages(addrs, c.group);
    }
    EXPECT_EQ(cost.stages(base).stages, expected)
        << "base=" << base << " w=" << c.width << " g=" << c.group << " p=" << c.p
        << " stride=" << c.stride;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GroupedCostProperty,
    ::testing::Values(GroupCase{32, 8, 128, 1},     // coalesced, fine groups
                      GroupCase{32, 8, 128, 64},    // scattered
                      GroupCase{32, 8, 100, 1},     // tail warp
                      GroupCase{32, 8, 128, 3},     // delta != 0 cycling
                      GroupCase{32, 12, 96, 5},     // non-power-of-two group
                      GroupCase{4, 3, 18, 2},       // small everything
                      GroupCase{8, 16, 64, 1},      // group wider than warp
                      GroupCase{32, 1, 64, 1},      // word-granularity
                      GroupCase{256, 8, 512, 1},    // warp wider than 128 lanes
                      GroupCase{256, 8, 300, 3}));  // ...with a tail and cycling

TEST(Transaction, SimulatorAgreesWithEstimator) {
  const trace::Program program = algos::prefix_sums_program(48);
  const std::size_t p = 96;
  Rng rng(4);
  std::vector<Word> inputs;
  for (std::size_t j = 0; j < p; ++j) {
    const auto one = algos::prefix_sums_random_input(48, rng);
    inputs.insert(inputs.end(), one.begin(), one.end());
  }
  for (const std::uint32_t g : {4u, 8u, 12u}) {
    MachineConfig cfg{.width = 32, .latency = 9};
    cfg.group_words = g;
    for (const auto arr : {bulk::Arrangement::kRowWise, bulk::Arrangement::kColumnWise}) {
      const bulk::Layout layout = bulk::make_layout(program, p, arr);
      const auto sim =
          bulk::UmmBulkExecutor(Model::kUmm, cfg, layout).run(program, inputs);
      const auto est = bulk::TimingEstimator(Model::kUmm, cfg, layout).run(program);
      EXPECT_EQ(sim.time_units, est.time_units) << "g=" << g << " " << layout.name();
    }
  }
}

TEST(Transaction, RowColRatioApproachesGroupSize) {
  // With 8-word transactions, the coalescing advantage is ~8 (the paper's
  // measured ~6), not the pure-UMM w = 32.
  const trace::Program program = algos::prefix_sums_program(64);
  const std::size_t p = 1 << 14;
  MachineConfig cfg{.width = 32, .latency = 1};
  cfg.group_words = 8;
  const auto row = bulk::TimingEstimator(
                       Model::kUmm, cfg,
                       bulk::Layout::row_wise(p, 64))
                       .run(program);
  const auto col = bulk::TimingEstimator(
                       Model::kUmm, cfg,
                       bulk::Layout::column_wise(p, 64))
                       .run(program);
  const double ratio =
      static_cast<double>(row.time_units) / static_cast<double>(col.time_units);
  EXPECT_GT(ratio, 6.0);
  EXPECT_LT(ratio, 8.5);
}

TEST(Transaction, BlockedLayoutRejectedOnFastPath) {
  MachineConfig cfg{.width = 32, .latency = 1};
  cfg.group_words = 8;
  EXPECT_THROW(
      bulk::TimingEstimator(Model::kUmm, cfg, bulk::Layout::blocked(64, 16, 32)),
      std::logic_error);
}

// ---------------------------------------------------------------------------
// Latency overlap
// ---------------------------------------------------------------------------

TEST(Overlap, TimerUsesMaxOfBandwidthAndChain) {
  MachineConfig cfg{.width = 4, .latency = 10};
  cfg.overlap_latency = true;
  Machine m(Model::kUmm, cfg, 64);
  const std::vector<Addr> addrs{0, 1, 2, 3};  // 1 stage per step
  std::vector<Word> out(4, 0);
  for (int i = 0; i < 5; ++i) m.step_read(addrs, out);
  // Chain bound: 5 steps * l = 50; bandwidth: 5 stages + 9 = 14.
  EXPECT_EQ(m.time_units(), 50u);
}

TEST(Overlap, BandwidthBoundWhenStagesDominate) {
  MachineConfig cfg{.width = 4, .latency = 2};
  cfg.overlap_latency = true;
  Machine m(Model::kUmm, cfg, 1024);
  // One step with 16 lanes scattered across 16 groups: 16 stages.
  std::vector<Addr> addrs;
  for (Addr j = 0; j < 16; ++j) addrs.push_back(j * 8);
  std::vector<Word> out(16, 0);
  m.step_read(addrs, out);
  // Bandwidth: 16 + 1 = 17 > chain 2.
  EXPECT_EQ(m.time_units(), 17u);
}

TEST(Overlap, EstimatorMatchesMachine) {
  const trace::Program program = algos::prefix_sums_program(32);
  const std::size_t p = 64;
  Rng rng(8);
  std::vector<Word> inputs;
  for (std::size_t j = 0; j < p; ++j) {
    const auto one = algos::prefix_sums_random_input(32, rng);
    inputs.insert(inputs.end(), one.begin(), one.end());
  }
  MachineConfig cfg{.width = 8, .latency = 25};
  cfg.overlap_latency = true;
  for (const auto arr : {bulk::Arrangement::kRowWise, bulk::Arrangement::kColumnWise}) {
    const bulk::Layout layout = bulk::make_layout(program, p, arr);
    const auto sim = bulk::UmmBulkExecutor(Model::kUmm, cfg, layout).run(program, inputs);
    const auto est = bulk::TimingEstimator(Model::kUmm, cfg, layout).run(program);
    EXPECT_EQ(sim.time_units, est.time_units) << layout.name();
  }
}

TEST(Overlap, NeverSlowerThanSerializedAndMeetsLowerBound) {
  const trace::Program program = algos::prefix_sums_program(64);
  const std::uint64_t t = algos::prefix_sums_memory_steps(64);
  for (const std::size_t p : {64u, 1024u, 65536u}) {
    MachineConfig serial{.width = 32, .latency = 100};
    MachineConfig overlap = serial;
    overlap.overlap_latency = true;
    const bulk::Layout layout = bulk::Layout::column_wise(p, 64);
    const auto ts =
        bulk::TimingEstimator(Model::kUmm, serial, layout).run(program).time_units;
    const auto to =
        bulk::TimingEstimator(Model::kUmm, overlap, layout).run(program).time_units;
    EXPECT_LE(to, ts) << "p=" << p;
    const TimeUnits lower = theorem3_lower_bound(t, p, serial);
    EXPECT_GE(to, lower) << "p=" << p;
    EXPECT_LE(to, 2 * lower) << "p=" << p << " (overlap should meet the bound)";
  }
}

TEST(Overlap, ComputeChargesAdd) {
  MachineConfig cfg{.width = 4, .latency = 10};
  cfg.overlap_latency = true;
  cfg.count_compute = true;
  Machine m(Model::kUmm, cfg, 16);
  const std::vector<Addr> addrs{0, 1, 2, 3};
  std::vector<Word> out(4, 0);
  m.step_read(addrs, out);
  m.step_compute();
  m.step_compute();
  EXPECT_EQ(m.time_units(), 10u + 2u);  // chain (1 step * l) + compute
}

}  // namespace
