// AccessTimer: step charging, the l-stage pipeline's S + l - 1 batch time
// (including the paper's Fig. 4 worked example), and statistics.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "umm/timers.hpp"

namespace {

using namespace obx;
using namespace obx::umm;

MachineConfig cfg4() { return MachineConfig{.width = 4, .latency = 5}; }

TEST(Timer, ChargesWarpBatches) {
  AccessTimer timer(Model::kUmm, cfg4());
  // Two warps: {0,1,2,3} one group, {8,100,200,300} four groups → 5 stages.
  const std::vector<Addr> addrs{0, 1, 2, 3, 8, 100, 200, 300};
  EXPECT_EQ(timer.charge_step(addrs), 5u + 5 - 1);
  EXPECT_EQ(timer.stats().access_steps, 1u);
  EXPECT_EQ(timer.stats().warps_dispatched, 2u);
  EXPECT_EQ(timer.stats().stages_total, 5u);
}

TEST(Timer, SkipsInactiveWarps) {
  AccessTimer timer(Model::kUmm, cfg4());
  std::vector<Addr> addrs(8, kInvalidAddr);
  addrs[5] = 42;  // only the second warp is active
  EXPECT_EQ(timer.charge_step(addrs), 1u + 5 - 1);
  EXPECT_EQ(timer.stats().warps_dispatched, 1u);
}

TEST(Timer, PrecomputedPathMatchesDirect) {
  AccessTimer direct(Model::kUmm, cfg4());
  AccessTimer pre(Model::kUmm, cfg4());
  const std::vector<Addr> addrs{0, 1, 2, 3};
  const TimeUnits t1 = direct.charge_step(addrs);
  const TimeUnits t2 = pre.charge_precomputed(1, 1);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(direct.time_units(), pre.time_units());
}

TEST(Timer, ComputeStepsRespectConfig) {
  AccessTimer off(Model::kUmm, cfg4());
  EXPECT_EQ(off.charge_compute(), 0u);
  EXPECT_EQ(off.stats().compute_steps, 1u);

  MachineConfig cfg = cfg4();
  cfg.count_compute = true;
  AccessTimer on(Model::kUmm, cfg);
  EXPECT_EQ(on.charge_compute(), 1u);
  EXPECT_EQ(on.time_units(), 1u);
}

TEST(Timer, PartialTailWarp) {
  AccessTimer timer(Model::kUmm, cfg4());
  // 6 lanes at w=4: one full warp + 2-lane tail.
  const std::vector<Addr> addrs{0, 1, 2, 3, 4, 5};
  EXPECT_EQ(timer.charge_step(addrs), (1 + 1) + 5 - 1);
  EXPECT_EQ(timer.stats().warps_dispatched, 2u);
}

TEST(Timer, DmmModelUsesBankConflicts) {
  AccessTimer timer(Model::kDmm, cfg4());
  const std::vector<Addr> addrs{0, 4, 8, 12};  // all bank 0: 4 stages
  EXPECT_EQ(timer.charge_step(addrs), 4u + 5 - 1);
}

TEST(Timer, WarpWiderThan128LanesWithSmallGroups) {
  // 256 consecutive lanes in 8-word groups: 32 groups + 4 - 1.
  AccessTimer timer(Model::kUmm, MachineConfig{.width = 256, .latency = 4, .group_words = 8});
  std::vector<Addr> addrs(256);
  for (Addr j = 0; j < 256; ++j) addrs[j] = j;
  EXPECT_EQ(timer.charge_step(addrs), 35u);
}

TEST(Timer, PaperFigure4Example) {
  // W(0) occupies 3 stages (3 address groups), W(1) occupies 1; with l = 5
  // the step completes at 3 + 1 + 5 - 1 = 8 time units, and the clock
  // carries into the next step.
  AccessTimer timer(Model::kUmm, cfg4());
  const std::vector<Addr> fig4{0, 5, 6, 10, 16, 17, 18, 19};  // groups {0,1,2}, {4}
  EXPECT_EQ(timer.charge_step(fig4), 8u);
  EXPECT_EQ(timer.time_units(), 8u);
  const std::vector<Addr> coalesced{0, 1, 2, 3};
  EXPECT_EQ(timer.charge_step(coalesced), 5u);
  EXPECT_EQ(timer.time_units(), 13u);
  EXPECT_EQ(timer.stats().access_steps, 2u);
  EXPECT_EQ(timer.stats().stages_total, 5u);
}

TEST(Timer, InactiveStepIsFree) {
  // A step with no active lane dispatches no warp: no time, no access step.
  AccessTimer timer(Model::kUmm, cfg4());
  EXPECT_EQ(timer.charge_step({}), 0u);
  const std::vector<Addr> inactive(8, kInvalidAddr);
  EXPECT_EQ(timer.charge_step(inactive), 0u);
  EXPECT_EQ(timer.charge_precomputed(0, 0), 0u);
  EXPECT_EQ(timer.time_units(), 0u);
  EXPECT_EQ(timer.stats().access_steps, 0u);
}

TEST(Timer, SingleCoalescedWarpCostsLatency) {
  // One warp, one address group: completes in exactly l time units.
  const std::vector<Addr> addrs{0, 1, 2, 3};
  for (const std::uint32_t l : {1u, 5u}) {
    AccessTimer timer(Model::kUmm, MachineConfig{.width = 4, .latency = l});
    EXPECT_EQ(timer.charge_step(addrs), l);
  }
}

TEST(Timer, LatencyMustBePositive) {
  EXPECT_THROW(AccessTimer(Model::kUmm, MachineConfig{.width = 4, .latency = 0}),
               std::logic_error);
}

class TimerAdditivity : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TimerAdditivity, StepTimeIsStagesPlusLatencyMinusOne) {
  const std::uint32_t l = GetParam();
  for (std::uint64_t total = 1; total <= 40; ++total) {
    // `total` lanes, each in its own address group: one warp of 64 lanes...
    std::vector<Addr> one_warp(total);
    for (std::uint64_t j = 0; j < total; ++j) one_warp[j] = j * 64;
    AccessTimer wide(Model::kUmm, MachineConfig{.width = 64, .latency = l});
    EXPECT_EQ(wide.charge_step(one_warp), total + l - 1);

    // ...or the same stages split across warps of 2 lanes, which must not
    // change the step time.
    std::vector<Addr> split(total);
    for (std::uint64_t j = 0; j < total; ++j) split[j] = j * 2;
    AccessTimer narrow(Model::kUmm, MachineConfig{.width = 2, .latency = l});
    EXPECT_EQ(narrow.charge_step(split), total + l - 1);
    EXPECT_EQ(narrow.stats().warps_dispatched, (total + 1) / 2);

    AccessTimer pre(Model::kUmm, MachineConfig{.width = 2, .latency = l});
    EXPECT_EQ(pre.charge_precomputed(total, (total + 1) / 2), total + l - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Latencies, TimerAdditivity,
                         ::testing::Values(1u, 2u, 5u, 100u, 400u));

}  // namespace
