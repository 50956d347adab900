// The timing fast path against the paper's closed-form bounds.
#include <gtest/gtest.h>

#include "algos/opt_triangulation.hpp"
#include "algos/prefix_sums.hpp"
#include "bulk/timing_estimator.hpp"
#include "umm/cost_model.hpp"

namespace {

using namespace obx;
using namespace obx::bulk;

TEST(TimingEstimator, PrefixSumsMatchesLemma1Exactly) {
  // For n >= w, p a multiple of w, the simulated time must equal Lemma 1's
  // exact per-step account: 2n(p + l - 1) row-wise, 2n(p/w + l - 1) column-
  // wise (aligned: p multiple of w makes every column-wise step aligned).
  const std::size_t n = 64;
  const std::size_t p = 256;
  const umm::MachineConfig cfg{.width = 32, .latency = 100};
  const trace::Program program = algos::prefix_sums_program(n);

  const TimingResult row =
      TimingEstimator(umm::Model::kUmm, cfg, Layout::row_wise(p, n)).run(program);
  const TimingResult col =
      TimingEstimator(umm::Model::kUmm, cfg, Layout::column_wise(p, n)).run(program);

  EXPECT_EQ(row.time_units, umm::lemma1_row_wise(n, p, cfg));
  EXPECT_EQ(col.time_units, umm::lemma1_column_wise(n, p, cfg));
}

TEST(TimingEstimator, BoundedByTheorem3) {
  const std::size_t n = 32;
  const umm::MachineConfig cfg{.width = 32, .latency = 50};
  const trace::Program program = algos::prefix_sums_program(n);
  const std::uint64_t t = algos::prefix_sums_memory_steps(n);

  for (std::size_t p : {32u, 64u, 1024u, 8192u}) {
    const TimingResult col =
        TimingEstimator(umm::Model::kUmm, cfg, Layout::column_wise(p, n)).run(program);
    const TimeUnits lower = umm::theorem3_lower_bound(t, p, cfg);
    EXPECT_GE(col.time_units, lower) << "p=" << p;
    EXPECT_LE(col.time_units, 3 * lower) << "p=" << p << " (not time-optimal?)";
  }
}

TEST(TimingEstimator, OptMatchesTheorem2Shape) {
  // OPT's accesses touch two different strides' worth of rows, but every
  // step still costs (p + l - 1) row-wise when the canonical array is wide
  // enough (2n² >= w), so Theorem 2 holds exactly row-wise.
  const std::size_t n = 8;
  const std::size_t p = 64;
  const umm::MachineConfig cfg{.width = 16, .latency = 10};
  const trace::Program program = algos::opt_program(n);
  const std::uint64_t t = algos::opt_memory_steps(n);

  const TimingResult row =
      TimingEstimator(umm::Model::kUmm, cfg,
                      Layout::row_wise(p, program.memory_words))
          .run(program);
  EXPECT_EQ(row.time_units, umm::theorem2_row_wise(t, p, cfg));

  const TimingResult col =
      TimingEstimator(umm::Model::kUmm, cfg,
                      Layout::column_wise(p, program.memory_words))
          .run(program);
  EXPECT_EQ(col.time_units, umm::theorem2_column_wise(t, p, cfg));
}

TEST(TimingEstimator, BlockedLayoutRequiresDivisibleWidth) {
  const trace::Program program = algos::prefix_sums_program(16);
  const umm::MachineConfig cfg{.width = 32, .latency = 1};
  EXPECT_THROW(
      TimingEstimator(umm::Model::kUmm, cfg, Layout::blocked(64, 16, 16)),
      std::logic_error);
  EXPECT_NO_THROW(
      TimingEstimator(umm::Model::kUmm, cfg, Layout::blocked(64, 16, 32)));
}

TEST(TimingEstimator, BlockedWithWidthBlockIsCoalesced) {
  // block = w: every warp sits inside one block with stride 1 → column-wise
  // cost.
  const std::size_t n = 16;
  const std::size_t p = 128;
  const umm::MachineConfig cfg{.width = 32, .latency = 7};
  const trace::Program program = algos::prefix_sums_program(n);
  const TimingResult blocked =
      TimingEstimator(umm::Model::kUmm, cfg, Layout::blocked(p, n, 32)).run(program);
  const TimingResult col =
      TimingEstimator(umm::Model::kUmm, cfg, Layout::column_wise(p, n)).run(program);
  EXPECT_EQ(blocked.time_units, col.time_units);
}

TEST(TimingEstimator, MonotoneInLatencyAndLanes) {
  const std::size_t n = 16;
  const trace::Program program = algos::prefix_sums_program(n);
  TimeUnits prev = 0;
  for (std::uint32_t l : {1u, 2u, 8u, 64u, 512u}) {
    const umm::MachineConfig cfg{.width = 32, .latency = l};
    const TimingResult r =
        TimingEstimator(umm::Model::kUmm, cfg, Layout::column_wise(64, n)).run(program);
    EXPECT_GT(r.time_units, prev);
    prev = r.time_units;
  }
  prev = 0;
  for (std::size_t p : {32u, 64u, 128u, 4096u}) {
    const umm::MachineConfig cfg{.width = 32, .latency = 4};
    const TimingResult r =
        TimingEstimator(umm::Model::kUmm, cfg, Layout::column_wise(p, n)).run(program);
    EXPECT_GT(r.time_units, prev);
    prev = r.time_units;
  }
}

}  // namespace
