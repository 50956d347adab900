// Capstone: the paper's headline claims, asserted against the simulator.
//
// Each test is one sentence of the paper turned into an executable check.
#include <gtest/gtest.h>

#include "algos/opt_triangulation.hpp"
#include "algos/prefix_sums.hpp"
#include "bulk/bulk.hpp"
#include "bulk/timing_estimator.hpp"
#include "common/rng.hpp"
#include "plan/plan.hpp"
#include "trace/oblivious_checker.hpp"
#include "umm/cost_model.hpp"

namespace {

using namespace obx;

const umm::MachineConfig kTitan{.width = 32, .latency = 200};

TimeUnits col_units(const trace::Program& program, std::size_t p,
                    const umm::MachineConfig& cfg = kTitan) {
  return bulk::TimingEstimator(umm::Model::kUmm, cfg,
                               bulk::make_layout(program, p,
                                                 bulk::Arrangement::kColumnWise))
      .run(program)
      .time_units;
}

TimeUnits row_units(const trace::Program& program, std::size_t p,
                    const umm::MachineConfig& cfg = kTitan) {
  return bulk::TimingEstimator(umm::Model::kUmm, cfg,
                               bulk::make_layout(program, p, bulk::Arrangement::kRowWise))
      .run(program)
      .time_units;
}

// "The bulk execution for p different inputs can be implemented to run
//  O(pt/w + lt) time units using p threads on the UMM."
TEST(PaperClaims, MainTheoremUpperBound) {
  for (const std::size_t n : {32u, 256u}) {
    const trace::Program program = algos::prefix_sums_program(n);
    const std::uint64_t t = algos::prefix_sums_memory_steps(n);
    for (const std::size_t p : {32u, 4096u, 1u << 20}) {
      const TimeUnits measured = col_units(program, p);
      // c * (pt/w + lt) with a small explicit constant.
      const TimeUnits form = (p * t) / kTitan.width +
                             static_cast<TimeUnits>(kTitan.latency) * t;
      EXPECT_LE(measured, 2 * form) << "n=" << n << " p=" << p;
    }
  }
}

// "We also prove that this implementation is time optimal" (Theorem 3).
TEST(PaperClaims, TimeOptimality) {
  const trace::Program program = algos::prefix_sums_program(64);
  const std::uint64_t t = algos::prefix_sums_memory_steps(64);
  for (const std::size_t p : {64u, 1024u, 1u << 18}) {
    const TimeUnits measured = col_units(program, p);
    const TimeUnits bound = umm::theorem3_lower_bound(t, p, kTitan);
    EXPECT_GE(measured, bound);
    EXPECT_LE(measured, 3 * bound) << "not within a constant of optimal, p=" << p;
  }
}

// "The prefix-sum algorithm is oblivious ... a(2i) = a(2i+1) = i."
TEST(PaperClaims, PrefixSumsObliviousWithDeclaredAccessFunction) {
  const auto report = trace::check_program(algos::prefix_sums_program(128), 2);
  ASSERT_TRUE(report.oblivious);
  for (std::size_t i = 0; i < 128; ++i) {
    EXPECT_EQ(report.access_function[2 * i], i);
    EXPECT_EQ(report.access_function[2 * i + 1], i);
  }
}

// "Algorithm OPT runs O(n³) time units" and is oblivious (Lemma 4).
TEST(PaperClaims, OptIsCubicAndOblivious) {
  const std::uint64_t t8 = algos::opt_memory_steps(8);
  const std::uint64_t t16 = algos::opt_memory_steps(16);
  const std::uint64_t t32 = algos::opt_memory_steps(32);
  // Doubling n scales t by ~8 asymptotically; allow the low-order slack.
  EXPECT_GT(static_cast<double>(t16) / static_cast<double>(t8), 6.0);
  EXPECT_GT(static_cast<double>(t32) / static_cast<double>(t16), 7.0);
  EXPECT_LT(static_cast<double>(t32) / static_cast<double>(t16), 9.0);
  EXPECT_TRUE(trace::check_program(algos::opt_program(12), 2).oblivious);
}

// "The computing time of the CPU is proportional to p" — here for the
// unit-cost RAM baseline: cost(p) = t * p exactly.
TEST(PaperClaims, SequentialBaselineIsLinear) {
  const std::uint64_t t = algos::prefix_sums_memory_steps(64);
  EXPECT_EQ(t * 2048, 2 * t * 1024);
}

// "Our implementations can be 150 times faster than that of a single CPU if
//  they have many inputs" — the machine-level content of that claim is the
// throughput ratio between the coalesced UMM and the sequential RAM at the
// same clock: it approaches w for memory-bound programs with p >> w*l.
TEST(PaperClaims, SpeedupOverRamSaturatesNearW) {
  const trace::Program program = algos::prefix_sums_program(64);
  const std::uint64_t t = algos::prefix_sums_memory_steps(64);
  const std::size_t p = 1 << 22;
  const double ram = static_cast<double>(t) * static_cast<double>(p);
  const double gpu = static_cast<double>(col_units(program, p));
  const double speedup = ram / gpu;
  EXPECT_GT(speedup, 0.9 * kTitan.width);
  EXPECT_LE(speedup, 1.0 * kTitan.width);
}

// "It is very important to avoid the non-coalesced access": the row-wise
// arrangement forfeits the whole factor w.
TEST(PaperClaims, NonCoalescedAccessForfeitsW) {
  const trace::Program program = algos::prefix_sums_program(64);
  const std::size_t p = 1 << 20;
  const double ratio = static_cast<double>(row_units(program, p)) /
                       static_cast<double>(col_units(program, p));
  EXPECT_NEAR(ratio, kTitan.width, 0.1 * kTitan.width);
}

// Lemma 1, quoted exactly, for a configuration meeting its assumptions.
TEST(PaperClaims, Lemma1Exact) {
  const std::size_t n = 128;
  const std::size_t p = 1024;
  const trace::Program program = algos::prefix_sums_program(n);
  EXPECT_EQ(row_units(program, p), umm::lemma1_row_wise(n, p, kTitan));
  EXPECT_EQ(col_units(program, p), umm::lemma1_column_wise(n, p, kTitan));
}

// The bulk-execution results are exactly the sequential algorithm's results
// (the whole point of the construction) — end to end on the paper's two
// case studies.
TEST(PaperClaims, BulkEqualsSequential) {
  Rng rng(2014);
  {
    const trace::Program program = algos::prefix_sums_program(48);
    std::vector<Word> inputs;
    const std::size_t p = 40;
    for (std::size_t j = 0; j < p; ++j) {
      const auto one = algos::prefix_sums_random_input(48, rng);
      inputs.insert(inputs.end(), one.begin(), one.end());
    }
    const auto out = plan::run_bulk(program, inputs, p);
    for (std::size_t j = 0; j < p; ++j) {
      const auto expected = algos::prefix_sums_reference(
          48, std::span<const Word>(inputs).subspan(j * 48, 48));
      const auto got = out.output(j);
      for (std::size_t i = 0; i < 48; ++i) ASSERT_EQ(got[i], expected[i]);
    }
  }
  {
    const std::size_t n = 10;
    const trace::Program program = algos::opt_program(n);
    std::vector<Word> inputs;
    const std::size_t p = 24;
    for (std::size_t j = 0; j < p; ++j) {
      const auto one = algos::opt_random_input(n, rng);
      inputs.insert(inputs.end(), one.begin(), one.end());
    }
    const auto out = plan::run_bulk(program, inputs, p);
    for (std::size_t j = 0; j < p; ++j) {
      const auto expected = algos::opt_reference(
          n, std::span<const Word>(inputs).subspan(j * n * n, n * n));
      const auto got = out.output(j);
      for (std::size_t i = 0; i < n * n; ++i) ASSERT_EQ(got[i], expected[i]);
    }
  }
}

}  // namespace
