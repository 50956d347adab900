// The Planner's arrangement search over the simulated machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "algos/algorithm.hpp"
#include "common/rng.hpp"
#include "plan/plan_cache.hpp"
#include "plan/planner.hpp"
#include "umm/machine_config.hpp"

namespace {

using namespace obx;
using namespace obx::plan;

const ArrangementCandidate& chosen_of(const ExecutionPlan& plan) {
  const auto& cs = plan.provenance().candidates;
  const auto it =
      std::find_if(cs.begin(), cs.end(), [](const auto& c) { return c.chosen; });
  EXPECT_NE(it, cs.end());
  return *it;
}

TEST(PlanSearch, SearchesAllFourArrangements) {
  PlanOptions options;
  options.reference_lanes = 128;
  const auto plan =
      Planner(options).build(algos::find("prefix-sums").make_program(32));
  const auto& cs = plan->provenance().candidates;
  ASSERT_EQ(cs.size(), 4u);
  EXPECT_EQ(cs[0].arrangement, bulk::Arrangement::kColumnWise);
  EXPECT_EQ(cs[1].arrangement, bulk::Arrangement::kRowWise);
  EXPECT_EQ(cs[2].arrangement, bulk::Arrangement::kBlocked);
  EXPECT_EQ(cs[3].arrangement, bulk::Arrangement::kConflictFree);
  EXPECT_EQ(1, std::count_if(cs.begin(), cs.end(),
                             [](const auto& c) { return c.chosen; }));
  for (const auto& c : cs) EXPECT_GT(c.sim_units, 0u) << c.name();
  // Flat row/col mirror fields stay populated.
  EXPECT_EQ(plan->provenance().col_units, cs[0].sim_units);
  EXPECT_EQ(plan->provenance().row_units, cs[1].sim_units);
  // Default machine at a width-multiple occupancy: ties keep column-wise
  // (the Theorem 3 time-optimal layout).
  EXPECT_EQ(plan->arrangement(), bulk::Arrangement::kColumnWise);
}

TEST(PlanSearch, SortsFlipToConflictFreeUnderConflictHeavyMachine) {
  // Under a machine whose shared tier serializes stride-1 warp accesses
  // (bank rows wider than one word) and whose transaction group is wider
  // than a warp, the padded conflict-free arrangement wins outright for the
  // sorting networks.
  PlanOptions options;
  options.machine = umm::conflict_heavy_example();
  options.reference_lanes = 256;
  for (const char* name : {"bitonic-sort", "odd-even-sort"}) {
    const auto plan = Planner(options).build(algos::find(name).make_program(64));
    EXPECT_EQ(plan->arrangement(), bulk::Arrangement::kConflictFree) << name;
    EXPECT_EQ(plan->arrangement_param(),
              umm::conflict_free_stride(options.machine.shared))
        << name;
    EXPECT_GT(plan->provenance().margin_units, 0u) << name;
    const auto& best = chosen_of(*plan);
    for (const auto& c : plan->provenance().candidates) {
      if (!c.chosen) {
        EXPECT_LT(best.sim_units, c.sim_units) << name << " vs " << c.name();
      }
    }
  }
}

TEST(PlanSearch, ForcedArrangementRecordsSingleCandidate) {
  PlanOptions options;
  options.reference_lanes = 64;
  options.arrangement = bulk::Arrangement::kConflictFree;
  options.arrangement_param = 4;
  const auto plan = Planner(options).build(algos::find("horner").make_program(16));
  EXPECT_TRUE(plan->provenance().arrangement_forced);
  ASSERT_EQ(plan->provenance().candidates.size(), 1u);
  EXPECT_TRUE(plan->provenance().candidates[0].chosen);
  EXPECT_EQ(plan->arrangement(), bulk::Arrangement::kConflictFree);
  EXPECT_EQ(plan->arrangement_param(), 4u);
  EXPECT_EQ(plan->provenance().margin_units, 0u);
}

TEST(PlanSearch, ConflictFreePlanRunsBitIdentically) {
  const algos::Algorithm& algo = algos::find("odd-even-sort");
  const std::size_t n = 32;
  const std::size_t p = 40;
  PlanOptions options;
  options.machine = umm::conflict_heavy_example();
  options.reference_lanes = p;
  const auto plan = Planner(options).build(algo.make_program(n));
  ASSERT_EQ(plan->arrangement(), bulk::Arrangement::kConflictFree);

  Rng rng(3);
  std::vector<Word> inputs;
  std::vector<Word> expected;
  for (std::size_t j = 0; j < p; ++j) {
    const auto one = algo.make_input(n, rng);
    inputs.insert(inputs.end(), one.begin(), one.end());
    const auto ref = algo.reference(n, one);
    expected.insert(expected.end(), ref.begin(), ref.end());
  }
  std::vector<Word> outputs;
  plan::run(*plan, inputs, p, &outputs);
  EXPECT_EQ(outputs, expected);
}

TEST(PlanSearch, PlanCacheMemoisesPerSharedTierAndArrangementKnobs) {
  const trace::Program program = algos::find("prefix-sums").make_program(16);
  PlanCache cache;

  PlanOptions base;
  base.reference_lanes = 64;
  const auto a = cache.get_or_build("ps/16", program, base);
  EXPECT_EQ(cache.get_or_build("ps/16", program, base).get(), a.get());

  // A different shared tier is a different cache entry and fingerprint.
  PlanOptions shared = base;
  shared.machine = umm::conflict_heavy_example();
  const auto b = cache.get_or_build("ps/16", program, shared);
  EXPECT_NE(b.get(), a.get());
  EXPECT_NE(b->fingerprint(), a->fingerprint());
  EXPECT_NE(shared.fingerprint(), base.fingerprint());

  // So is a forced arrangement and its parameter.
  PlanOptions param = base;
  param.arrangement = bulk::Arrangement::kBlocked;
  param.arrangement_param = 8;
  PlanOptions param2 = param;
  param2.arrangement_param = 16;
  EXPECT_NE(param.fingerprint(), param2.fingerprint());

  EXPECT_NE(param.fingerprint(), base.fingerprint());
  const auto c = cache.get_or_build("ps/16", program, param);
  EXPECT_NE(c.get(), a.get());
  EXPECT_EQ(cache.get_or_build("ps/16", program, param).get(), c.get());
}

}  // namespace
