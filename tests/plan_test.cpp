// plan::ExecutionPlan / Planner / PlanCache tests: fingerprint determinism,
// provenance, cache sharing of the compiled artifact, thread-safety, the
// SIMD pin, and bit-identical equivalence of optimised plans with the
// one-off plans of run_bulk.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "algos/algorithm.hpp"
#include "bulk/bulk.hpp"
#include "bulk/host_executor.hpp"
#include "bulk/layout.hpp"
#include "common/rng.hpp"
#include "common/simd_isa.hpp"
#include "exec/backend.hpp"
#include "exec/jit/jit_program.hpp"
#include "plan/plan_cache.hpp"
#include "plan/planner.hpp"
#include "serve/program_cache.hpp"
#include "trace/interpreter.hpp"

namespace {

using namespace obx;
using trace::Op;
using trace::Step;

constexpr std::size_t kCountingWords = 8;

Generator<Step> counting_steps() {
  for (std::size_t i = 0; i < kCountingWords; ++i) {
    co_yield Step::load(1, static_cast<Addr>(i));
    co_yield Step::alu(Op::kAddI, 0, 0, 1);
    co_yield Step::store(static_cast<Addr>(i), 0);
  }
}

/// A program whose stream factory counts its invocations, so tests can see
/// exactly how many times any layer drained the stream.
trace::Program counting_program(std::shared_ptr<std::atomic<int>> invocations) {
  trace::Program p;
  p.name = "counting";
  p.memory_words = kCountingWords;
  p.input_words = kCountingWords;
  p.output_offset = 0;
  p.output_words = kCountingWords;
  p.register_count = 2;
  p.stream = [invocations]() {
    ++*invocations;
    return counting_steps();
  };
  return p;
}

/// A program the peephole optimiser wins on: the load is forwarded from the
/// preceding store, after which the scratch store is dead.
trace::Program optimisable_program() {
  trace::Program p;
  p.name = "optimisable";
  p.memory_words = 3;
  p.input_words = 1;
  p.output_offset = 2;
  p.output_words = 1;
  p.register_count = 3;
  p.stream = [] {
    return []() -> Generator<Step> {
      co_yield Step::load(0, 0);
      co_yield Step::store(1, 0);     // scratch: dead once the load forwards
      co_yield Step::load(1, 1);      // forwarded from the store above
      co_yield Step::alu(Op::kAddI, 2, 0, 1);
      co_yield Step::store(2, 2);
    }();
  };
  return p;
}

std::vector<Word> lane_inputs(const algos::Algorithm& algo, std::size_t n,
                              std::size_t p, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Word> inputs;
  for (std::size_t j = 0; j < p; ++j) {
    const auto one = algo.make_input(n, rng);
    inputs.insert(inputs.end(), one.begin(), one.end());
  }
  return inputs;
}

// ---------------------------------------------------------------------------
// Fingerprints.

TEST(PlanOptionsTest, FingerprintIsDeterministicAndKnobSensitive) {
  const plan::PlanOptions base;
  EXPECT_EQ(base.fingerprint(), plan::PlanOptions{}.fingerprint());

  plan::PlanOptions o = base;
  o.machine.width = 64;
  EXPECT_NE(o.fingerprint(), base.fingerprint());
  o = base;
  o.machine.latency = 100;
  EXPECT_NE(o.fingerprint(), base.fingerprint());
  o = base;
  o.reference_lanes = 512;
  EXPECT_NE(o.fingerprint(), base.fingerprint());
  o = base;
  o.optimise = false;
  EXPECT_NE(o.fingerprint(), base.fingerprint());
  o = base;
  o.backend = exec::Backend::kCompiled;
  EXPECT_NE(o.fingerprint(), base.fingerprint());
  o = base;
  o.tile_lanes = 32;
  EXPECT_NE(o.fingerprint(), base.fingerprint());
  o = base;
  o.workers = 4;
  EXPECT_NE(o.fingerprint(), base.fingerprint());
  o = base;
  o.arrangement = bulk::Arrangement::kRowWise;
  EXPECT_NE(o.fingerprint(), base.fingerprint());
  o.arrangement = bulk::Arrangement::kColumnWise;
  const auto col = o.fingerprint();
  o.arrangement = bulk::Arrangement::kRowWise;
  EXPECT_NE(o.fingerprint(), col);
  o = base;
  o.simd = SimdIsa::kScalar;
  EXPECT_NE(o.fingerprint(), base.fingerprint());
}

TEST(PlannerTest, SameInputsProduceIdenticalPlans) {
  const algos::Algorithm& algo = algos::find("prefix-sums");
  const plan::PlanOptions options;
  const auto a = plan::build_plan(algo.make_program(64), options);
  const auto b = plan::build_plan(algo.make_program(64), options);
  EXPECT_EQ(a->fingerprint(), b->fingerprint());
  EXPECT_EQ(a->arrangement(), b->arrangement());
  EXPECT_EQ(a->backend(), b->backend());
  EXPECT_EQ(a->provenance().resolved_tile_lanes, b->provenance().resolved_tile_lanes);
  EXPECT_EQ(a->describe(), b->describe());
  // Distinct plan objects, but the same decisions.
  EXPECT_NE(a.get(), b.get());
}

// ---------------------------------------------------------------------------
// Provenance and decisions.

TEST(PlannerTest, ProvenanceRecordsAdoptedOptimisation) {
  const auto plan = plan::build_plan(optimisable_program(), plan::PlanOptions{});
  const plan::PlanProvenance& prov = plan->provenance();
  EXPECT_TRUE(prov.optimise_attempted);
  EXPECT_TRUE(prov.optimised);
  EXPECT_LT(prov.after.total(), prov.before.total());
  EXPECT_FALSE(prov.passes.empty());
  EXPECT_EQ(plan->program().profile().total(), prov.after.total());

  // The optimised program still computes input + input.
  std::vector<Word> out;
  const std::vector<Word> inputs = {21};
  plan::run(*plan, inputs, 1, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 42u);
}

TEST(PlannerTest, DisabledOptimiserIsRecorded) {
  plan::PlanOptions options;
  options.optimise = false;
  const auto plan = plan::build_plan(optimisable_program(), options);
  EXPECT_FALSE(plan->provenance().optimise_attempted);
  EXPECT_FALSE(plan->provenance().optimised);
  EXPECT_EQ(plan->provenance().after.total(), plan->provenance().before.total());
}

TEST(PlannerTest, ForcedArrangementSkipsSimulationChoice) {
  const algos::Algorithm& algo = algos::find("prefix-sums");
  plan::PlanOptions options;
  options.arrangement = bulk::Arrangement::kRowWise;
  const auto plan = plan::build_plan(algo.make_program(64), options);
  EXPECT_EQ(plan->arrangement(), bulk::Arrangement::kRowWise);
  EXPECT_TRUE(plan->provenance().arrangement_forced);
}

TEST(PlannerTest, ResolvedBackendIsNeverAuto) {
  const algos::Algorithm& algo = algos::find("prefix-sums");
  const auto compiled = plan::build_plan(algo.make_program(64), plan::PlanOptions{});
  // kAuto resolves to the JIT rung where emission is available, else the
  // compiled switch — never to kAuto itself.
  EXPECT_EQ(compiled->backend(), exec::jit_available() ? exec::Backend::kJit
                                                       : exec::Backend::kCompiled);
  EXPECT_EQ(compiled->jitted() != nullptr, exec::jit_available());
  ASSERT_NE(compiled->compiled(), nullptr);
  EXPECT_GT(compiled->provenance().compiled_segments, 0u);
  EXPECT_GT(compiled->provenance().compiled_fused_ops, 0u);

  plan::PlanOptions interp;
  interp.backend = exec::Backend::kInterpreted;
  const auto plan = plan::build_plan(algo.make_program(64), interp);
  EXPECT_EQ(plan->backend(), exec::Backend::kInterpreted);
  EXPECT_EQ(plan->compiled(), nullptr);
}

TEST(PlannerTest, OverBudgetCompileFallsBackToInterpreterAndStaysCorrect) {
  auto invocations = std::make_shared<std::atomic<int>>(0);
  plan::PlanOptions options;
  options.optimise = false;
  options.compile_budget_steps = 4;  // 24-step stream: compile must abort
  const auto plan = plan::build_plan(counting_program(invocations), options);
  EXPECT_TRUE(plan->provenance().compile_attempted);
  EXPECT_FALSE(plan->provenance().compiled);
  EXPECT_EQ(plan->backend(), exec::Backend::kInterpreted);
  EXPECT_EQ(plan->compiled(), nullptr);

  const std::size_t p = 5;
  std::vector<Word> inputs(p * kCountingWords);
  for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = i * 7 + 3;
  std::vector<Word> out;
  const auto result = plan::run(*plan, inputs, p, &out);
  EXPECT_EQ(result.backend, exec::Backend::kInterpreted);
  for (std::size_t j = 0; j < p; ++j) {
    const trace::InterpreterResult ref = trace::interpret(
        plan->program(), std::span<const Word>(inputs.data() + j * kCountingWords,
                                               kCountingWords));
    for (std::size_t i = 0; i < kCountingWords; ++i) {
      ASSERT_EQ(out[j * kCountingWords + i], ref.memory[i]) << "lane " << j;
    }
  }
}

TEST(PlannerTest, UnitsMemoMatchesFreshSimulation) {
  const algos::Algorithm& algo = algos::find("prefix-sums");
  const plan::PlanOptions options;
  const auto plan = plan::build_plan(algo.make_program(64), options);
  // The reference-occupancy estimate is pre-seeded; asking again (any number
  // of times, any occupancy) must be consistent.
  const TimeUnits at_ref = plan->units_for_lanes(options.reference_lanes);
  EXPECT_EQ(at_ref, plan->units_for_lanes(options.reference_lanes));
  EXPECT_GT(plan->units_for_lanes(1024), 0u);
  const TimeUnits chosen = std::min(plan->provenance().row_units,
                                    plan->provenance().col_units);
  EXPECT_EQ(at_ref, chosen);
}

TEST(PlannerTest, ResidentLanesForBudgetClampsToLanes) {
  const algos::Algorithm& algo = algos::find("prefix-sums");
  const auto plan = plan::build_plan(algo.make_program(64), plan::PlanOptions{});
  EXPECT_EQ(plan->resident_lanes_for_budget(1, 100), 1u);  // floor: one lane
  EXPECT_EQ(plan->resident_lanes_for_budget(std::size_t{1} << 40, 100), 100u);
  const std::size_t mid = plan->resident_lanes_for_budget(1u << 16, 1u << 20);
  EXPECT_GE(mid, 1u);
  EXPECT_LE(mid, 1u << 20);
}

// ---------------------------------------------------------------------------
// PlanCache.

TEST(PlanCacheTest, HitReturnsIdenticalPlanAndCompiledArtifactWithoutRedrain) {
  auto invocations = std::make_shared<std::atomic<int>>(0);
  const trace::Program program = counting_program(invocations);
  plan::PlanOptions options;
  options.optimise = false;  // keep the drain accounting minimal
  plan::PlanCache cache(options);

  const auto first = cache.get_or_build("counting", program);
  ASSERT_NE(first, nullptr);
  const exec::Backend expect_backend =
      exec::jit_available() ? exec::Backend::kJit : exec::Backend::kCompiled;
  EXPECT_EQ(first->backend(), expect_backend);
  const int drains_after_build = invocations->load();
  EXPECT_GT(drains_after_build, 0);

  // Hit: identical plan, identical shared compiled artifact, zero drains.
  const auto second = cache.get_or_build("counting", program);
  EXPECT_EQ(second.get(), first.get());
  EXPECT_EQ(second->compiled().get(), first->compiled().get());
  EXPECT_EQ(invocations->load(), drains_after_build);

  // Executors running the plan's program share the same artifact through the
  // exec_cache slot — still no re-drain.
  const bulk::HostBulkExecutor exec(*first, 4);
  std::vector<Word> inputs(4 * kCountingWords, Word{2});
  const auto result = exec.run(first->program(), inputs);
  EXPECT_EQ(result.backend, expect_backend);
  EXPECT_EQ(invocations->load(), drains_after_build);
}

TEST(PlanCacheTest, DistinctOptionsGetDistinctEntriesUnderOneId) {
  const algos::Algorithm& algo = algos::find("prefix-sums");
  const trace::Program program = algo.make_program(32);
  plan::PlanCache cache;
  const auto col = cache.get_or_build("ps", program);
  plan::PlanOptions row;
  row.arrangement = bulk::Arrangement::kRowWise;
  const auto forced = cache.get_or_build("ps", program, row);
  EXPECT_NE(col.get(), forced.get());
  EXPECT_EQ(forced->arrangement(), bulk::Arrangement::kRowWise);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.ids(), std::vector<std::string>{"ps"});
  EXPECT_TRUE(cache.contains("ps"));
  EXPECT_TRUE(cache.contains("ps", row));
  EXPECT_EQ(cache.lookup("ps").get(), col.get());
  EXPECT_EQ(cache.lookup("absent"), nullptr);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCacheTest, IdReuseForADifferentProgramThrows) {
  const algos::Algorithm& algo = algos::find("prefix-sums");
  plan::PlanCache cache;
  cache.get_or_build("id", algo.make_program(32));
  EXPECT_THROW(cache.get_or_build("id", algo.make_program(64)), std::logic_error);
}

TEST(PlanCacheTest, ConcurrentBuildsOfOneKeyCollapseToASingleBuild) {
  // Baseline: how many stream drains one solo build costs.
  auto solo_count = std::make_shared<std::atomic<int>>(0);
  plan::PlanCache solo;
  solo.get_or_build("counting", counting_program(solo_count));
  const int drains_per_build = solo_count->load();

  auto invocations = std::make_shared<std::atomic<int>>(0);
  const trace::Program program = counting_program(invocations);
  plan::PlanCache cache;
  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const plan::ExecutionPlan>> plans(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&, i] { plans[i] = cache.get_or_build("counting", program); });
  }
  for (auto& t : threads) t.join();

  for (std::size_t i = 0; i < kThreads; ++i) {
    ASSERT_NE(plans[i], nullptr) << "thread " << i;
    EXPECT_EQ(plans[i].get(), plans[0].get()) << "thread " << i;
  }
  EXPECT_EQ(invocations->load(), drains_per_build);
  EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------------------------------------------
// Equivalence: plan-driven execution is bit-identical to the direct executor.

TEST(PlanEquivalenceTest, PlanDrivenRunMatchesDirectExecutorAcrossRegistry) {
  const std::size_t p = 5;
  for (const auto& algo : algos::registry()) {
    const std::size_t n = algo.test_sizes.front();
    const trace::Program program = algo.make_program(n);
    const std::vector<Word> inputs = lane_inputs(algo, n, p, /*seed=*/7);
    // Direct: run_bulk's one-off plan of the unoptimised program.
    const std::vector<Word> expected = plan::run_bulk(program, inputs, p).flat;
    for (const auto arr :
         {bulk::Arrangement::kRowWise, bulk::Arrangement::kColumnWise}) {
      // Plan-driven: whatever arrangement the simulated machine is planned
      // for, the host run is the same.
      plan::PlanOptions options;
      options.arrangement = arr;
      const auto plan = plan::build_plan(program, options);
      std::vector<Word> out;
      plan::run(*plan, inputs, p, &out);
      ASSERT_EQ(out, expected) << algo.name << " " << to_string(arr);
    }
  }
}

TEST(PlanEquivalenceTest, StreamingRunMatchesMonolithicRun) {
  const algos::Algorithm& algo = algos::find("bitonic-sort");
  const std::size_t n = algo.test_sizes.front();
  const std::size_t p = 11;
  const trace::Program program = algo.make_program(n);
  const std::vector<Word> inputs = lane_inputs(algo, n, p, /*seed=*/11);
  const auto plan = plan::build_plan(program, plan::PlanOptions{});

  std::vector<Word> monolithic;
  plan::run(*plan, inputs, p, &monolithic);

  std::vector<Word> streamed(monolithic.size(), Word{0});
  const auto stats = plan::run_streaming(
      *plan, p, /*max_resident_lanes=*/3,
      [&](Lane j, std::span<Word> dst) {
        const std::size_t w = plan->input_words();
        std::copy_n(inputs.begin() + static_cast<std::ptrdiff_t>(j * w), w, dst.begin());
      },
      [&](Lane j, std::span<const Word> out) {
        std::copy(out.begin(), out.end(),
                  streamed.begin() + static_cast<std::ptrdiff_t>(j * plan->output_words()));
      });
  EXPECT_EQ(stats.batches, 4u);  // ceil(11 / 3)
  EXPECT_EQ(stats.lanes, p);
  EXPECT_EQ(streamed, monolithic);
}

TEST(PlanEquivalenceTest, PlanConstructedExecutorsMatchPlanRun) {
  const algos::Algorithm& algo = algos::find("horner");
  const std::size_t n = algo.test_sizes.front();
  const std::size_t p = 6;
  const trace::Program program = algo.make_program(n);
  const std::vector<Word> inputs = lane_inputs(algo, n, p, /*seed=*/23);
  const auto plan = plan::build_plan(program, plan::PlanOptions{});

  std::vector<Word> expected;
  plan::run(*plan, inputs, p, &expected);

  const bulk::HostBulkExecutor host(*plan, p);
  EXPECT_EQ(host.lanes(), p);
  const auto run = host.run(plan->program(), inputs);
  EXPECT_EQ(run.backend, plan->backend());
  EXPECT_EQ(run.simd, plan->provenance().simd);
  EXPECT_EQ(host.gather_outputs(plan->program(), run.memory), expected);
}

// PlanOptions::simd pins the tier end to end: the plan records it, the JIT
// is emitted for it, and executors built from the plan run at it — scalar
// and the widest tier this CPU supports, in one process.
TEST(PlanEquivalenceTest, SimdPinReachesProvenanceExecutorAndJit) {
  const algos::Algorithm& algo = algos::find("tea");
  const std::size_t n = algo.test_sizes.front();
  const std::size_t p = 37;
  const trace::Program program = algo.make_program(n);
  const std::vector<Word> inputs = lane_inputs(algo, n, p, /*seed=*/41);
  std::vector<Word> first;
  for (const SimdIsa tier : {SimdIsa::kScalar, detect_simd_isa()}) {
    plan::PlanOptions options;
    options.simd = tier;
    const auto plan = plan::build_plan(program, options);
    EXPECT_EQ(plan->provenance().simd, tier);
    EXPECT_EQ(plan->provenance().simd_width, simd_width_words(tier));
    ASSERT_NE(plan->compiled(), nullptr);
    EXPECT_EQ(plan->jitted() != nullptr, exec::jit_available());
    if (plan->jitted() != nullptr) {
      EXPECT_EQ(plan->jitted()->isa(), tier);
    }

    std::vector<Word> out;
    const bulk::HostRunResult run = plan::run(*plan, inputs, p, &out);
    EXPECT_EQ(run.simd, tier);
    EXPECT_EQ(run.backend, plan->backend());
    if (first.empty()) first = out;
    EXPECT_EQ(out, first) << to_string(tier);
  }
  plan::PlanOptions unsupported;
  for (const SimdIsa tier : {SimdIsa::kSse2, SimdIsa::kNeon, SimdIsa::kAvx2, SimdIsa::kAvx512}) {
    if (simd_isa_supported(tier)) continue;
    unsupported.simd = tier;
    EXPECT_THROW(plan::Planner{unsupported}, std::logic_error) << to_string(tier);
  }
}

// plan::run with `outputs` takes the output path: every engine copies each
// tile's output rows straight out and builds no memory image.  Without
// `outputs` every lane's final memory comes back, lane-major.
TEST(PlanEquivalenceTest, RunWithOutputsBuildsNoArrangedImage) {
  const algos::Algorithm& algo = algos::find("prefix-sums");
  const std::size_t n = 64;
  const std::size_t p = 37;
  const trace::Program program = algo.make_program(n);
  const std::vector<Word> inputs = lane_inputs(algo, n, p, /*seed=*/31);
  for (const exec::Backend backend :
       {exec::Backend::kAuto, exec::Backend::kCompiled, exec::Backend::kInterpreted}) {
    plan::PlanOptions options;
    options.backend = backend;
    const auto plan = plan::build_plan(program, options);

    std::vector<Word> out;
    const bulk::HostRunResult with = plan::run(*plan, inputs, p, &out);
    EXPECT_EQ(with.backend, plan->backend());
    EXPECT_TRUE(with.memory.empty());
    ASSERT_EQ(out.size(), p * plan->output_words());

    const bulk::HostRunResult without = plan::run(*plan, inputs, p);
    EXPECT_EQ(without.backend, plan->backend());
    ASSERT_EQ(without.memory.size(), p * plan->program().memory_words);
    EXPECT_EQ(bulk::HostBulkExecutor(*plan, p).gather_outputs(plan->program(),
                                                               without.memory),
              out);
    for (std::size_t j = 0; j < p; ++j) {
      const trace::InterpreterResult ref = trace::interpret(
          plan->program(),
          std::span<const Word>(inputs.data() + j * plan->input_words(),
                                plan->input_words()));
      const auto expected = ref.output(plan->program());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(out[j * plan->output_words() + i], expected[i]) << "lane " << j;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// serve::PrepareOptions maps onto plan::PlanOptions.

TEST(PrepareOptionsTest, EnSpellingIsCanonical) {
  serve::PrepareOptions po;
  EXPECT_TRUE(po.optimise);
  EXPECT_TRUE(po.plan_options().optimise);

  po.optimise = false;
  EXPECT_FALSE(po.plan_options().optimise);
}

TEST(PrepareOptionsTest, MapsOntoPlanOptions) {
  serve::PrepareOptions po;
  po.machine.width = 64;
  po.reference_lanes = 1024;
  po.optimise_step_limit = 99;
  po.workers = 3;
  const plan::PlanOptions mapped = po.plan_options();
  EXPECT_EQ(mapped.machine.width, 64u);
  EXPECT_EQ(mapped.reference_lanes, 1024u);
  EXPECT_EQ(mapped.optimise_step_limit, 99u);
  EXPECT_EQ(mapped.workers, 3u);
}

}  // namespace
