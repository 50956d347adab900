// Cycle-accurate UMM executor: functional results must equal the host
// executor; simulated times must equal the closed-form TimingEstimator.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "algos/algorithm.hpp"
#include "bulk/bulk.hpp"
#include "bulk/host_executor.hpp"
#include "bulk/timing_estimator.hpp"
#include "bulk/umm_executor.hpp"
#include "common/rng.hpp"
#include "engine_plan.hpp"
#include "plan/plan.hpp"

namespace {

using namespace obx;
using namespace obx::bulk;

std::vector<Word> flat_inputs(const algos::Algorithm& algo, std::size_t n, std::size_t p,
                              Rng& rng) {
  std::vector<Word> inputs;
  for (std::size_t j = 0; j < p; ++j) {
    const auto one = algo.make_input(n, rng);
    inputs.insert(inputs.end(), one.begin(), one.end());
  }
  return inputs;
}

struct SimCase {
  std::string algo;
  std::size_t n;
  std::size_t p;
  std::uint32_t width;
  std::uint32_t latency;
  Arrangement arrangement;
  umm::Model model;
};

class SimulatorAgreement : public ::testing::TestWithParam<SimCase> {};

TEST_P(SimulatorAgreement, FunctionalMatchesHostAndTimeMatchesEstimator) {
  const SimCase c = GetParam();
  const algos::Algorithm& algo = algos::find(c.algo);
  const trace::Program program = algo.make_program(c.n);
  Rng rng(99);
  const std::vector<Word> inputs = flat_inputs(algo, c.n, c.p, rng);

  const umm::MachineConfig cfg{.width = c.width, .latency = c.latency};
  const Layout layout = make_layout(program, c.p, c.arrangement);

  const UmmBulkExecutor sim(c.model, cfg, layout);
  const UmmRunResult sim_run = sim.run(program, inputs);

  const HostRunResult host_run = plan::run(*test::engine_plan(program), inputs, c.p);
  // The same words: arranged on the simulated machine, lane-major on the host.
  const std::size_t n = program.memory_words;
  ASSERT_EQ(sim_run.memory.size(), layout.total_words());
  ASSERT_EQ(host_run.memory.size(), c.p * n);
  for (Lane j = 0; j < c.p; ++j) {
    for (Addr a = 0; a < n; ++a) {
      ASSERT_EQ(sim_run.memory[layout.global(a, j)], host_run.memory[j * n + a])
          << "functional divergence: lane " << j << " word " << a;
    }
  }

  const TimingEstimator estimator(c.model, cfg, layout);
  const TimingResult est = estimator.run(program);
  EXPECT_EQ(sim_run.time_units, est.time_units) << "timing fast path diverges";
  EXPECT_EQ(sim_run.stats, est.stats) << "timing fast path counts differ";
}

std::vector<SimCase> sim_cases() {
  std::vector<SimCase> cases;
  for (const Arrangement arr : {Arrangement::kRowWise, Arrangement::kColumnWise}) {
    for (const umm::Model model : {umm::Model::kUmm, umm::Model::kDmm}) {
      cases.push_back({"prefix-sums", 32, 64, 8, 5, arr, model});
      cases.push_back({"prefix-sums", 7, 20, 4, 3, arr, model});   // n < w, tail warp
      cases.push_back({"opt-triangulation", 8, 16, 8, 20, arr, model});
      cases.push_back({"fft", 8, 12, 4, 2, arr, model});
      cases.push_back({"bitonic-sort", 16, 24, 8, 7, arr, model});
      cases.push_back({"edit-distance", 4, 9, 4, 5, arr, model});
      cases.push_back({"tea", 2, 16, 8, 3, arr, model});
      cases.push_back({"convolution", 16, 10, 4, 4, arr, model});
      cases.push_back({"matmul", 4, 16, 8, 11, arr, model});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimulatorAgreement, ::testing::ValuesIn(sim_cases()));

TEST(UmmExecutor, ComputeChargingMatchesEstimator) {
  const algos::Algorithm& algo = algos::find("tea");
  const trace::Program program = algo.make_program(2);
  const std::size_t p = 8;
  Rng rng(5);
  const std::vector<Word> inputs = flat_inputs(algo, 2, p, rng);

  umm::MachineConfig cfg{.width = 4, .latency = 3};
  cfg.count_compute = true;
  const Layout layout = Layout::column_wise(p, program.memory_words);
  const UmmRunResult sim = UmmBulkExecutor(umm::Model::kUmm, cfg, layout).run(program, inputs);
  const TimingResult est = TimingEstimator(umm::Model::kUmm, cfg, layout).run(program);
  EXPECT_EQ(sim.time_units, est.time_units);
  EXPECT_EQ(sim.stats, est.stats);
  EXPECT_GT(est.stats.compute_steps, 0u);
}

TEST(UmmExecutor, ColumnWiseBeatsRowWiseAtScale) {
  // The paper's core claim, at simulator scale: with p >> w and a nontrivial
  // latency, the coalesced arrangement is faster by roughly w.
  const trace::Program program = algos::find("prefix-sums").make_program(32);
  const std::size_t p = 256;
  Rng rng(6);
  const algos::Algorithm& algo = algos::find("prefix-sums");
  const std::vector<Word> inputs = flat_inputs(algo, 32, p, rng);

  const umm::MachineConfig cfg{.width = 32, .latency = 1};
  const auto row = UmmBulkExecutor(umm::Model::kUmm, cfg,
                                   Layout::row_wise(p, program.memory_words))
                       .run(program, inputs);
  const auto col = UmmBulkExecutor(umm::Model::kUmm, cfg,
                                   Layout::column_wise(p, program.memory_words))
                       .run(program, inputs);
  EXPECT_LT(col.time_units, row.time_units);
  const double ratio =
      static_cast<double>(row.time_units) / static_cast<double>(col.time_units);
  EXPECT_GT(ratio, 16.0);  // ideal is w = 32
  EXPECT_LE(ratio, 32.5);
}

}  // namespace
