// Lockstep host executor vs the scalar interpreter: bit-identical results on
// every engine, every algorithm, and with multi-threaded chunking.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "algos/algorithm.hpp"
#include "bulk/bulk.hpp"
#include "bulk/core_pool.hpp"
#include "bulk/host_executor.hpp"
#include "common/rng.hpp"
#include "exec/backend.hpp"
#include "trace/interpreter.hpp"

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

constexpr exec::Backend kEngines[] = {exec::Backend::kInterpreted, exec::Backend::kCompiled,
                                      exec::Backend::kJit};

using EngineCase = std::tuple<std::string, exec::Backend>;

class HostExecutorEquivalence : public ::testing::TestWithParam<EngineCase> {};

TEST_P(HostExecutorEquivalence, MatchesInterpreterPerLane) {
  const auto& [name, backend] = GetParam();
  const algos::Algorithm& algo = algos::find(name);
  // Use a small-to-moderate size so the sweep stays fast.
  const std::size_t n = algo.test_sizes[algo.test_sizes.size() / 2];
  const std::size_t p = 13;  // deliberately not a multiple of any warp width
  const trace::Program program = algo.make_program(n);

  Rng rng(1234);
  const std::vector<Word> inputs = flat_inputs(algo, n, p, rng);

  const HostBulkExecutor exec(p, HostBulkExecutor::Options{.backend = backend});
  const HostRunResult run = exec.run(program, inputs);
  const std::vector<Word> outputs = exec.gather_outputs(program, run.memory);

  for (std::size_t j = 0; j < p; ++j) {
    const std::span<const Word> input(inputs.data() + j * program.input_words,
                                      program.input_words);
    const trace::InterpreterResult ref = trace::interpret(program, input);
    const auto expected = ref.output(program);
    for (std::size_t i = 0; i < program.output_words; ++i) {
      ASSERT_EQ(outputs[j * program.output_words + i], expected[i])
          << algo.name << " " << exec::to_string(backend) << " lane " << j << " word " << i;
    }
  }
}

std::vector<EngineCase> all_algorithms_and_engines() {
  std::vector<EngineCase> cases;
  for (const auto& algo : algos::registry()) {
    for (const exec::Backend backend : kEngines) cases.emplace_back(algo.name, backend);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithmsEngines, HostExecutorEquivalence,
                         ::testing::ValuesIn(all_algorithms_and_engines()),
                         [](const ::testing::TestParamInfo<EngineCase>& param_info) {
                           std::string name = std::get<0>(param_info.param) + "_" +
                                              exec::to_string(std::get<1>(param_info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

/// run() returns exactly p·n words, lane j's canonical word a at j·n + a,
/// equal to the interpreter's final memory on every engine, occupancy and
/// worker count; run_outputs() builds no memory at all.  A large-n program
/// runs before a small-n one on the same threads, so state left in any
/// engine's scratch would show up as a divergence.
TEST(HostExecutor, RunReturnsLaneMajorInterpreterMemory) {
  const algos::Algorithm& large_algo = algos::find("matmul");
  const algos::Algorithm& small_algo = algos::find("prefix-sums");
  const std::pair<const algos::Algorithm*, std::size_t> cases[] = {{&large_algo, 8},
                                                                   {&small_algo, 8}};
  for (const std::size_t p : {1u, 3u, 65u, 2048u}) {
    for (const auto& [algo, n] : cases) {
      const trace::Program program = algo->make_program(n);
      Rng rng(p * 31 + n);
      const std::vector<Word> inputs = flat_inputs(*algo, n, p, rng);
      std::vector<Word> oracle;
      for (std::size_t j = 0; j < p; ++j) {
        const trace::InterpreterResult ref = trace::interpret(
            program, std::span<const Word>(inputs).subspan(j * program.input_words,
                                                           program.input_words));
        oracle.insert(oracle.end(), ref.memory.begin(), ref.memory.end());
      }
      for (const unsigned workers : {1u, 4u}) {
        for (const exec::Backend backend : kEngines) {
          const HostBulkExecutor exec(
              p, HostBulkExecutor::Options{.workers = workers, .backend = backend});
          const HostRunResult run = exec.run(program, inputs);
          ASSERT_EQ(run.memory.size(), p * program.memory_words);
          EXPECT_EQ(run.memory, oracle) << program.name << " p=" << p << " workers="
                                        << workers << " " << exec::to_string(backend);
          std::vector<Word> outputs;
          const HostRunResult out = exec.run_outputs(program, inputs, outputs);
          EXPECT_TRUE(out.memory.empty()) << exec::to_string(out.backend);
          EXPECT_EQ(outputs, exec.gather_outputs(program, run.memory));
        }
      }
    }
  }
}

TEST(HostExecutor, AutoWorkersGatherUsesThePool) {
  // workers = 0 means "auto" in run() and gather_outputs() alike: a gather at
  // p = 4096 spreads its lane chunks over the shared CorePool instead of
  // running inline on the caller.
  if (default_worker_count() == 1) GTEST_SKIP() << "one CPU: auto is inline";
  const trace::Program program = algos::find("prefix-sums").make_program(8);
  const std::size_t p = 4096;
  const HostBulkExecutor exec(p, HostBulkExecutor::Options{.workers = 0});
  const std::vector<Word> memory(p * program.memory_words, Word{1});
  const std::uint64_t before = CorePool::instance().counters().tasks;
  const std::vector<Word> out = exec.gather_outputs(program, memory);
  EXPECT_GT(CorePool::instance().counters().tasks, before);
  EXPECT_EQ(out, std::vector<Word>(p * program.output_words, Word{1}));
}

TEST(HostExecutor, AutoWorkersMatchInlineRunAndGather) {
  const algos::Algorithm& algo = algos::find("prefix-sums");
  const std::size_t n = 16;
  const std::size_t p = 1000;
  const trace::Program program = algo.make_program(n);
  Rng rng(9);
  const std::vector<Word> inputs = flat_inputs(algo, n, p, rng);

  const HostBulkExecutor autos(p, HostBulkExecutor::Options{.workers = 0});
  const HostBulkExecutor inline_exec(p, HostBulkExecutor::Options{.workers = 1});
  const auto a = autos.run(program, inputs);
  const auto b = inline_exec.run(program, inputs);
  ASSERT_EQ(a.memory, b.memory);
  EXPECT_EQ(autos.gather_outputs(program, a.memory), inline_exec.gather_outputs(program, b.memory));
}

TEST(HostExecutor, RejectsMismatchedSizes) {
  const trace::Program program = algos::find("prefix-sums").make_program(8);
  const HostBulkExecutor exec(4);
  EXPECT_THROW(exec.run(program, std::vector<Word>(31)), std::logic_error);
  EXPECT_THROW(exec.gather_outputs(program, std::vector<Word>(31)), std::logic_error);
}

TEST(HostExecutor, ReportsPerInputStepCounts) {
  const trace::Program program = algos::find("prefix-sums").make_program(10);
  const std::size_t p = 4;
  Rng rng(9);
  const algos::Algorithm& algo = algos::find("prefix-sums");
  const std::vector<Word> inputs = flat_inputs(algo, 10, p, rng);
  for (const exec::Backend backend : kEngines) {
    const HostBulkExecutor exec(p, HostBulkExecutor::Options{.backend = backend});
    const HostRunResult run = exec.run(program, inputs);
    EXPECT_EQ(run.counts.memory(), 20u) << exec::to_string(backend);
    EXPECT_GE(run.seconds, 0.0);
  }
}

TEST(RunBulk, ConvenienceApiMatchesInterpreter) {
  const algos::Algorithm& algo = algos::find("bitonic-sort");
  const std::size_t n = 64;
  const std::size_t p = 6;
  const trace::Program program = algo.make_program(n);
  Rng rng(10);
  const std::vector<Word> inputs = flat_inputs(algo, n, p, rng);

  const BulkOutputs inline_out = run_bulk(program, inputs, p);
  const BulkOutputs pooled = run_bulk(program, inputs, p, 4);
  ASSERT_EQ(inline_out.count(), p);
  EXPECT_EQ(inline_out.flat, pooled.flat);
  for (std::size_t j = 0; j < p; ++j) {
    const trace::InterpreterResult ref = trace::interpret(
        program, std::span<const Word>(inputs).subspan(j * program.input_words,
                                                       program.input_words));
    const auto expected = ref.output(program);
    const auto got = inline_out.output(j);
    for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], expected[i]);
  }
}

}  // namespace
