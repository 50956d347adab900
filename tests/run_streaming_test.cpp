// Memory-bounded streaming bulk execution (plan::run_streaming).
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "algos/algorithm.hpp"
#include "common/rng.hpp"
#include "engine_plan.hpp"
#include "plan/plan.hpp"

namespace {

using namespace obx;
using test::engine_plan;

struct Fixture {
  trace::Program program;
  std::vector<Word> inputs;   // lane-major
  std::vector<Word> expected; // lane-major outputs from the monolithic path
  std::size_t p;

  explicit Fixture(const std::string& name, std::size_t n, std::size_t lanes) : p(lanes) {
    const algos::Algorithm& algo = algos::find(name);
    program = algo.make_program(n);
    Rng rng(55);
    for (std::size_t j = 0; j < p; ++j) {
      const auto one = algo.make_input(n, rng);
      inputs.insert(inputs.end(), one.begin(), one.end());
    }
    expected = plan::run_bulk(program, inputs, p).flat;
  }

  void fill(Lane j, std::span<Word> dst) const {
    const Word* src = inputs.data() + j * program.input_words;
    std::copy(src, src + program.input_words, dst.begin());
  }
};

TEST(Streaming, MatchesMonolithicRunAcrossBatchSizes) {
  const Fixture fx("prefix-sums", 16, 37);  // deliberately awkward p
  const auto plan = engine_plan(fx.program);
  for (const std::size_t batch : {1u, 2u, 7u, 16u, 37u, 100u}) {
    std::vector<Word> got(fx.expected.size(), Word{0});
    std::vector<bool> seen(fx.p, false);
    const auto stats = plan::run_streaming(
        *plan, fx.p, batch, [&](Lane j, std::span<Word> dst) { fx.fill(j, dst); },
        [&](Lane j, std::span<const Word> out) {
          seen[j] = true;
          std::copy(out.begin(), out.end(),
                    got.begin() + static_cast<std::ptrdiff_t>(j * fx.program.output_words));
        });
    EXPECT_EQ(stats.batches, (fx.p + batch - 1) / batch) << "batch=" << batch;
    EXPECT_EQ(stats.lanes, fx.p);
    for (bool s : seen) EXPECT_TRUE(s);
    EXPECT_EQ(got, fx.expected) << "batch=" << batch;
  }
}

TEST(Streaming, InterpretedEngineAgrees) {
  const Fixture fx("bitonic-sort", 32, 11);
  const auto plan =
      engine_plan(fx.program, {.backend = exec::Backend::kInterpreted, .workers = 2});
  std::vector<Word> got(fx.expected.size(), Word{0});
  plan::run_streaming(
      *plan, fx.p, 4, [&](Lane j, std::span<Word> dst) { fx.fill(j, dst); },
      [&](Lane j, std::span<const Word> out) {
        std::copy(out.begin(), out.end(),
                  got.begin() + static_cast<std::ptrdiff_t>(j * fx.program.output_words));
      });
  EXPECT_EQ(got, fx.expected);
}

TEST(Streaming, LanesVisitedInOrder) {
  const Fixture fx("horner", 8, 9);
  Lane next_fill = 0, next_consume = 0;
  plan::run_streaming(
      *engine_plan(fx.program), fx.p, 4,
      [&](Lane j, std::span<Word> dst) {
        EXPECT_EQ(j, next_fill++);
        fx.fill(j, dst);
      },
      [&](Lane j, std::span<const Word>) { EXPECT_EQ(j, next_consume++); });
  EXPECT_EQ(next_fill, fx.p);
  EXPECT_EQ(next_consume, fx.p);
}

TEST(Streaming, AttributesCallbackTimeSeparatelyFromExecution) {
  const Fixture fx("prefix-sums", 16, 8);
  const auto stats = plan::run_streaming(
      *engine_plan(fx.program), fx.p, 4,
      [&](Lane j, std::span<Word> dst) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        fx.fill(j, dst);
      },
      [&](Lane, std::span<const Word>) {});
  // 8 fill callbacks sleeping 1ms each: the slack must be attributed to
  // callback_seconds, not folded into the engine's execute_seconds.
  EXPECT_GE(stats.callback_seconds, 0.008);
  EXPECT_GE(stats.execute_seconds, 0.0);
  EXPECT_LT(stats.execute_seconds, stats.callback_seconds);
  EXPECT_DOUBLE_EQ(stats.seconds(), stats.execute_seconds + stats.callback_seconds);
}

TEST(Streaming, Validation) {
  const Fixture fx("horner", 4, 2);
  const auto plan = engine_plan(fx.program);
  const auto fill = [&](Lane j, std::span<Word> dst) { fx.fill(j, dst); };
  const auto consume = [](Lane, std::span<const Word>) {};
  EXPECT_THROW(plan::run_streaming(*plan, 2, 0, fill, consume), std::logic_error);
  EXPECT_THROW(plan::run_streaming(*plan, 2, 4, nullptr, consume), std::logic_error);
  EXPECT_THROW(plan::run_streaming(*plan, 2, 4, fill, nullptr), std::logic_error);
}

}  // namespace
