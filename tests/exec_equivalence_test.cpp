// Engine equivalence fuzz: for every registry algorithm, every host engine
// (interpreted, compiled, JIT) and awkward lane counts, the image path must
// return bit-identical lane-major memory to the scalar interpreter run once
// per lane, and the output path must return that interpreter's outputs
// without building a memory image.  The tile engines are also pinned to the
// scalar SIMD tier and to the best tier this CPU/build supports — the
// lane-vectorization contract (including the float-op algorithms, whose
// lane-wise IEEE results must not change with vector width).  A JIT case
// runs on the compiled switch where copy-and-patch is unavailable.
#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <tuple>
#include <vector>

#include "algos/algorithm.hpp"
#include "bulk/host_executor.hpp"
#include "common/rng.hpp"
#include "common/simd_isa.hpp"
#include "engine_plan.hpp"
#include "exec/backend.hpp"
#include "exec/jit/jit_program.hpp"
#include "plan/plan.hpp"
#include "trace/interpreter.hpp"

namespace {

using namespace obx;
using namespace obx::bulk;
using test::engine_plan;

std::vector<Word> flat_inputs(const algos::Algorithm& algo, std::size_t n, std::size_t p,
                              Rng& rng) {
  std::vector<Word> inputs;
  for (std::size_t j = 0; j < p; ++j) {
    const auto one = algo.make_input(n, rng);
    inputs.insert(inputs.end(), one.begin(), one.end());
  }
  return inputs;
}

using Case = std::tuple<std::string, exec::Backend, std::size_t>;

class ExecEquivalence : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    const auto& [name, engine, p] = GetParam();
    const algos::Algorithm& algo = algos::find(name);
    const std::size_t n = algo.test_sizes[algo.test_sizes.size() / 2];
    program_ = algo.make_program(n);
    p_ = p;
    engine_ = engine;
    expected_ = engine == exec::Backend::kJit && !exec::jit_available()
                    ? exec::Backend::kCompiled
                    : engine;
    Rng rng(0xE9u ^ (p * 977));
    inputs_ = flat_inputs(algo, n, p, rng);
    // The oracle: the scalar interpreter once per lane, lane-major.
    for (std::size_t j = 0; j < p; ++j) {
      const trace::InterpreterResult ref = trace::interpret(
          program_, std::span<const Word>(inputs_).subspan(j * program_.input_words,
                                                           program_.input_words));
      memory_.insert(memory_.end(), ref.memory.begin(), ref.memory.end());
      const auto out = ref.output(program_);
      outputs_.insert(outputs_.end(), out.begin(), out.end());
      counts_ = ref.counts;
    }
  }

  /// SIMD pins to sweep: unset (the process default), then both ends of the
  /// range.  The interpreted engine ignores the pin, so it runs unset only.
  std::vector<std::optional<SimdIsa>> tiers() const {
    std::vector<std::optional<SimdIsa>> tiers{std::nullopt};
    if (engine_ == exec::Backend::kInterpreted) return tiers;
    tiers.emplace_back(SimdIsa::kScalar);
    if (detect_simd_isa() != SimdIsa::kScalar) tiers.emplace_back(detect_simd_isa());
    return tiers;
  }

  std::string where(unsigned workers, const std::optional<SimdIsa>& tier) const {
    return program_.name + " p=" + std::to_string(p_) + " workers=" + std::to_string(workers) +
           " " + exec::to_string(engine_) + "/" + (tier ? to_string(*tier) : "default");
  }

  trace::Program program_;
  std::size_t p_ = 0;
  exec::Backend engine_ = exec::Backend::kAuto;
  exec::Backend expected_ = exec::Backend::kAuto;  ///< the engine that must run
  std::vector<Word> inputs_;
  std::vector<Word> memory_;   ///< every lane's final memory, lane-major
  std::vector<Word> outputs_;  ///< every lane's outputs, lane-major
  trace::StepCounts counts_;   ///< one lane's steps
};

// Image path: run() returns exactly the oracle's p·n lane-major words —
// stronger than comparing outputs — and gather_outputs() recovers the
// oracle's outputs from them.  Two workers, so chunking × tiling is
// exercised on every engine.
TEST_P(ExecEquivalence, ImagePathMatchesInterpreter) {
  for (const std::optional<SimdIsa>& tier : tiers()) {
    const HostBulkExecutor exec(
        *engine_plan(program_, {.backend = engine_, .workers = 2, .simd = tier}), p_);
    const HostRunResult run = exec.run(program_, inputs_);
    ASSERT_EQ(run.backend, expected_) << where(2, tier) << ": program failed to compile";
    if (tier) {
      EXPECT_EQ(run.simd, *tier);
    }
    ASSERT_EQ(run.memory, memory_) << where(2, tier);
    EXPECT_EQ(run.counts.total(), counts_.total());
    EXPECT_EQ(run.counts.memory(), counts_.memory());
    ASSERT_EQ(exec.gather_outputs(program_, run.memory), outputs_) << where(2, tier);
  }
}

// Output path: run_outputs() builds no memory image (each tile copies its
// output rows straight out) and returns the oracle's outputs, on one and
// four workers.
TEST_P(ExecEquivalence, OutputPathMatchesInterpreter) {
  for (const unsigned workers : {1u, 4u}) {
    for (const std::optional<SimdIsa>& tier : tiers()) {
      const HostBulkExecutor exec(
          *engine_plan(program_, {.backend = engine_, .workers = workers, .simd = tier}), p_);
      std::vector<Word> got;
      const HostRunResult run = exec.run_outputs(program_, inputs_, got);
      ASSERT_EQ(run.backend, expected_) << where(workers, tier);
      EXPECT_TRUE(run.memory.empty()) << "the output path built a memory image";
      ASSERT_EQ(got, outputs_) << where(workers, tier) << ": output path";
    }
  }
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const auto& algo : algos::registry()) {
    for (const exec::Backend engine :
         {exec::Backend::kInterpreted, exec::Backend::kCompiled, exec::Backend::kJit}) {
      for (const std::size_t p : {1u, 3u, 5u, 7u, 9u, 33u, 63u, 65u, 257u, 2048u}) {
        cases.emplace_back(algo.name, engine, p);
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithmsEnginesLanes, ExecEquivalence,
                         ::testing::ValuesIn(all_cases()),
                         [](const ::testing::TestParamInfo<Case>& param_info) {
                           std::string name = std::get<0>(param_info.param) + "_" +
                                              exec::to_string(std::get<1>(param_info.param)) +
                                              "_p" +
                                              std::to_string(std::get<2>(param_info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// Explicit tile sizes, including ones that do not divide p, must not change
// results (partial tiles take the remainder path).
TEST(ExecEquivalenceTiles, TileSizeIsPureTuning) {
  const algos::Algorithm& algo = algos::find("prefix-sums");
  const std::size_t n = 32;
  const std::size_t p = 203;
  const trace::Program program = algo.make_program(n);
  Rng rng(77);
  const std::vector<Word> inputs = flat_inputs(algo, n, p, rng);

  const HostRunResult ref =
      plan::run(*engine_plan(program, {.backend = exec::Backend::kInterpreted, .workers = 1}), inputs, p);
  for (const std::size_t tile : {1u, 3u, 64u, 256u, 1024u}) {
    const HostRunResult got = plan::run(
        *engine_plan(program, {.backend = exec::Backend::kCompiled, .tile_lanes = tile, .workers = 1}),
        inputs, p);
    ASSERT_EQ(got.backend, exec::Backend::kCompiled);
    ASSERT_EQ(ref.memory, got.memory) << "tile=" << tile;
  }
}

// Lane counts that are not multiples of any vector width: every tile ends in
// a scalar epilogue (for p < width the whole run is epilogue).  Uses a
// float-heavy algorithm so IEEE tail handling is what is being exercised.
TEST(ExecEquivalenceRaggedTail, OddLaneCountsMatchScalarTier) {
  const algos::Algorithm& algo = algos::find("convolution");
  const std::size_t n = algo.test_sizes.front();
  const trace::Program program = algo.make_program(n);
  for (const std::size_t p : {1u, 3u, 7u, 9u, 63u, 65u}) {
    Rng rng(0xA7u + p);
    const std::vector<Word> inputs = flat_inputs(algo, n, p, rng);
    const HostRunResult scalar = plan::run(
        *engine_plan(program, {.backend = exec::Backend::kCompiled, .workers = 1, .simd = SimdIsa::kScalar}),
        inputs, p);
    const HostRunResult best = plan::run(
        *engine_plan(program, {.backend = exec::Backend::kCompiled, .workers = 1, .simd = detect_simd_isa()}),
        inputs, p);
    ASSERT_EQ(scalar.backend, exec::Backend::kCompiled);
    ASSERT_EQ(best.backend, exec::Backend::kCompiled);
    ASSERT_EQ(scalar.memory, best.memory)
        << "p=" << p << " tier=" << to_string(best.simd);
  }
}

// The tile-size rounding rule: requested sizes >= the vector width round
// down to a multiple of it; smaller requests are honoured; auto sizes are
// powers of two (multiples of every width).  Arguments: requested tile,
// register count, words per lane, lanes, vector width.
TEST(ResolveTileLanes, RoundsToVectorWidthMultiples) {
  EXPECT_EQ(exec::resolve_tile_lanes(100, 4, 8, 4096, 8), 96u);
  EXPECT_EQ(exec::resolve_tile_lanes(96, 4, 8, 4096, 8), 96u);
  EXPECT_EQ(exec::resolve_tile_lanes(100, 4, 8, 4096, 1), 100u);
  // Requests below the width are honoured as-is (pure scalar tail).
  EXPECT_EQ(exec::resolve_tile_lanes(3, 4, 8, 4096, 8), 3u);
  // Auto tiles are powers of two regardless of width.
  const std::size_t auto_tile = exec::resolve_tile_lanes(0, 4, 8, 4096, 8);
  EXPECT_EQ(auto_tile % 8, 0u);
  EXPECT_EQ(auto_tile, exec::resolve_tile_lanes(0, 4, 8, 4096, 1));
}

// The auto tile's second budget: the tile image (n words per lane) stays
// within kTileImageBytes — 32768 words — unless the [32, 1024] clamp holds
// it at 32 lanes.  Requested tiles are honoured whatever the image size.
TEST(ResolveTileLanes, AutoTileImageFitsItsBudget) {
  constexpr std::size_t kImageWords = exec::kTileImageBytes / sizeof(Word);
  EXPECT_EQ(kImageWords, 32768u);
  for (const std::size_t n : {1u, 8u, 31u, 32u, 33u, 100u, 1024u, 1025u, 4096u, 65536u}) {
    for (const std::size_t regs : {1u, 4u, 64u, 256u}) {
      const std::size_t tile = exec::resolve_tile_lanes(0, regs, n, 1u << 16, 8);
      EXPECT_TRUE(std::has_single_bit(tile)) << "n=" << n << " regs=" << regs;
      EXPECT_GE(tile, 32u);
      EXPECT_LE(tile, 1024u);
      EXPECT_TRUE(n * tile <= kImageWords || tile == 32u)
          << "n=" << n << " regs=" << regs << " tile=" << tile;
      EXPECT_TRUE(regs * tile * sizeof(Word) <= exec::kRegTileBytes || tile == 32u)
          << "n=" << n << " regs=" << regs << " tile=" << tile;
    }
  }
  EXPECT_EQ(exec::resolve_tile_lanes(0, 4, 64, 4096, 8), 512u);
  EXPECT_EQ(exec::resolve_tile_lanes(0, 4, 4096, 4096, 8), 32u);
  EXPECT_EQ(exec::resolve_tile_lanes(1024, 4, 4096, 4096, 8), 1024u);
  EXPECT_EQ(exec::resolve_tile_lanes(100, 4, 4096, 4096, 8), 96u);
}

// Degenerate inputs must always yield a valid (>= 1 lane) tile: a zero tile
// would turn the executor's tile loop into an infinite loop or a div-by-zero.
TEST(ResolveTileLanes, DegenerateInputsYieldAtLeastOneLane) {
  // Occupancy below every vector width.
  EXPECT_EQ(exec::resolve_tile_lanes(0, 4, 8, 1, 8), 1u);
  EXPECT_EQ(exec::resolve_tile_lanes(100, 4, 8, 1, 8), 1u);
  EXPECT_GE(exec::resolve_tile_lanes(0, 4, 8, 3, 8), 1u);
  EXPECT_GE(exec::resolve_tile_lanes(7, 4, 8, 3, 8), 1u);
  // reg_count == 0 (a store-only or empty program).
  EXPECT_GE(exec::resolve_tile_lanes(0, 0, 8, 64, 8), 1u);
  // Explicit requests of 1 survive vector-width rounding.
  EXPECT_EQ(exec::resolve_tile_lanes(1, 4, 8, 64, 8), 1u);
  // Huge vector width relative to everything else.
  EXPECT_GE(exec::resolve_tile_lanes(2, 1, 8, 2, 64), 1u);
}

}  // namespace
