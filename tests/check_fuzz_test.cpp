// The differential fuzzing harness itself: generator determinism and
// validity, execution-matrix coverage, a clean bounded campaign, the
// mutation test (a deliberately injected kernel bug must be caught and
// shrunk to a handful of steps), and reproducer round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "check/differential.hpp"
#include "check/fuzz.hpp"
#include "check/generator.hpp"
#include "check/shrink.hpp"
#include "common/rng.hpp"
#include "trace/interpreter.hpp"
#include "trace/serialize.hpp"

namespace {

using namespace obx;

// ---------------------------------------------------------------------------
// Generator: determinism and structural validity.

TEST(FuzzGenerator, SameSeedSameProgram) {
  Rng a(42), b(42), c(43);
  const std::string pa = trace::serialize_program(check::generate_program(a));
  const std::string pb = trace::serialize_program(check::generate_program(b));
  const std::string pc = trace::serialize_program(check::generate_program(c));
  EXPECT_EQ(pa, pb);
  EXPECT_NE(pa, pc);
}

TEST(FuzzGenerator, ProgramsAreStructurallyValidOblivious) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    const trace::Program program = check::generate_program(rng);
    // Whole memory is both input and output: any wrong word is observable.
    EXPECT_GE(program.memory_words, 1u);
    EXPECT_EQ(program.input_words, program.memory_words);
    EXPECT_EQ(program.output_offset, 0u);
    EXPECT_EQ(program.output_words, program.memory_words);
    EXPECT_GE(program.register_count, 1u);
    const auto steps = trace::TracedProgram::capture(program).steps();
    EXPECT_FALSE(steps.empty());
    for (const trace::Step& s : steps) {
      switch (s.kind) {
        case trace::StepKind::kLoad:
          EXPECT_LT(s.dst, program.register_count);
          EXPECT_LT(s.addr, program.memory_words);
          break;
        case trace::StepKind::kStore:
          EXPECT_LT(s.src0, program.register_count);
          EXPECT_LT(s.addr, program.memory_words);
          break;
        case trace::StepKind::kAlu:
          EXPECT_LT(s.dst, program.register_count);
          EXPECT_LT(s.src0, program.register_count);
          EXPECT_LT(s.src1, program.register_count);
          EXPECT_LT(s.src2, program.register_count);
          break;
        case trace::StepKind::kImm:
          EXPECT_LT(s.dst, program.register_count);
          break;
      }
    }
  }
}

TEST(FuzzGenerator, InputsAreDeterministicAndSized) {
  const auto a = check::generate_inputs(7, 5, 9);
  const auto b = check::generate_inputs(7, 5, 9);
  const auto c = check::generate_inputs(8, 5, 9);
  EXPECT_EQ(a.size(), 45u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(FuzzGenerator, EdgeWordPoolHasTheNastyPatterns) {
  const std::vector<Word>& pool = check::edge_words();
  auto has = [&](Word w) {
    return std::find(pool.begin(), pool.end(), w) != pool.end();
  };
  EXPECT_TRUE(has(Word{0x7ff8000000000000ULL}));  // quiet NaN
  EXPECT_TRUE(has(Word{0x7ff0000000000000ULL}));  // +inf
  EXPECT_TRUE(has(Word{1} << 63));                // INT64_MIN / -0.0
  EXPECT_TRUE(has(Word{64}));                     // shift at the &63 boundary
  EXPECT_TRUE(has(~Word{0}));
}

// ---------------------------------------------------------------------------
// Execution matrix: every axis the harness promises must actually appear.

TEST(FuzzMatrix, CoversEveryAxis) {
  const auto matrix = check::config_matrix(12, 100);
  bool interpreted = false, compiled = false, jit = false, planner = false;
  bool tile1 = false, tile3 = false, workers2 = false, workers8 = false, scalar = false;
  bool straddle_under = false, straddle_exact = false;
  std::set<std::string> names;
  for (const check::ExecConfig& c : matrix) {
    EXPECT_TRUE(names.insert(c.name()).second) << "duplicate " << c.name();
    interpreted |= c.backend == exec::Backend::kInterpreted;
    compiled |= c.backend == exec::Backend::kCompiled;
    jit |= c.backend == exec::Backend::kJit;
    planner |= c.via_planner;
    tile1 |= c.tile_lanes == 1;
    tile3 |= c.tile_lanes == 3;
    workers2 |= c.workers == 2;
    workers8 |= c.workers == 8;
    scalar |= c.backend == exec::Backend::kCompiled && c.simd == SimdIsa::kScalar;
    if (c.expect_backend.has_value()) {
      straddle_under |= *c.expect_backend == exec::Backend::kInterpreted &&
                        c.compile_budget_steps == 99;
      straddle_exact |= *c.expect_backend == exec::Backend::kCompiled &&
                        c.compile_budget_steps == 100;
    }
  }
  EXPECT_TRUE(interpreted);
  EXPECT_TRUE(compiled);
  EXPECT_TRUE(jit);
  EXPECT_TRUE(planner) << "the planning path must be in the matrix";
  EXPECT_TRUE(tile1);
  EXPECT_TRUE(tile3);
  EXPECT_TRUE(workers2);
  EXPECT_TRUE(workers8) << "the scheduler-stress configs must be in the matrix";
  EXPECT_TRUE(scalar);
  EXPECT_TRUE(straddle_under) << "budget = steps-1 must expect interpreter fallback";
  EXPECT_TRUE(straddle_exact) << "budget = steps must expect a compile";
}

TEST(FuzzMatrix, BoundaryLaneCountsStraddleVectorWidths) {
  const auto lanes = check::boundary_lane_counts();
  auto has = [&](std::size_t p) {
    return std::find(lanes.begin(), lanes.end(), p) != lanes.end();
  };
  for (const std::size_t w : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    EXPECT_TRUE(has(w - 1) && has(w) && has(w + 1)) << "width " << w;
  }
  EXPECT_TRUE(has(1));
  EXPECT_TRUE(std::all_of(lanes.begin(), lanes.end(),
                          [](std::size_t p) { return p >= 1; }));
}

// ---------------------------------------------------------------------------
// A clean bounded campaign: the engines agree on everything the fuzzer can
// produce (this is the unit-test face of the `check_fuzz` ctest leg).

TEST(FuzzCampaign, BoundedRunFindsNoDivergences) {
  check::FuzzOptions options;
  options.seed = 7;
  options.iters = 40;
  const check::FuzzReport report = check::run_fuzz(options);
  EXPECT_TRUE(report.ok()) << report.failures.front().divergence.to_string();
  EXPECT_EQ(report.programs, 40u);
  EXPECT_GT(report.configs, report.programs * 10);  // full matrix per program
}

TEST(FuzzCampaign, DeterministicAcrossRuns) {
  check::FuzzOptions options;
  options.seed = 11;
  options.iters = 10;
  const check::FuzzReport a = check::run_fuzz(options);
  const check::FuzzReport b = check::run_fuzz(options);
  EXPECT_EQ(a.configs, b.configs);
  EXPECT_EQ(a.summary(), b.summary());
}

// ---------------------------------------------------------------------------
// Mutation test: deliberately inject a kernel bug (kAddI silently computes
// kSubI) and prove the differential predicate catches it and the shrinker
// reduces it to a handful of steps.

std::optional<trace::Program> with_injected_add_bug(const trace::Program& p) {
  std::vector<trace::Step> steps = trace::TracedProgram::capture(p).steps();
  bool changed = false;
  for (trace::Step& s : steps) {
    if (s.kind == trace::StepKind::kAlu && s.op == trace::Op::kAddI) {
      s.op = trace::Op::kSubI;
      changed = true;
    }
  }
  if (!changed) return std::nullopt;
  return trace::make_replay_program(p.name + "-buggy", p.memory_words,
                                    p.input_words, p.output_offset,
                                    p.output_words, p.register_count,
                                    std::move(steps));
}

TEST(FuzzShrink, InjectedKernelBugIsCaughtAndShrunkToAFewSteps) {
  // A fixed input pool larger than any generated program's memory, so a
  // candidate's inputs do not change as region shrink trims memory words —
  // that keeps the predicate deterministic across shrink candidates.
  const std::vector<Word> pool = check::generate_inputs(99, 1, 64);
  auto run = [&](const trace::Program& prog) {
    const std::vector<Word> in(pool.begin(),
                               pool.begin() + static_cast<std::ptrdiff_t>(
                                                  prog.input_words));
    return trace::interpret(prog, in).memory;
  };
  const check::Predicate caught_by_buggy_kernel =
      [&](const trace::Program& candidate) {
        const auto buggy = with_injected_add_bug(candidate);
        if (!buggy.has_value()) return false;  // no kAddI left: bug unreachable
        return run(candidate) != run(*buggy);
      };

  std::optional<trace::Program> failing;
  check::GenOptions gen;
  gen.max_steps = 60;
  for (std::uint64_t seed = 1; seed <= 100 && !failing.has_value(); ++seed) {
    Rng rng(seed);
    trace::Program candidate = check::generate_program(rng, gen);
    if (caught_by_buggy_kernel(candidate)) failing = std::move(candidate);
  }
  ASSERT_TRUE(failing.has_value())
      << "no generated program exposed the injected kAddI bug";

  const check::ShrinkResult shrunk =
      check::shrink_program(*failing, caught_by_buggy_kernel);
  EXPECT_TRUE(caught_by_buggy_kernel(shrunk.program));
  EXPECT_LE(shrunk.steps_after, shrunk.steps_before);
  EXPECT_LE(shrunk.steps_after, 8u)
      << "shrunk to " << shrunk.steps_after << " steps:\n"
      << trace::serialize_program(shrunk.program);

  // Determinism: the same failing program shrinks to the same minimal form.
  const check::ShrinkResult again =
      check::shrink_program(*failing, caught_by_buggy_kernel);
  EXPECT_EQ(trace::serialize_program(shrunk.program),
            trace::serialize_program(again.program));
  EXPECT_EQ(shrunk.predicate_calls, again.predicate_calls);
}

// ---------------------------------------------------------------------------
// Reproducers: text round-trip, replay, and the emitted regression source.

TEST(FuzzReproducer, RoundTripsThroughText) {
  Rng rng(5);
  check::Reproducer repro;
  repro.program = check::generate_program(rng);
  repro.input_seed = 0xdeadbeefULL;
  repro.p = 17;
  repro.note = "compiled/row/sse2/tile=0 (unit test)";
  const std::string text = check::write_reproducer(repro);
  const check::Reproducer parsed = check::parse_reproducer(text);
  EXPECT_EQ(parsed.input_seed, repro.input_seed);
  EXPECT_EQ(parsed.p, repro.p);
  EXPECT_EQ(parsed.note, repro.note);
  EXPECT_EQ(trace::serialize_program(parsed.program),
            trace::serialize_program(repro.program));
}

TEST(FuzzReproducer, ReplayOfACleanProgramAgrees) {
  Rng rng(9);
  check::Reproducer repro;
  repro.program = check::generate_program(rng);
  repro.input_seed = 123;
  repro.p = 9;
  const auto divergence = check::replay_reproducer(repro);
  EXPECT_FALSE(divergence.has_value())
      << (divergence ? divergence->to_string() : "");
}

TEST(FuzzReproducer, RegressionSourceEmbedsTheProgramAndSeed) {
  Rng rng(3);
  check::Reproducer repro;
  repro.program = check::generate_program(rng);
  repro.input_seed = 4242;
  repro.p = 5;
  repro.note = "unit";
  const std::string src = check::regression_test_source(repro, "Sample");
  EXPECT_NE(src.find("TEST(FuzzRegression, Sample)"), std::string::npos);
  EXPECT_NE(src.find("trace::parse_program"), std::string::npos);
  EXPECT_NE(src.find(trace::serialize_program(repro.program)), std::string::npos);
  EXPECT_NE(src.find("4242"), std::string::npos);
  EXPECT_NE(src.find("// found as: unit"), std::string::npos);
}

TEST(FuzzReproducer, ParseRejectsTextWithoutHeader) {
  EXPECT_THROW(check::parse_reproducer("obx 1 memory=1 input=1 output=0+1 regs=1\n"),
               std::logic_error);
}

}  // namespace
