// Copy-and-patch JIT tests: bit-identical equivalence with the interpreter
// across ragged lane counts and tile sizes; segment-boundary
// and compile-budget straddles; emitted-code metadata.  Every test skips
// where emission is unavailable (non-x86-64/non-Linux, OBX_JIT=0) — the
// fallback ladder those hosts take is covered by exec_compile_test and the
// differential fuzzer.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "algos/algorithm.hpp"
#include "bulk/host_executor.hpp"
#include "check/differential.hpp"
#include "common/rng.hpp"
#include "exec/backend.hpp"
#include "exec/compiled_program.hpp"
#include "exec/jit/jit_program.hpp"
#include "trace/interpreter.hpp"

namespace {

using namespace obx;
using trace::Op;
using trace::Step;

std::vector<Word> lane_major_inputs(const algos::Algorithm& algo, std::size_t n,
                                    std::size_t p, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Word> inputs;
  for (std::size_t j = 0; j < p; ++j) {
    const auto one = algo.make_input(n, rng);
    inputs.insert(inputs.end(), one.begin(), one.end());
  }
  return inputs;
}

TEST(JitTest, PlatformProbeIsConsistent) {
  EXPECT_EQ(exec::jit_available(),
            exec::jit_platform_supported() && exec::jit_enabled());
#if defined(__x86_64__) && defined(__linux__)
  EXPECT_TRUE(exec::jit_platform_supported());
#else
  EXPECT_FALSE(exec::jit_platform_supported());
#endif
}

// The acceptance matrix of the JIT: every ragged lane count x tile size must
// be bit-identical to trace::interpret, and must actually run the emitted
// code (backend == kJit), not a silent fallback.
TEST(JitTest, BitIdenticalAcrossRaggedLanesAndTiles) {
  if (!exec::jit_available()) GTEST_SKIP() << "JIT unavailable on this host";
  const algos::Algorithm& algo = algos::find("prefix-sums");
  const std::size_t n = 32;
  const trace::Program program = algo.make_program(n);

  for (const std::size_t p : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                              std::size_t{9}, std::size_t{63}, std::size_t{65}}) {
    const std::vector<Word> inputs = lane_major_inputs(algo, n, p, 7 * p + 1);
    const std::vector<Word> oracle = check::oracle_memory(program, inputs, p);
    for (const std::size_t tile : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      const bulk::HostBulkExecutor exec(
          p, bulk::HostBulkExecutor::Options{.backend = exec::Backend::kJit,
                                             .tile_lanes = tile});
      const auto run = exec.run(program, inputs);
      ASSERT_EQ(run.backend, exec::Backend::kJit) << "p=" << p << " tile=" << tile;
      ASSERT_EQ(run.memory, oracle) << "p=" << p << " tile=" << tile;
    }
  }
}

// Tiny segments — including a segment size that splits fused triples — must
// be emitted as independent entry points and still match the interpreter.
TEST(JitTest, SegmentBoundariesPreserveSemantics) {
  if (!exec::jit_available()) GTEST_SKIP() << "JIT unavailable on this host";
  const algos::Algorithm& algo = algos::find("prefix-sums");
  const std::size_t n = 64;
  const std::size_t p = 7;
  const trace::Program program = algo.make_program(n);
  const std::vector<Word> inputs = lane_major_inputs(algo, n, p, 3);

  const auto compiled = exec::CompiledProgram::compile(
      program, {.max_steps = 1u << 20, .segment_steps = 17});
  ASSERT_NE(compiled, nullptr);
  ASSERT_GT(compiled->segments().size(), 1u);

  const auto jit = exec::JitProgram::emit(compiled, active_simd_isa());
  ASSERT_NE(jit, nullptr);
  EXPECT_EQ(jit->entries().size(), compiled->segments().size());
  EXPECT_EQ(jit->patch_count(), 3 * compiled->fused_ops());

  const std::size_t mw = program.memory_words;
  std::vector<Word> memory(p * mw, Word{0});
  exec::run_jit_chunk(*jit, inputs, program.input_words,
                      exec::TileSink::outputs(memory, 0, mw), 0, p, /*tile_lanes=*/4);

  for (std::size_t j = 0; j < p; ++j) {
    const trace::InterpreterResult ref = trace::interpret(
        program, std::span<const Word>(inputs.data() + j * program.input_words,
                                       program.input_words));
    for (std::size_t a = 0; a < mw; ++a) {
      ASSERT_EQ(memory[j * mw + a], ref.memory[a]) << "lane " << j << " word " << a;
    }
  }
}

// A zero-step program compiles to zero segments and emits to zero entry
// points — a valid JIT artifact, no code arena needed — and a run through it
// still stages the inputs.
TEST(JitTest, EmptyProgramEmitsAndRuns) {
  if (!exec::jit_available()) GTEST_SKIP() << "JIT unavailable on this host";
  trace::Program program;
  program.name = "empty";
  program.memory_words = 4;
  program.input_words = 4;
  program.register_count = 1;
  program.stream = [] { return []() -> Generator<Step> { co_return; }(); };
  program.exec_cache = std::make_shared<trace::ExecCacheSlot>();

  const std::size_t p = 5;
  std::vector<Word> inputs(p * 4);
  for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = i + 11;

  const bulk::HostBulkExecutor exec(
      p, bulk::HostBulkExecutor::Options{.backend = exec::Backend::kJit});
  const auto run = exec.run(program, inputs);
  EXPECT_EQ(run.backend, exec::Backend::kJit);
  EXPECT_EQ(run.memory, inputs);
}

// One step under budget must fall all the way to the interpreter; exactly at
// budget must compile and emit.  Fresh cache slots so the straddle is
// exercised, not memoised away.
TEST(JitTest, CompileBudgetStraddle) {
  if (!exec::jit_available()) GTEST_SKIP() << "JIT unavailable on this host";
  const algos::Algorithm& algo = algos::find("prefix-sums");
  const std::size_t n = 16;
  const std::size_t p = 4;
  trace::Program program = algo.make_program(n);
  const std::size_t steps = trace::TracedProgram::capture(program).steps().size();
  ASSERT_GE(steps, 2u);
  const std::vector<Word> inputs = lane_major_inputs(algo, n, p, 9);

  program.exec_cache = std::make_shared<trace::ExecCacheSlot>();
  const bulk::HostBulkExecutor under(
      p, bulk::HostBulkExecutor::Options{.backend = exec::Backend::kJit,
                                         .compile_budget_steps = steps - 1});
  EXPECT_EQ(under.run(program, inputs).backend, exec::Backend::kInterpreted);

  program.exec_cache = std::make_shared<trace::ExecCacheSlot>();
  const bulk::HostBulkExecutor exact(
      p, bulk::HostBulkExecutor::Options{.backend = exec::Backend::kJit,
                                         .compile_budget_steps = steps});
  EXPECT_EQ(exact.run(program, inputs).backend, exec::Backend::kJit);
}

// Emission is memoised per (program, ISA) through the shared exec-cache
// slot: repeated runs and executors share one artifact.
TEST(JitTest, EmissionMemoisedPerProgramAndIsa) {
  if (!exec::jit_available()) GTEST_SKIP() << "JIT unavailable on this host";
  const trace::Program program = algos::find("prefix-sums").make_program(16);
  const auto compiled = exec::CompiledProgram::get_or_compile(program);
  ASSERT_NE(compiled, nullptr);
  const SimdIsa isa = active_simd_isa();
  const auto first = exec::JitProgram::get_or_emit(program, compiled, isa);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(exec::JitProgram::get_or_emit(program, compiled, isa).get(), first.get());
  EXPECT_GT(first->code_bytes(), 0u);
  EXPECT_EQ(first->patch_count(), 3 * compiled->fused_ops());
  EXPECT_EQ(&first->compiled(), compiled.get());
}

// Every opcode the interpreter knows must round-trip through the emitted
// kernels: a synthetic program touching the full ALU surface, all at once.
TEST(JitTest, FullOpcodeSurfaceMatchesOracle) {
  if (!exec::jit_available()) GTEST_SKIP() << "JIT unavailable on this host";
  trace::Program program;
  program.name = "op-surface";
  const std::size_t n = 8;
  program.memory_words = n;
  program.input_words = n;
  program.register_count = 6;
  program.stream = [n] {
    return [](std::size_t words) -> Generator<Step> {
      co_yield Step::load(0, 0);
      co_yield Step::load(1, 1);
      co_yield Step::load(2, 2);
      for (const Op op :
           {Op::kAddF, Op::kSubF, Op::kMulF, Op::kDivF, Op::kMinF, Op::kMaxF,
            Op::kNegF, Op::kAddI, Op::kSubI, Op::kMulI, Op::kMinI, Op::kMaxI,
            Op::kAnd, Op::kOr, Op::kXor, Op::kShl, Op::kShr, Op::kNotU,
            Op::kLtF, Op::kLeF, Op::kEqF, Op::kLtI, Op::kLeI, Op::kEqI,
            Op::kNeI, Op::kLtU, Op::kSelect, Op::kCmovLtF, Op::kCmovLtI,
            Op::kMov}) {
        co_yield Step::alu(op, 3, 0, 1, 2);
        co_yield Step::alu(Op::kXor, 4, 4, 3);
      }
      co_yield Step::store(static_cast<Addr>(words - 1), 4);
      co_yield Step::immediate(5, 0x9e3779b97f4a7c15ull);
      co_yield Step::alu(Op::kAddI, 4, 4, 5);
      co_yield Step::store(static_cast<Addr>(words - 2), 4);
    }(n);
  };
  program.exec_cache = std::make_shared<trace::ExecCacheSlot>();

  for (const std::size_t p : {std::size_t{3}, std::size_t{33}}) {
    std::vector<Word> inputs(p * n);
    Rng rng(p);
    for (Word& w : inputs) w = rng.next_u64();
    const std::vector<Word> oracle = check::oracle_memory(program, inputs, p);
    const bulk::HostBulkExecutor exec(
        p, bulk::HostBulkExecutor::Options{.backend = exec::Backend::kJit});
    const auto run = exec.run(program, inputs);
    ASSERT_EQ(run.backend, exec::Backend::kJit);
    ASSERT_EQ(run.memory, oracle) << "p=" << p;
  }
}

}  // namespace
