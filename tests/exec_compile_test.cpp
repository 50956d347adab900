// Compile cache, budget fallback, segmenting, and fusion-pass unit tests.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "algos/algorithm.hpp"
#include "bulk/bulk.hpp"
#include "bulk/host_executor.hpp"
#include "common/rng.hpp"
#include "exec/backend.hpp"
#include "exec/compiled_program.hpp"
#include "exec/jit/jit_program.hpp"
#include "opt/fusion.hpp"
#include "trace/interpreter.hpp"

namespace {

using namespace obx;
using opt::FusedKind;
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

/// A program whose stream factory counts its invocations.
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

std::vector<Word> iota_inputs(std::size_t p, std::size_t n) {
  std::vector<Word> inputs(p * n);
  for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = i * 3 + 1;
  return inputs;
}

TEST(CompileCache, StreamDrainedAtMostOncePerProcess) {
  auto invocations = std::make_shared<std::atomic<int>>(0);
  const trace::Program program = counting_program(invocations);
  const std::size_t p = 96;
  const std::vector<Word> inputs = iota_inputs(p, kCountingWords);

  // Many runs, several executors, multiple workers (= multiple chunks), a
  // copy of the program: the stream factory must still fire exactly once.
  const trace::Program copy = program;
  for (unsigned workers : {1u, 4u}) {
    const bulk::HostBulkExecutor exec(
        bulk::Layout::column_wise(p, program.memory_words),
        bulk::HostBulkExecutor::Options{.workers = workers, .tile_lanes = 16});
    const auto run1 = exec.run(program, inputs);
    const auto run2 = exec.run(copy, inputs);
    // kAuto runs the JIT where emission is available and the compiled
    // switch everywhere else — either way the program compiled.
    EXPECT_EQ(run1.backend, exec::jit_available() ? exec::Backend::kJit
                                                  : exec::Backend::kCompiled);
    EXPECT_EQ(run1.memory, run2.memory);
  }
  EXPECT_EQ(invocations->load(), 1);
}

TEST(CompileCache, OverBudgetFallsBackAndRemembersFailure) {
  auto invocations = std::make_shared<std::atomic<int>>(0);
  const trace::Program program = counting_program(invocations);
  const std::size_t p = 8;
  const std::vector<Word> inputs = iota_inputs(p, kCountingWords);

  const bulk::HostBulkExecutor exec(
      bulk::Layout::column_wise(p, program.memory_words),
      bulk::HostBulkExecutor::Options{.backend = exec::Backend::kCompiled,
                                      .compile_budget_steps = 4});
  const auto run1 = exec.run(program, inputs);
  EXPECT_EQ(run1.backend, exec::Backend::kInterpreted);  // automatic fallback
  // One aborted compile drain + one interpreted chunk.
  EXPECT_EQ(invocations->load(), 2);

  const auto run2 = exec.run(program, inputs);
  EXPECT_EQ(run2.backend, exec::Backend::kInterpreted);
  // The failed budget is remembered: only the interpreted chunk drains.
  EXPECT_EQ(invocations->load(), 3);
  EXPECT_EQ(run1.memory, run2.memory);

  // Interpreted fallback is still correct.
  const trace::InterpreterResult ref = trace::interpret(
      program, std::span<const Word>(inputs.data(), kCountingWords));
  for (std::size_t i = 0; i < kCountingWords; ++i) {
    EXPECT_EQ(run2.memory[i * p], ref.memory[i]);
  }
}

TEST(CompileCache, RaisedBudgetRetriesAfterFailure) {
  auto invocations = std::make_shared<std::atomic<int>>(0);
  const trace::Program program = counting_program(invocations);
  EXPECT_EQ(exec::CompiledProgram::get_or_compile(program, {.max_steps = 4}), nullptr);
  EXPECT_EQ(invocations->load(), 1);
  // Same budget again: no re-drain.
  EXPECT_EQ(exec::CompiledProgram::get_or_compile(program, {.max_steps = 4}), nullptr);
  EXPECT_EQ(invocations->load(), 1);
  // Larger budget: retried, succeeds, then cached.
  const auto compiled = exec::CompiledProgram::get_or_compile(program, {.max_steps = 1000});
  ASSERT_NE(compiled, nullptr);
  EXPECT_EQ(invocations->load(), 2);
  EXPECT_EQ(exec::CompiledProgram::get_or_compile(program, {.max_steps = 1000}), compiled);
  EXPECT_EQ(invocations->load(), 2);
  EXPECT_EQ(compiled->total_steps(), kCountingWords * 3);
  EXPECT_EQ(compiled->counts().loads, kCountingWords);
  EXPECT_EQ(compiled->counts().stores, kCountingWords);
  EXPECT_EQ(compiled->counts().alu, kCountingWords);
}

TEST(CompiledProgramTest, SegmentBoundariesPreserveSemantics) {
  const algos::Algorithm& algo = algos::find("prefix-sums");
  const std::size_t n = 64;
  const std::size_t p = 7;
  const trace::Program program = algo.make_program(n);
  Rng rng(3);
  std::vector<Word> inputs;
  for (std::size_t j = 0; j < p; ++j) {
    const auto one = algo.make_input(n, rng);
    inputs.insert(inputs.end(), one.begin(), one.end());
  }

  // Tiny segments (and a segment size that is not a multiple of 3, so fused
  // triples are split across boundaries) must not change results.
  const auto compiled = exec::CompiledProgram::compile(
      program, {.max_steps = 1u << 20, .segment_steps = 17});
  ASSERT_NE(compiled, nullptr);
  ASSERT_GT(compiled->segments().size(), 1u);

  const bulk::Layout layout = bulk::Layout::column_wise(p, program.memory_words);
  std::vector<Word> memory(layout.total_words(), Word{0});
  exec::run_compiled_chunk(*compiled, inputs, program.input_words,
                           exec::TileSink::image(layout, memory), 0, p, /*tile_lanes=*/4);

  for (std::size_t j = 0; j < p; ++j) {
    const trace::InterpreterResult ref = trace::interpret(
        program,
        std::span<const Word>(inputs.data() + j * program.input_words,
                              program.input_words));
    for (std::size_t a = 0; a < program.memory_words; ++a) {
      ASSERT_EQ(memory[layout.global(static_cast<Addr>(a), j)], ref.memory[a])
          << "lane " << j << " word " << a;
    }
  }
}

TEST(CompiledProgramTest, WidensUnderDeclaredRegisterCount) {
  trace::Program p;
  p.name = "wide";
  p.memory_words = 1;
  p.register_count = 1;  // lies: steps use r9
  p.stream = [] {
    return []() -> Generator<Step> {
      co_yield Step::immediate(9, 42);
      co_yield Step::store(0, 9);
    }();
  };
  const auto compiled = exec::CompiledProgram::compile(p);
  ASSERT_NE(compiled, nullptr);
  EXPECT_EQ(compiled->register_count(), 10u);
}

// ---------------------------------------------------------------------------
// Fusion pass unit tests.

TEST(FusionTest, RecognisesTripleRunWithLoadOperandFlag) {
  std::vector<Step> steps;
  steps.push_back(Step::immediate(0, 0));
  const std::size_t n = 20;
  for (std::size_t i = 0; i < n; ++i) {
    steps.push_back(Step::load(1, static_cast<Addr>(i)));
    steps.push_back(Step::alu(Op::kAddF, 0, 0, 1));
    steps.push_back(Step::store(static_cast<Addr>(i), 0));
  }
  const opt::FusionResult r = opt::fuse(steps);
  ASSERT_EQ(r.ops.size(), 2u);
  EXPECT_EQ(r.ops[0].kind, FusedKind::kImm);
  EXPECT_EQ(r.ops[1].kind, FusedKind::kTripleRun);
  EXPECT_EQ(r.ops[1].run_len, n);
  EXPECT_EQ(r.ops[1].dst, 0);   // accumulator
  EXPECT_EQ(r.ops[1].aux, 1);   // loaded register
  EXPECT_NE(r.ops[1].flags & opt::kTripleS1Loaded, 0);
  EXPECT_EQ(r.ops[1].flags & opt::kTripleS0Loaded, 0);
  EXPECT_EQ(r.counts.loads, n);
  EXPECT_EQ(r.counts.stores, n);
  EXPECT_EQ(r.counts.alu, n);
  EXPECT_EQ(r.counts.imm, 1u);
  EXPECT_EQ(r.run_steps.size(), 3 * n);
}

TEST(FusionTest, CmovNeverJoinsTripleRuns) {
  std::vector<Step> steps;
  for (std::size_t i = 0; i < 4; ++i) {
    steps.push_back(Step::load(1, static_cast<Addr>(i)));
    steps.push_back(Step::alu(Op::kCmovLtI, 0, 0, 1, 1));
    steps.push_back(Step::store(static_cast<Addr>(i), 0));
  }
  const opt::FusionResult r = opt::fuse(steps);
  for (const opt::FusedOp& op : r.ops) {
    EXPECT_NE(op.kind, FusedKind::kTripleRun);
  }
}

TEST(FusionTest, ElidesDeadLoadCommit) {
  // r1 is overwritten by the next load before being read again: the first
  // group's commit of r1 is dead.
  std::vector<Step> steps = {
      Step::load(1, 0),
      Step::alu(Op::kAddI, 2, 1, 1),
      Step::load(1, 1),
      Step::store(2, 2),
  };
  const opt::FusionResult r = opt::fuse(steps);
  ASSERT_EQ(r.ops.size(), 3u);
  EXPECT_EQ(r.ops[0].kind, FusedKind::kLoadAlu);
  EXPECT_NE(r.ops[0].flags & opt::kElideAuxCommit, 0);
  EXPECT_EQ(r.ops[1].kind, FusedKind::kLoad);
  // The second load's value is never overwritten afterwards: stays live.
  EXPECT_EQ(r.ops[1].flags & opt::kElideAuxCommit, 0);
  EXPECT_EQ(r.ops[2].kind, FusedKind::kStore);
}

TEST(FusionTest, GroupsRegisterOnlyRunsAndPairs) {
  std::vector<Step> steps = {
      Step::immediate(0, 7),
      Step::alu(Op::kAddI, 1, 0, 0),
      Step::store(0, 1),
      Step::alu(Op::kMulI, 2, 1, 1),
      Step::alu(Op::kAddI, 3, 2, 2),
      Step::alu(Op::kXor, 4, 3, 3),
      Step::store(1, 4),
  };
  const opt::FusionResult r = opt::fuse(steps);
  ASSERT_EQ(r.ops.size(), 4u);
  EXPECT_EQ(r.ops[0].kind, FusedKind::kImmAlu);
  EXPECT_EQ(r.ops[1].kind, FusedKind::kStore);
  EXPECT_EQ(r.ops[2].kind, FusedKind::kRegRun);
  EXPECT_EQ(r.ops[2].run_len, 3u);
  EXPECT_EQ(r.ops[3].kind, FusedKind::kStore);
}

TEST(FusionTest, FusesAluStoreAndLoadAluStore) {
  std::vector<Step> steps = {
      Step::load(0, 0),
      Step::load(1, 1),
      Step::alu(Op::kMaxI, 2, 0, 1),
      Step::store(2, 2),
  };
  const opt::FusionResult r = opt::fuse(steps);
  ASSERT_EQ(r.ops.size(), 2u);
  EXPECT_EQ(r.ops[0].kind, FusedKind::kLoad);
  EXPECT_EQ(r.ops[1].kind, FusedKind::kLoadAluStore);
  EXPECT_EQ(r.ops[1].aux, 1);
  EXPECT_EQ(r.ops[1].aux2, 2);
  EXPECT_EQ(r.ops[1].addr, 1u);
  EXPECT_EQ(r.ops[1].addr2, 2u);
}

// serve::ProgramCache compiles at registration (the serving layer's
// "compile each id exactly once") — verified through the shared slot.
TEST(CompileCache, PreparedProgramCompilesEagerly) {
  const trace::Program program = algos::find("prefix-sums").make_program(16);
  // Compile via the slot the serving layer will use.
  const auto first = exec::CompiledProgram::get_or_compile(program);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(exec::CompiledProgram::get_or_compile(program), first);
}

}  // namespace
