// Differential fuzzing: random oblivious programs executed through every
// engine must agree bit-for-bit, and both timing paths must coincide.
//
// For each seed: generate a random (but valid) step stream, random machine
// parameters and a simulated arrangement, then check
//   HostBulkExecutor lane j  ==  interpret(program, input_j)     (function)
//   UmmBulkExecutor          ==  HostBulkExecutor, every word    (function)
//   UmmBulkExecutor units    ==  TimingEstimator units           (timing)
// across serialized/overlap and group-size variants.
#include <gtest/gtest.h>

#include <vector>

#include "bulk/bulk.hpp"
#include "bulk/host_executor.hpp"
#include "bulk/timing_estimator.hpp"
#include "bulk/umm_executor.hpp"
#include "common/rng.hpp"
#include "engine_plan.hpp"
#include "opt/optimizer.hpp"
#include "trace/interpreter.hpp"
#include "trace/program.hpp"
#include "trace/serialize.hpp"
#include "trace/step.hpp"

namespace {

using namespace obx;
using trace::Op;
using trace::Step;

/// All ALU ops the generator may emit (every op in the ISA).
constexpr Op kOps[] = {
    Op::kNop,  Op::kAddF, Op::kSubF, Op::kMulF, Op::kDivF,    Op::kMinF,
    Op::kMaxF, Op::kNegF, Op::kAddI, Op::kSubI, Op::kMulI,    Op::kMinI,
    Op::kMaxI, Op::kAnd,  Op::kOr,   Op::kXor,  Op::kShl,     Op::kShr,
    Op::kNotU, Op::kLtF,  Op::kLeF,  Op::kEqF,  Op::kLtI,     Op::kLeI,
    Op::kEqI,  Op::kNeI,  Op::kLtU,  Op::kSelect, Op::kCmovLtF, Op::kCmovLtI,
    Op::kMov};

trace::Program random_program(Rng& rng) {
  const std::size_t n = 1 + rng.next_below(64);
  const std::size_t regs = 1 + rng.next_below(8);
  const std::size_t steps = 1 + rng.next_below(300);

  std::vector<Step> body;
  body.reserve(steps);
  auto reg = [&] { return static_cast<std::uint8_t>(rng.next_below(regs)); };
  auto addr = [&] { return static_cast<Addr>(rng.next_below(n)); };
  for (std::size_t s = 0; s < steps; ++s) {
    switch (rng.next_below(4)) {
      case 0:
        body.push_back(Step::load(reg(), addr()));
        break;
      case 1:
        body.push_back(Step::store(addr(), reg()));
        break;
      case 2:
        body.push_back(
            Step::alu(kOps[rng.next_below(std::size(kOps))], reg(), reg(), reg(), reg()));
        break;
      default:
        body.push_back(Step::immediate(reg(), rng.next_u64()));
        break;
    }
  }
  return trace::make_replay_program("fuzz", n, n, 0, n, regs, std::move(body));
}

class DifferentialFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialFuzz, AllEnginesAgree) {
  Rng rng(GetParam() * 0x9e3779b9ULL + 1);
  const trace::Program program = random_program(rng);
  const std::size_t p = 1 + rng.next_below(40);

  // Inputs: arbitrary bit patterns (half float-ish, half raw).
  std::vector<Word> inputs(p * program.input_words);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    inputs[i] = (i % 2 == 0) ? rng.next_u64()
                             : std::bit_cast<Word>(rng.next_double(-1e3, 1e3));
  }

  umm::MachineConfig cfg;
  cfg.width = static_cast<std::uint32_t>(1 + rng.next_below(40));
  cfg.latency = static_cast<std::uint32_t>(1 + rng.next_below(100));
  cfg.count_compute = rng.next_below(2) == 0;
  cfg.overlap_latency = rng.next_below(2) == 0;
  if (rng.next_below(2) == 0) {
    cfg.group_words = static_cast<std::uint32_t>(1 + rng.next_below(2 * cfg.width));
  }
  const auto arrangement = rng.next_below(2) == 0 ? bulk::Arrangement::kRowWise
                                                  : bulk::Arrangement::kColumnWise;
  const umm::Model model = rng.next_below(2) == 0 ? umm::Model::kUmm : umm::Model::kDmm;
  const bulk::Layout layout = bulk::make_layout(program, p, arrangement);

  // 1. Host executor vs scalar interpreter, per lane.
  const auto plan = test::engine_plan(program);
  const bulk::HostBulkExecutor host(*plan, p);
  const bulk::HostRunResult host_run = host.run(program, inputs);
  const std::vector<Word> host_out = host.gather_outputs(program, host_run.memory);
  for (std::size_t j = 0; j < p; ++j) {
    const std::span<const Word> input(inputs.data() + j * program.input_words,
                                      program.input_words);
    const trace::InterpreterResult ref = trace::interpret(program, input);
    const auto expected = ref.output(program);
    for (std::size_t i = 0; i < program.output_words; ++i) {
      ASSERT_EQ(host_out[j * program.output_words + i], expected[i])
          << "lane " << j << " word " << i << " (seed " << GetParam() << ")";
    }
  }

  // 2. Machine simulator vs host executor (function) and estimator (timing).
  const bulk::UmmBulkExecutor sim(model, cfg, layout);
  const bulk::UmmRunResult sim_run = sim.run(program, inputs);
  const std::size_t n = program.memory_words;
  ASSERT_EQ(sim_run.memory.size(), layout.total_words()) << "seed " << GetParam();
  ASSERT_EQ(host_run.memory.size(), p * n) << "seed " << GetParam();
  for (Lane j = 0; j < p; ++j) {
    for (Addr a = 0; a < n; ++a) {
      ASSERT_EQ(sim_run.memory[layout.global(a, j)], host_run.memory[j * n + a])
          << "lane " << j << " word " << a << " (seed " << GetParam() << ")";
    }
  }

  const bulk::TimingEstimator estimator(model, cfg, layout);
  const bulk::TimingResult est = estimator.run(program);
  ASSERT_EQ(sim_run.time_units, est.time_units)
      << "seed " << GetParam() << " w=" << cfg.width << " l=" << cfg.latency
      << " g=" << cfg.group_words << " overlap=" << cfg.overlap_latency << " "
      << layout.name() << (model == umm::Model::kUmm ? " UMM" : " DMM");
  ASSERT_EQ(sim_run.stats, est.stats) << "seed " << GetParam();

  // 3. Optimiser: outputs preserved, step counts never grow.
  const opt::OptimizeResult optimized = opt::optimize(program);
  EXPECT_LE(optimized.after.total(), optimized.before.total());
  {
    const std::span<const Word> input(inputs.data(), program.input_words);
    const trace::InterpreterResult a = trace::interpret(program, input);
    const trace::InterpreterResult b = trace::interpret(optimized.program, input);
    const auto ea = a.output(program);
    const auto eb = b.output(optimized.program);
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
      ASSERT_EQ(ea[i], eb[i]) << "optimizer broke word " << i << " (seed "
                              << GetParam() << ")";
    }
  }

  // 4. Serialisation round-trips the exact step stream.
  const trace::Program parsed = trace::parse_program(trace::serialize_program(program));
  auto g1 = program.stream();
  auto g2 = parsed.stream();
  trace::Step s1, s2;
  while (g1.next(s1)) {
    ASSERT_TRUE(g2.next(s2));
    ASSERT_EQ(s1, s2) << "seed " << GetParam();
  }
  ASSERT_FALSE(g2.next(s2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz, ::testing::Range<std::uint64_t>(0, 96));

}  // namespace
