#include "check/differential.hpp"

#include <sstream>
#include <string_view>

#include "common/check.hpp"
#include "bulk/host_executor.hpp"
#include "exec/jit/jit_program.hpp"
#include "plan/planner.hpp"
#include "trace/interpreter.hpp"

namespace obx::check {

namespace {

/// SIMD tiers this host/build can actually execute, narrowest first.
std::vector<SimdIsa> supported_tiers() {
  std::vector<SimdIsa> tiers;
  for (const SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kSse2, SimdIsa::kNeon,
                            SimdIsa::kAvx2, SimdIsa::kAvx512}) {
    if (simd_isa_supported(isa)) tiers.push_back(isa);
  }
  return tiers;
}

Divergence value_divergence(const ExecConfig& config, std::string_view path,
                            std::size_t lane, std::size_t word, Word expected, Word got) {
  Divergence d;
  d.config = config.name() + std::string(path);
  d.lane = lane;
  d.word = word;
  d.expected = expected;
  d.got = got;
  return d;
}

}  // namespace

std::string ExecConfig::name() const {
  std::ostringstream os;
  if (via_planner) {
    os << "planner";
  } else {
    os << to_string(backend);
    if (backend != exec::Backend::kInterpreted) {
      os << "/" << obx::to_string(simd) << "/tile=" << tile_lanes;
      if (compile_budget_steps != 0) os << "/budget=" << compile_budget_steps;
    }
  }
  if (workers != 1) os << "/workers=" << workers;
  return os.str();
}

std::string Divergence::to_string() const {
  std::ostringstream os;
  os << "divergence[" << config << "]";
  if (!detail.empty()) {
    os << " " << detail;
  } else {
    os << " lane=" << lane << " word=" << word << " expected=0x" << std::hex
       << expected << " got=0x" << got;
  }
  return os.str();
}

std::vector<ExecConfig> config_matrix(std::size_t p, std::size_t program_steps) {
  std::vector<ExecConfig> configs;
  const std::vector<SimdIsa> tiers = supported_tiers();

  configs.push_back(ExecConfig{});  // the interpreted engine
  for (const SimdIsa isa : tiers) {
    for (const std::size_t tile : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      ExecConfig c;
      c.backend = exec::Backend::kCompiled;
      c.simd = isa;
      c.tile_lanes = tile;
      configs.push_back(c);
    }
    // The copy-and-patch JIT leg: every tier, auto and ragged tiles, against
    // the same oracle.  Where emission is available the run must actually be
    // the JIT (expect_backend pins it); elsewhere the config still runs, via
    // the compiled-switch fallback.
    for (const std::size_t tile : {std::size_t{0}, std::size_t{3}}) {
      ExecConfig j;
      j.backend = exec::Backend::kJit;
      j.simd = isa;
      j.tile_lanes = tile;
      if (exec::jit_available()) j.expect_backend = exec::Backend::kJit;
      configs.push_back(j);
    }
  }

  // Chunk-boundary seams: the widest tier, two workers — plus the
  // interpreted engine with two workers.
  if (p >= 2) {
    ExecConfig c;
    c.backend = exec::Backend::kCompiled;
    c.simd = tiers.back();
    c.workers = 2;
    configs.push_back(c);
    ExecConfig i;
    i.backend = exec::Backend::kInterpreted;
    i.workers = 2;
    configs.push_back(i);
  }

  // Scheduler stress: oversubscribe the CorePool (8-way) with one-lane
  // tiles so the submitter and the workers race for every tile counter
  // claim, plus the interpreted engine at the same width.  Any ordering- or
  // ownership-sensitivity in tile claiming shows up as a memory divergence
  // from the oracle.
  if (p >= 4) {
    ExecConfig steal;
    steal.backend = exec::Backend::kCompiled;
    steal.simd = tiers.back();
    steal.workers = 8;
    steal.tile_lanes = 1;
    configs.push_back(steal);
    ExecConfig jsteal = steal;
    jsteal.backend = exec::Backend::kJit;
    if (exec::jit_available()) jsteal.expect_backend = exec::Backend::kJit;
    configs.push_back(jsteal);
    ExecConfig isteal;
    isteal.backend = exec::Backend::kInterpreted;
    isteal.workers = 8;
    configs.push_back(isteal);
  }

  // The full planning path: whatever the plan decides must still match the
  // oracle bit for bit.
  ExecConfig planned;
  planned.via_planner = true;
  configs.push_back(planned);

  // Compile-budget straddles (fresh cache slots, see run_config): one step
  // under budget must fall back to the interpreter bit-identically; exactly
  // at budget must compile.
  if (program_steps >= 2) {
    ExecConfig under;
    under.backend = exec::Backend::kCompiled;
    under.simd = tiers.back();
    under.compile_budget_steps = program_steps - 1;
    under.expect_backend = exec::Backend::kInterpreted;
    configs.push_back(under);

    ExecConfig exact;
    exact.backend = exec::Backend::kCompiled;
    exact.simd = tiers.back();
    exact.compile_budget_steps = program_steps;
    exact.expect_backend = exec::Backend::kCompiled;
    configs.push_back(exact);

    // Same straddle through the JIT rung: one step under budget must fall
    // all the way down to the interpreter; exactly at budget must compile
    // AND emit (where emission is available).
    ExecConfig junder = under;
    junder.backend = exec::Backend::kJit;
    configs.push_back(junder);
    ExecConfig jexact = exact;
    jexact.backend = exec::Backend::kJit;
    jexact.expect_backend =
        exec::jit_available() ? exec::Backend::kJit : exec::Backend::kCompiled;
    configs.push_back(jexact);
  }
  return configs;
}

std::vector<Word> oracle_memory(const trace::Program& program,
                                std::span<const Word> inputs, std::size_t p) {
  const std::size_t n = program.memory_words;
  std::vector<Word> memory(p * n);
  for (std::size_t j = 0; j < p; ++j) {
    const std::span<const Word> input =
        inputs.subspan(j * program.input_words, program.input_words);
    const trace::InterpreterResult ref = trace::interpret(program, input);
    std::copy(ref.memory.begin(), ref.memory.end(),
              memory.begin() + static_cast<std::ptrdiff_t>(j * n));
  }
  return memory;
}

std::optional<Divergence> run_config(const trace::Program& program,
                                     std::span<const Word> inputs, std::size_t p,
                                     std::span<const Word> oracle,
                                     const ExecConfig& config) {
  auto fail = [&](std::string detail) {
    Divergence d;
    d.config = config.name();
    d.detail = std::move(detail);
    return d;
  };

  // Every config runs a plan of the unoptimised program (the oracle is its
  // full memory image, so scratch words must stay comparable), twice: the
  // image path (every lane's final memory) and the output path.  A direct
  // config is a one-off plan with its own engine, tier, tile and budget;
  // the planner config keeps every other default.
  plan::PlanOptions po{.reference_lanes = p, .optimise = false, .workers = config.workers};
  // Budget-variant configs plan a copy with a private exec-cache slot: the
  // process-wide slot memoises the first successful compile, which would
  // otherwise hand a cached artifact to a config whose budget should refuse
  // to build one.
  trace::Program subject = program;
  if (!config.via_planner) {
    po = plan::one_off(po);
    po.backend = config.backend;
    po.tile_lanes = config.tile_lanes;
    if (config.backend != exec::Backend::kInterpreted) po.simd = config.simd;
    if (config.compile_budget_steps != 0) {
      po.compile_budget_steps = config.compile_budget_steps;
      subject.exec_cache = std::make_shared<trace::ExecCacheSlot>();
    }
  }

  bulk::HostRunResult image;
  bulk::HostRunResult out_run;
  std::vector<Word> outputs;
  try {
    const std::shared_ptr<const plan::ExecutionPlan> plan =
        plan::Planner(po).build(std::move(subject));
    image = plan::run(*plan, inputs, p);
    out_run = plan::run(*plan, inputs, p, &outputs);
  } catch (const std::exception& e) {
    return fail(std::string("threw: ") + e.what());
  }
  for (const bulk::HostRunResult* run : {&image, &out_run}) {
    if (config.expect_backend.has_value() && run->backend != *config.expect_backend) {
      return fail("expected backend " + exec::to_string(*config.expect_backend) +
                  ", ran " + exec::to_string(run->backend));
    }
  }

  // Compare every lane's whole final memory — not just the declared output
  // window — so a wrong scratch word is a failure too.  Both are lane-major.
  const std::size_t n = program.memory_words;
  if (image.memory.size() != p * n) return fail("image path returned the wrong size");
  for (std::size_t j = 0; j < p; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      const Word got = image.memory[j * n + i];
      const Word expected = oracle[j * n + i];
      if (got != expected) return value_divergence(config, "", j, i, expected, got);
    }
  }

  // The output path: each lane's output region, word for word.
  if (!out_run.memory.empty()) return fail("output path built a memory image");
  const std::size_t ow = program.output_words;
  if (outputs.size() != p * ow) return fail("output path returned the wrong size");
  for (std::size_t j = 0; j < p; ++j) {
    for (std::size_t i = 0; i < ow; ++i) {
      const std::size_t word = program.output_offset + i;
      const Word got = outputs[j * ow + i];
      const Word expected = oracle[j * n + word];
      if (got != expected) {
        return value_divergence(config, "/outputs", j, word, expected, got);
      }
    }
  }
  return std::nullopt;
}

std::optional<Divergence> check_program(const trace::Program& program,
                                        std::span<const Word> inputs, std::size_t p,
                                        std::size_t* configs_run) {
  OBX_CHECK(inputs.size() == p * program.input_words,
            "inputs must be lane-major flat: p * input_words");
  const std::vector<Word> oracle = oracle_memory(program, inputs, p);
  const std::size_t steps = trace::TracedProgram::capture(program).steps().size();
  for (const ExecConfig& config : config_matrix(p, steps)) {
    if (configs_run != nullptr) ++*configs_run;
    if (auto d = run_config(program, inputs, p, oracle, config)) return d;
  }
  return std::nullopt;
}

std::vector<std::size_t> boundary_lane_counts() {
  // Straddle every vector width (2/4/8), the odd tile size, and the
  // two-worker chunk seam.
  return {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65};
}

}  // namespace obx::check
