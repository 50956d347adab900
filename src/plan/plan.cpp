#include "plan/plan.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/check.hpp"
#include "bulk/bulk.hpp"
#include "bulk/core_pool.hpp"
#include "bulk/timing_estimator.hpp"
#include "exec/jit/jit_program.hpp"

namespace obx::plan {

namespace {

/// FNV-1a over explicit 64-bit words: byte-order- and host-independent, so
/// fingerprints (and the golden plan texts that print them) are stable.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffull;
      h *= 1099511628211ull;
    }
  }
  void mix_bool(bool v) { mix(v ? 1 : 0); }
  void mix_string(const std::string& s) {
    mix(s.size());
    for (const char c : s) mix(static_cast<unsigned char>(c));
  }
};

std::uint64_t to_u64(TimeUnits u) { return static_cast<std::uint64_t>(u); }

}  // namespace

std::uint64_t PlanOptions::fingerprint() const {
  Digest d;
  d.mix(machine.width);
  d.mix(machine.latency);
  d.mix(machine.group_words);
  d.mix_bool(machine.count_compute);
  d.mix_bool(machine.overlap_latency);
  d.mix(machine.shared.banks);
  d.mix(machine.shared.bank_words);
  d.mix(machine.shared.latency);
  d.mix(reference_lanes);
  d.mix_bool(optimise);
  d.mix(optimise_step_limit);
  d.mix_bool(compile);
  d.mix(compile_budget_steps);
  d.mix(static_cast<std::uint64_t>(backend));
  d.mix(tile_lanes);
  d.mix(workers);
  d.mix(arrangement.has_value()
            ? static_cast<std::uint64_t>(*arrangement) + 1
            : 0);
  d.mix(arrangement_param);
  // The tuner knobs are decisions; the injected clock is an observation
  // channel and stays out.
  d.mix_bool(tune.measure);
  d.mix(tune.trials);
  d.mix(tune.lanes);
  return d.h;
}

void PlanOptions::validate() const {
  machine.validate();
  OBX_CHECK(reference_lanes > 0, "reference lane count must be positive");
  OBX_CHECK(tune.trials > 0, "tuner trial count must be positive");
}

std::string ArrangementCandidate::name() const {
  if (arrangement == bulk::Arrangement::kBlocked) {
    return "blocked(" + std::to_string(param) + ")";
  }
  if (arrangement == bulk::Arrangement::kConflictFree) {
    return "conflict-free(" + std::to_string(param) + ")";
  }
  return bulk::to_string(arrangement);
}

TimeUnits ExecutionPlan::units_for_lanes(std::size_t lanes) const {
  OBX_CHECK(lanes > 0, "lane count must be positive");
  std::lock_guard lock(units_mutex_);
  const auto it = units_by_lanes_.find(lanes);
  if (it != units_by_lanes_.end()) return it->second;
  const TimeUnits units = bulk::simulate_units(
      program_, bulk::make_layout(program_, lanes, arrangement_, arrangement_param_),
      umm::Model::kUmm, options_.machine);
  units_by_lanes_.emplace(lanes, units);
  return units;
}

std::size_t ExecutionPlan::resident_lanes_for_budget(std::size_t budget_words,
                                                     std::size_t p) const {
  OBX_CHECK(budget_words > 0, "memory budget must be positive");
  OBX_CHECK(p > 0, "at least one lane");
  const std::size_t per_lane = program_.input_words + program_.memory_words +
                               program_.register_count + program_.output_words;
  return std::clamp<std::size_t>(budget_words / std::max<std::size_t>(per_lane, 1), 1, p);
}

bulk::Layout ExecutionPlan::layout(std::size_t lanes) const {
  return bulk::make_layout(program_, lanes, arrangement_, arrangement_param_);
}

bulk::HostBulkExecutor::Options ExecutionPlan::host_options() const {
  return bulk::HostBulkExecutor::Options{
      .workers = workers_,
      .backend = backend_,
      .tile_lanes = options_.tile_lanes,
      .compile_budget_steps = options_.compile_budget_steps,
      .simd = provenance_.simd};
}

bulk::StreamingExecutor::Options ExecutionPlan::streaming_options(
    std::size_t max_resident_lanes) const {
  return bulk::StreamingExecutor::Options{
      .max_resident_lanes = max_resident_lanes,
      .workers = workers_,
      .arrangement = arrangement_,
      .arrangement_param = arrangement_param_,
      .backend = backend_,
      .tile_lanes = options_.tile_lanes,
      .compile_budget_steps = options_.compile_budget_steps,
      .simd = provenance_.simd};
}

std::string ExecutionPlan::describe() const {
  std::ostringstream os;
  const PlanProvenance& pv = provenance_;
  char fp[32];
  std::snprintf(fp, sizeof(fp), "0x%016llx",
                static_cast<unsigned long long>(fingerprint_));

  os << "plan: " << program_.name << "\n";
  os << "  fingerprint : " << fp << "\n";
  os << "  machine     : umm w=" << options_.machine.width
     << " l=" << options_.machine.latency
     << " group=" << options_.machine.effective_group();
  if (options_.machine.shared.enabled()) {
    os << " shared=" << options_.machine.shared.banks << "x"
       << options_.machine.shared.bank_words << " ls=" << options_.machine.shared.latency;
  }
  if (options_.machine.overlap_latency) os << " overlap";
  if (options_.machine.count_compute) os << " count-compute";
  os << "\n";
  os << "  source steps: total=" << pv.before.total() << " memory=" << pv.before.memory()
     << " (loads=" << pv.before.loads << " stores=" << pv.before.stores
     << " alu=" << pv.before.alu << " imm=" << pv.before.imm << ")\n";

  os << "  optimise    : ";
  if (!pv.optimise_attempted) {
    os << (options_.optimise ? "skipped (over step limit)" : "skipped (disabled)");
  } else if (!pv.optimised) {
    os << "no win";
  } else {
    os << "adopted (t " << pv.before.memory() << " -> " << pv.after.memory();
    for (const opt::PassReport& r : pv.passes) {
      if (r.removed > 0) os << "; " << r.pass << " -" << r.removed;
    }
    os << ")";
  }
  os << "\n";
  os << "  plan steps  : total=" << pv.after.total() << " memory=" << pv.after.memory()
     << "\n";

  os << "  compile     : ";
  if (!pv.compile_attempted) {
    os << (options_.backend == exec::Backend::kInterpreted
               ? "skipped (interpreted backend)"
               : "disabled");
  } else if (!pv.compiled) {
    os << "fallback (over budget " << options_.compile_budget_steps << ")";
  } else {
    os << "compiled (segments=" << pv.compiled_segments
       << " fused-ops=" << pv.compiled_fused_ops
       << " budget=" << options_.compile_budget_steps << ")";
  }
  os << "\n";

  os << "  jit         : ";
  if (pv.jitted) {
    os << "emitted (code=" << pv.jit_code_bytes << "B patches=" << pv.jit_patches
       << ")";
  } else if (options_.backend == exec::Backend::kInterpreted) {
    os << "skipped (interpreted backend)";
  } else if (options_.backend == exec::Backend::kCompiled) {
    os << "skipped (compiled backend)";
  } else if (!pv.compiled) {
    os << "skipped (no compiled artifact)";
  } else if (!exec::jit_enabled()) {
    os << "skipped (disabled)";
  } else if (!exec::jit_platform_supported()) {
    os << "skipped (unsupported host)";
  } else {
    os << "fallback (emission failed)";
  }
  os << "\n";
  os << "  backend     : " << exec::to_string(backend_) << "\n";
  os << "  simd        : " << to_string(pv.simd) << " (w=" << pv.simd_width << ")\n";

  std::string arr_name = bulk::to_string(arrangement_);
  if (arrangement_ == bulk::Arrangement::kBlocked ||
      arrangement_ == bulk::Arrangement::kConflictFree) {
    arr_name += "(" + std::to_string(arrangement_param_) + ")";
  }
  os << "  arrangement : " << arr_name;
  if (pv.arrangement_forced) {
    os << " (forced)\n";
  } else {
    os << (pv.tuned ? " (tuned over " : " (searched ") << pv.candidates.size()
       << " candidates, margin=" << to_u64(pv.margin_units) << " units @ "
       << pv.reference_lanes << " lanes)\n";
    for (const ArrangementCandidate& c : pv.candidates) {
      std::string label = c.name();
      if (label.size() < 17) label.resize(17, ' ');
      os << "    candidate : " << label << " sim=" << to_u64(c.sim_units) << " units";
      if (c.measured_ns != 0) os << " measured=" << c.measured_ns << "ns";
      if (c.chosen) os << " *";
      os << "\n";
    }
  }

  os << "  tile lanes  : " << pv.resolved_tile_lanes
     << (options_.tile_lanes == 0 ? " (auto" : " (requested")
     << " @ " << pv.reference_lanes << " lanes)\n";
  os << "  workers     : ";
  if (options_.workers == 0) {
    os << "auto";
  } else {
    os << options_.workers;
  }
  os << " (resolved " << pv.resolved_workers << ", pool " << pv.pool_workers
     << (pv.pool_pinned ? ", pinned" : ", unpinned") << ")\n";
  os << "  est. units  : " << to_u64(units_for_lanes(pv.reference_lanes)) << " @ "
     << pv.reference_lanes << " lanes\n";
  return os.str();
}

bulk::HostRunResult run(const ExecutionPlan& plan, std::span<const Word> inputs,
                        std::size_t p, std::vector<Word>* outputs) {
  const bulk::HostBulkExecutor exec(plan, p);
  if (outputs != nullptr) return exec.run_outputs(plan.program(), inputs, *outputs);
  return exec.run(plan.program(), inputs);
}

bulk::StreamingExecutor::Stats run_streaming(
    const ExecutionPlan& plan, std::size_t p, std::size_t max_resident_lanes,
    const std::function<void(Lane, std::span<Word>)>& fill_input,
    const std::function<void(Lane, std::span<const Word>)>& consume_output) {
  const bulk::StreamingExecutor exec(plan, max_resident_lanes);
  return exec.run(plan.program(), p, fill_input, consume_output);
}

}  // namespace obx::plan
