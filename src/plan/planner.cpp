#include "plan/planner.hpp"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "bulk/bulk.hpp"
#include "bulk/core_pool.hpp"
#include "bulk/timing_estimator.hpp"
#include "exec/jit/jit_program.hpp"
#include "umm/dmm.hpp"

namespace obx::plan {

namespace {

TimeUnits simulate(const trace::Program& program, std::size_t lanes,
                   bulk::Arrangement arrangement, std::size_t param,
                   const umm::MachineConfig& machine) {
  return bulk::simulate_units(program,
                              bulk::make_layout(program, lanes, arrangement, param),
                              umm::Model::kUmm, machine);
}

/// Resolves the parameter of an arrangement: the forced/auto block size for
/// kBlocked (auto = the machine width — one warp per block), the pad stride
/// for kConflictFree (auto = the shared tier's conflict-free stride).
std::size_t resolve_param(bulk::Arrangement arrangement, std::size_t requested,
                          const umm::MachineConfig& machine) {
  switch (arrangement) {
    case bulk::Arrangement::kBlocked:
      return requested != 0 ? requested : machine.width;
    case bulk::Arrangement::kConflictFree:
      return requested != 0 ? requested : umm::conflict_free_stride(machine.shared);
    default:
      return 0;
  }
}

/// Deterministic digest of everything a plan is: the options, the program's
/// step profile, and every decision that fired.  Two builds from the same
/// inputs always agree; any decision drift flips the fingerprint (which is
/// what the golden-plan CI diff watches).
std::uint64_t plan_fingerprint(const ExecutionPlan& plan) {
  // Re-uses the options digest as the seed, then folds in profile and
  // decisions via the same FNV stream (mirrored in PlanOptions::fingerprint).
  std::uint64_t h = plan.options().fingerprint();
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffull;
      h *= 1099511628211ull;
    }
  };
  const PlanProvenance& pv = plan.provenance();
  mix(pv.before.loads);
  mix(pv.before.stores);
  mix(pv.before.alu);
  mix(pv.before.imm);
  mix(pv.after.loads);
  mix(pv.after.stores);
  mix(pv.after.alu);
  mix(pv.after.imm);
  mix(pv.optimised ? 1 : 0);
  mix(pv.compiled ? 1 : 0);
  mix(pv.compiled_segments);
  mix(pv.compiled_fused_ops);
  mix(pv.jitted ? 1 : 0);
  mix(pv.jit_code_bytes);
  mix(pv.jit_patches);
  mix(static_cast<std::uint64_t>(plan.arrangement()));
  mix(static_cast<std::uint64_t>(plan.backend()));
  mix(static_cast<std::uint64_t>(pv.simd));
  mix(pv.simd_width);
  mix(pv.resolved_workers);
  mix(pv.pool_workers);
  mix(pv.resolved_tile_lanes);
  mix(static_cast<std::uint64_t>(pv.row_units));
  mix(static_cast<std::uint64_t>(pv.col_units));
  mix(plan.arrangement_param());
  mix(static_cast<std::uint64_t>(pv.margin_units));
  mix(pv.candidates.size());
  for (const ArrangementCandidate& c : pv.candidates) {
    mix(static_cast<std::uint64_t>(c.arrangement));
    mix(c.param);
    mix(static_cast<std::uint64_t>(c.sim_units));
    mix(c.chosen ? 1 : 0);
  }
  for (const char c : plan.program().name) mix(static_cast<unsigned char>(c));
  return h;
}

}  // namespace

Planner::Planner(PlanOptions options) : options_(options) { options_.validate(); }

std::shared_ptr<const ExecutionPlan> Planner::build(trace::Program program) const {
  OBX_CHECK(program.stream != nullptr, "program has no stream factory");

  auto plan = std::shared_ptr<ExecutionPlan>(new ExecutionPlan());
  plan->options_ = options_;
  plan->program_ = std::move(program);
  plan->workers_ =
      options_.workers == 0 ? bulk::default_worker_count() : options_.workers;

  PlanProvenance& pv = plan->provenance_;
  pv.reference_lanes = options_.reference_lanes;
  pv.before = plan->program_.profile();
  pv.after = pv.before;

  // 1. Optimise — only capturable programs, adopted only on a real win.
  if (options_.optimise && pv.before.total() < options_.optimise_step_limit) {
    pv.optimise_attempted = true;
    opt::OptimizeOptions oo;
    oo.max_steps = options_.optimise_step_limit;
    opt::OptimizeResult r = opt::optimize(plan->program_, oo);
    if (r.after.total() < r.before.total()) {
      plan->program_ = std::move(r.program);
      pv.optimised = true;
      pv.passes = std::move(r.reports);
      pv.after = r.after;
    }
  }

  // 2. Compile — once per (program, process) through the shared exec_cache
  //    slot; an over-budget stream is a recorded interpreter fallback.  This
  //    and step 2b are the engine ladder (kAuto and kCompiled: compiled →
  //    interpreted; kJit: jit → compiled → interpreted): the executors run
  //    whatever rung it resolves to.
  if (options_.backend != exec::Backend::kInterpreted) {
    pv.compile_attempted = true;
    plan->compiled_ = exec::CompiledProgram::get_or_compile(
        plan->program_, {.max_steps = options_.compile_budget_steps});
    if (plan->compiled_ != nullptr) {
      pv.compiled = true;
      pv.compiled_segments = plan->compiled_->segments().size();
      pv.compiled_fused_ops = plan->compiled_->fused_ops();
    }
  }

  // 2b. Emit — only when kJit is requested: copy-and-patch per-segment
  //     native code over the compiled artifact, for the plan's SIMD tier
  //     (pinned, else the process-wide one; results are tier-independent),
  //     memoised in the same exec_cache slot.  kAuto does not emit: the
  //     switch engine inlines the same kernels the JIT calls out of line,
  //     and runs bulk-registry faster.  Any emission failure is a recorded
  //     fallback to the switch engine.
  pv.simd = options_.simd.value_or(active_simd_isa());
  pv.simd_width = simd_width_words(pv.simd);
  if (plan->compiled_ != nullptr && options_.backend == exec::Backend::kJit) {
    pv.jit_attempted = true;
    plan->jitted_ = exec::JitProgram::get_or_emit(plan->program_, plan->compiled_, pv.simd);
    if (plan->jitted_ != nullptr) {
      pv.jitted = true;
      pv.jit_code_bytes = plan->jitted_->code_bytes();
      pv.jit_patches = plan->jitted_->patch_count();
    }
  }
  plan->backend_ = plan->jitted_ != nullptr     ? exec::Backend::kJit
                   : plan->compiled_ != nullptr ? exec::Backend::kCompiled
                                                : exec::Backend::kInterpreted;

  // 3. Arrange — forced, or a search over {column, row, blocked,
  //    conflict-free}: simulated DMM+UMM units at the reference occupancy
  //    decide (strict-< wins, so ties keep the earlier candidate —
  //    column-wise, the Theorem 3 time-optimal layout).  A forced
  //    arrangement simulates nothing here: units_for_lanes() prices it on
  //    first use.
  if (options_.arrangement.has_value()) {
    pv.arrangement_forced = true;
    plan->arrangement_ = *options_.arrangement;
    plan->arrangement_param_ =
        resolve_param(plan->arrangement_, options_.arrangement_param, options_.machine);
  } else {
    for (const bulk::Arrangement arr :
         {bulk::Arrangement::kColumnWise, bulk::Arrangement::kRowWise,
          bulk::Arrangement::kBlocked, bulk::Arrangement::kConflictFree}) {
      ArrangementCandidate c;
      c.arrangement = arr;
      c.param = resolve_param(arr, 0, options_.machine);
      c.sim_units =
          simulate(plan->program_, options_.reference_lanes, arr, c.param, options_.machine);
      pv.candidates.push_back(c);
    }
    pv.col_units = pv.candidates[0].sim_units;
    pv.row_units = pv.candidates[1].sim_units;

    std::size_t best = 0;
    for (std::size_t i = 1; i < pv.candidates.size(); ++i) {
      if (pv.candidates[i].sim_units < pv.candidates[best].sim_units) best = i;
    }

    pv.candidates[best].chosen = true;
    plan->arrangement_ = pv.candidates[best].arrangement;
    plan->arrangement_param_ = pv.candidates[best].param;
    const TimeUnits chosen_units = pv.candidates[best].sim_units;

    // Winner's margin over the best rejected candidate, in simulated units
    // (never negative: the winner has the fewest).
    pv.margin_units = std::numeric_limits<TimeUnits>::max();
    for (std::size_t i = 0; i < pv.candidates.size(); ++i) {
      if (i == best) continue;
      pv.margin_units = std::min(pv.margin_units, pv.candidates[i].sim_units - chosen_units);
    }
    plan->units_by_lanes_.emplace(options_.reference_lanes, chosen_units);
  }

  // 4. Tile — record what the tile resolution picks at the reference
  //    occupancy under the plan tier's vector width (each run still resolves
  //    for its own lane count).
  const std::size_t reg_count =
      plan->compiled_ != nullptr
          ? plan->compiled_->register_count()
          : std::max<std::size_t>(plan->program_.register_count, 1);
  pv.resolved_tile_lanes =
      exec::resolve_tile_lanes(options_.tile_lanes, reg_count, plan->program_.memory_words,
                               options_.reference_lanes, pv.simd_width);

  // 5. Workers — resolve the knob against the shared CorePool's topology
  //    (0 = one lane-consumer per pool worker) and record both sides: how
  //    many threads a run will target, and the pool shape backing it.
  pv.resolved_workers = plan->workers_;
  pv.pool_workers = bulk::default_worker_count();

  plan->fingerprint_ = plan_fingerprint(*plan);
  return plan;
}

}  // namespace obx::plan
