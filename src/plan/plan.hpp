// ExecutionPlan: the one place where input-independent execution decisions
// are made and remembered, and the only way to configure a host run.
//
// Theorem 2's win comes from paying per-program costs once and amortising
// them over every lane of every bulk run.  A plan captures every such
// decision, immutably:
//
//   - the optimised trace::Program (or the original when the optimiser is
//     disabled, the program is too long to capture, or no pass won),
//   - the shared exec::CompiledProgram artifact and, when kJit is requested
//     and native code could be emitted, the exec::JitProgram (both also
//     memoised through the program's exec_cache slot),
//   - the resolved engine: the compiled → interpreted fallback (jit →
//     compiled → interpreted under kJit) is decided here, at build time,
//     and nowhere else,
//   - the chosen bulk::Arrangement for the simulated machine (a search over
//     row / column / blocked / conflict-free by simulated DMM+UMM units at a
//     reference occupancy, unless forced; host engines are
//     arrangement-free),
//   - the lane-tile knob, SIMD tier and worker count,
//   - a memoised per-occupancy simulated-UMM-units estimate, and
//   - a provenance record of which passes and decisions fired.
//
// Plans are built by plan::Planner (see planner.hpp), shared as
// shared_ptr<const ExecutionPlan>, and cached process-wide by plan::PlanCache
// (see plan_cache.hpp).  Executors are built from them and run exactly what
// they decided:
//
//   auto plan = plan::Planner(options).build(program);
//   bulk::HostBulkExecutor exec(*plan, p);
//   auto result = exec.run(plan->program(), inputs);  // always the plan's
//                                                     // (optimised) program
//
// or through plan::run / plan::run_streaming below, which cannot get the
// program/plan pairing wrong.  plan::run_bulk is the one-call form for a
// program nobody planned yet.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/simd_isa.hpp"
#include "common/types.hpp"
#include "bulk/host_executor.hpp"
#include "bulk/layout.hpp"
#include "exec/backend.hpp"
#include "exec/compiled_program.hpp"
#include "opt/optimizer.hpp"
#include "trace/program.hpp"
#include "umm/machine_config.hpp"

namespace obx::exec {
class JitProgram;
}

namespace obx::plan {

/// Every input-independent knob of the optimise → compile → arrange → tile
/// decision path.  En spelling throughout (`optimise`), matching
/// `optimise_step_limit`.
struct PlanOptions {
  /// Machine the arrangement choice and simulated-units estimates target.
  umm::MachineConfig machine{.width = 32, .latency = 200};

  /// Occupancy the arrangement decision (and the tile-size provenance) is
  /// evaluated at.  Use the occupancy the caller is tuned for: the service
  /// passes its max_batch_lanes, the Session passes the full lane count p.
  std::size_t reference_lanes = 256;

  /// Run the peephole optimiser (skipped automatically for programs longer
  /// than optimise_step_limit; the optimised program is adopted only when it
  /// actually removed steps).
  bool optimise = true;
  std::size_t optimise_step_limit = std::size_t{1} << 22;

  /// Programs up to this many steps are compiled for the fused lane-tiled
  /// backend at plan-build time, so no run ever pays the one-time stream
  /// drain.  An over-budget compile falls back to the interpreter, recorded
  /// in the provenance.
  std::size_t compile_budget_steps = exec::kDefaultCompileBudget;

  /// Requested lockstep engine; the plan resolves kAuto / kJit / kCompiled
  /// to whichever engine will actually run (see ExecutionPlan::backend()).
  /// kInterpreted skips the compile.
  exec::Backend backend = exec::Backend::kAuto;

  /// Compiled lane-tile size; 0 = auto (fit the register tile in L1).
  std::size_t tile_lanes = 0;

  /// Host threads per bulk run; 0 = auto (bulk::default_worker_count() at
  /// executor construction, so the knob — and plan fingerprints — stay
  /// machine-independent).
  unsigned workers = 0;

  /// Force an arrangement instead of searching.  All four arrangements are
  /// plannable; kBlocked / kConflictFree take their parameter from
  /// arrangement_param.
  std::optional<bulk::Arrangement> arrangement{};

  /// Parameter of a forced kBlocked (block size) or kConflictFree (pad
  /// stride) arrangement; 0 = auto (machine width for blocked, the shared
  /// tier's conflict-free stride for conflict-free).  Ignored by
  /// row-/column-wise.
  std::size_t arrangement_param = 0;

  /// SIMD tier of the compiled and JIT kernels.  Unset = the process-wide
  /// active_simd_isa() (OBX_SIMD-overridable, latched).  Every tier is
  /// bit-identical, so a pin is pure tuning — and how tests and the fuzzer
  /// compare tiers in one process.  Must be a tier this CPU supports.  The
  /// interpreter ignores it: trace::bulk_alu has no SIMD tier.
  std::optional<SimdIsa> simd{};

  /// Deterministic 64-bit digest of every knob above (machine included).
  /// Same options => same fingerprint, on any host.  Part of the PlanCache
  /// key and of ExecutionPlan::fingerprint() — which is how decisions are
  /// memoised in PlanCache per (program, machine, occupancy, knobs).
  std::uint64_t fingerprint() const;

  /// Throws std::logic_error on an invalid machine shape, zero reference
  /// occupancy, or a SIMD pin this CPU cannot run.
  void validate() const;
};

/// One entry of the Planner's arrangement search: an arrangement (with its
/// parameter) and its simulated DMM+UMM units at the reference occupancy.
struct ArrangementCandidate {
  bulk::Arrangement arrangement = bulk::Arrangement::kColumnWise;
  std::size_t param = 0;    ///< block size / pad stride; 0 for row/column
  TimeUnits sim_units = 0;  ///< simulated units
  bool chosen = false;

  /// "column-wise", "blocked(32)", "conflict-free(4)", ... — the layout name.
  std::string name() const;
};

/// What the Planner actually did — kept alongside the decisions so tools
/// (obx_cli plan, the golden-plan CI diff) can explain a plan, not just
/// apply it.
struct PlanProvenance {
  trace::StepCounts before;  ///< step profile of the source program
  trace::StepCounts after;   ///< profile of the program the plan executes

  bool optimise_attempted = false;  ///< optimiser ran (enabled and capturable)
  bool optimised = false;           ///< ...and its result was adopted
  std::vector<opt::PassReport> passes;  ///< per-pass step removals when adopted

  bool compile_attempted = false;
  bool compiled = false;  ///< false: disabled, interpreted-only, or over budget
  std::size_t compiled_segments = 0;
  std::size_t compiled_fused_ops = 0;

  /// Copy-and-patch JIT emission (see exec/jit/jit_program.hpp).  Attempted
  /// only when a compiled artifact exists and kJit was requested (kAuto
  /// runs the switch engine); `jitted` false with `jit_attempted` true
  /// means emission was unavailable (non-x86-64/non-Linux host, OBX_JIT=0,
  /// or an arena failure) and the plan fell back to the compiled switch
  /// backend.
  bool jit_attempted = false;
  bool jitted = false;
  std::size_t jit_code_bytes = 0;  ///< emitted native code size
  std::size_t jit_patches = 0;     ///< imm64 patch points applied

  bool arrangement_forced = false;
  /// The searched candidates, in search order (column, row, blocked,
  /// conflict-free), exactly one marked chosen.  Empty for a forced
  /// arrangement, which is not simulated at build.
  std::vector<ArrangementCandidate> candidates;
  /// Winner's margin over the best rejected candidate in simulated units (0
  /// when forced or when candidates tie).
  TimeUnits margin_units = 0;
  /// Simulated units at reference_lanes backing the arrangement choice —
  /// the row/column entries of the candidate list, kept flat for
  /// compatibility (both populated only when the choice was searched).
  TimeUnits row_units = 0;
  TimeUnits col_units = 0;
  std::size_t reference_lanes = 0;

  /// Tile size resolve_tile_lanes() picks at reference_lanes occupancy.
  std::size_t resolved_tile_lanes = 0;

  /// SIMD tier the lockstep kernels dispatch to — PlanOptions::simd when
  /// pinned, else the process-wide active_simd_isa() at plan-build time
  /// (OBX_SIMD-overridable, latched) — and its vector width in 64-bit words.
  /// The JIT is emitted for this tier.  Part of the plan fingerprint: the
  /// tier changes which code runs and how tiles are rounded, even though
  /// results are bit-identical across tiers.  Executors built from this plan
  /// run at the recorded tier.
  SimdIsa simd = SimdIsa::kScalar;
  std::size_t simd_width = 1;

  /// Worker resolution against the shared bulk::CorePool: the concrete
  /// parallelism target executors built from this plan will use (the
  /// options_.workers knob resolved; never 0) and the pool size it was
  /// resolved against (default_worker_count(): affinity-mask CPUs,
  /// OBX_WORKERS-overridable; the threads that run a region, the submitter
  /// included).  Part of the plan fingerprint, like the SIMD tier: a
  /// different pool shape means different code paths run even though
  /// results are bit-identical.  Per-run steal/park counts are runtime
  /// observations, not decisions — they live in HostRunResult::sched.
  unsigned resolved_workers = 1;
  unsigned pool_workers = 1;
};

/// An immutable, shareable record of every input-independent decision for
/// one program on one machine.  Built by Planner; thread-safe throughout
/// (the units memo is internally locked).
class ExecutionPlan {
 public:
  ExecutionPlan(const ExecutionPlan&) = delete;
  ExecutionPlan& operator=(const ExecutionPlan&) = delete;

  /// The program the plan executes — already optimised when the optimiser
  /// won.  Executors built from the plan run only this program (or a copy,
  /// which shares its exec_cache slot): the plan's artifacts were built
  /// from it.
  const trace::Program& program() const { return program_; }

  bulk::Arrangement arrangement() const { return arrangement_; }

  /// Resolved arrangement parameter: the block size (kBlocked) or pad
  /// stride (kConflictFree); 0 for row-/column-wise.
  std::size_t arrangement_param() const { return arrangement_param_; }

  /// Resolved engine: kJit when per-segment native code was emitted,
  /// kCompiled when only the switch artifact exists, otherwise kInterpreted.
  /// Never kAuto — the plan already decided.
  exec::Backend backend() const { return backend_; }

  /// Non-null iff backend() is kCompiled or kJit.
  const std::shared_ptr<const exec::CompiledProgram>& compiled() const {
    return compiled_;
  }

  /// Non-null iff backend() == kJit: the emitted copy-and-patch code, for
  /// provenance().simd (also memoised through the program's exec_cache
  /// slot, so a second plan of the same program does not re-emit).
  const std::shared_ptr<const exec::JitProgram>& jitted() const { return jitted_; }

  /// Lane-tile knob (0 = auto); the concrete tile still depends on the
  /// occupancy of each run (see provenance().resolved_tile_lanes for the
  /// reference occupancy's value).
  std::size_t tile_lanes() const { return options_.tile_lanes; }

  /// Host threads per bulk run (resolved: never 0).
  unsigned workers() const { return workers_; }

  const PlanOptions& options() const { return options_; }
  const PlanProvenance& provenance() const { return provenance_; }

  std::size_t input_words() const { return program_.input_words; }
  std::size_t output_words() const { return program_.output_words; }

  /// Deterministic digest of (program profile, options, decisions): equal
  /// inputs produce equal fingerprints, and any drift in a decision shows up
  /// as a fingerprint change.
  std::uint64_t fingerprint() const { return fingerprint_; }

  /// Simulated UMM time units of one bulk run at the given occupancy on the
  /// plan's machine, memoised per distinct lane count (thread-safe).  The
  /// Planner's arrangement search pre-seeds the reference-occupancy value; a
  /// forced arrangement is priced on first use.
  TimeUnits units_for_lanes(std::size_t lanes) const;

  /// Largest resident-lane batch that keeps one batch's working set (input
  /// + memory image + registers + output per lane) within budget_words,
  /// clamped to [1, p] — the Session's batch-sizing rule, now in one place.
  std::size_t resident_lanes_for_budget(std::size_t budget_words, std::size_t p) const;

  /// Layout of a bulk run at the given occupancy under the chosen arrangement
  /// on the simulated machine (host runs are lane-major at any arrangement).
  bulk::Layout layout(std::size_t lanes) const;

  /// Human- and diff-friendly description of decisions + provenance +
  /// estimated units (the `obx_cli plan` output; golden-tested, so the text
  /// is deterministic across hosts).
  std::string describe() const;

 private:
  friend class Planner;
  ExecutionPlan() = default;

  trace::Program program_;
  PlanOptions options_;
  PlanProvenance provenance_;
  bulk::Arrangement arrangement_ = bulk::Arrangement::kColumnWise;
  std::size_t arrangement_param_ = 0;
  exec::Backend backend_ = exec::Backend::kInterpreted;
  unsigned workers_ = 1;
  std::shared_ptr<const exec::CompiledProgram> compiled_;
  std::shared_ptr<const exec::JitProgram> jitted_;
  std::uint64_t fingerprint_ = 0;

  mutable std::mutex units_mutex_;
  mutable std::map<std::size_t, TimeUnits> units_by_lanes_;
};

/// Plan-driven monolithic run: executes plan.program() over p lane-major
/// inputs on the plan's engine, tile, workers and SIMD tier.  When `outputs`
/// is non-null the run takes the output path
/// (HostBulkExecutor::run_outputs): `outputs` receives the lane-major output
/// regions and the result's `memory` is empty.  With `outputs` null the
/// result carries every lane's final memory, lane-major (p·n words).
bulk::HostRunResult run(const ExecutionPlan& plan, std::span<const Word> inputs,
                        std::size_t p, std::vector<Word>* outputs = nullptr);

struct BulkOutputs {
  std::vector<Word> flat;  ///< lane-major: output j at [j*words, (j+1)*words)
  std::size_t words_per_output = 0;

  std::span<const Word> output(Lane j) const {
    return std::span<const Word>(flat).subspan(j * words_per_output, words_per_output);
  }
  std::size_t count() const {
    return words_per_output == 0 ? 0 : flat.size() / words_per_output;
  }
};

/// The options of a one-off plan that runs a program as given: `options`
/// with the optimiser off (the plan's program is the caller's, sharing its
/// exec_cache slot, and every memory word stays comparable with
/// trace::interpret of it) and a forced column-wise arrangement (no
/// arrangement search runs).
PlanOptions one_off(PlanOptions options);

/// One call from "a Program and p inputs" (lane-major flat) to "p outputs",
/// on up to `workers` host threads: runs a plan built with
/// one_off({.workers = workers}).  Callers that run a program more than
/// once should plan it once and use run().
BulkOutputs run_bulk(const trace::Program& program, std::span<const Word> inputs,
                     std::size_t p, unsigned workers = 1);

/// What one run_streaming call did.
struct StreamingStats {
  std::size_t batches = 0;
  std::size_t lanes = 0;
  double execute_seconds = 0.0;   ///< engine time: lockstep run and outputs
  double callback_seconds = 0.0;  ///< time spent inside fill_input/consume_output
  double seconds() const { return execute_seconds + callback_seconds; }
};

/// Memory-bounded run: plan.program() over p lanes in resident batches of at
/// most max_resident_lanes, so peak memory is O(batch · n) whatever p is
/// (figure-scale lane counts cannot be materialised as one p·n array).
/// fill_input(j, dst) must write lane j's input_words into dst;
/// consume_output(j, out) receives lane j's output region.  Callbacks are
/// invoked from the calling thread, in lane order.  Results are
/// bit-identical to one monolithic run().
StreamingStats run_streaming(
    const ExecutionPlan& plan, std::size_t p, std::size_t max_resident_lanes,
    const std::function<void(Lane, std::span<Word>)>& fill_input,
    const std::function<void(Lane, std::span<const Word>)>& consume_output);

}  // namespace obx::plan
