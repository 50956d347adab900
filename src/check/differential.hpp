// Differential execution of one oblivious program through every engine
// configuration available on the host, with trace::interpret as the oracle.
//
// The paper's Theorem 2 rests on the trace being data-independent: every
// execution path — interpreted, compiled or JIT, any SIMD tier, any
// lane-tile split, any worker count — must produce bit-identical lane-major
// memory images (HostBulkExecutor::run), and the output path
// (HostBulkExecutor::run_outputs) bit-identical output regions.  This
// header enumerates that path matrix and checks a program against all of it.
//
// Matrix axes:
//   backend      interpreted, compiled, JIT (plus compile-budget straddles: a
//                fresh-cache compile at budget == steps-1 must fall back to
//                the interpreter, at budget == steps must compile)
//   SIMD tier    every tier simd_isa_supported() on this host/build
//   tile_lanes   auto, 1 (scalar-tail-only), and a deliberately odd size
//   workers      1, 2 (chunk-boundary seams) and 8 (scheduler stress)
//   planner      the full planning path, whatever arrangement it picks for
//                the simulated machine
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/simd_isa.hpp"
#include "common/types.hpp"
#include "exec/backend.hpp"
#include "trace/program.hpp"

namespace obx::check {

/// One point of the execution matrix.
struct ExecConfig {
  exec::Backend backend = exec::Backend::kInterpreted;
  SimdIsa simd = SimdIsa::kScalar;
  std::size_t tile_lanes = 0;  ///< 0 = auto
  /// Compile budget.  0 = default.  Nonzero budgets run against a fresh
  /// exec-cache slot so the budget is actually exercised rather than
  /// memoised away.
  std::size_t compile_budget_steps = 0;
  /// When set, the run's HostRunResult::backend must equal this (used by the
  /// budget-straddle configs to prove the fallback actually happened).
  std::optional<exec::Backend> expect_backend;
  unsigned workers = 1;
  /// Route the run through plan::Planner (arrangement search) instead of a
  /// directly-constructed executor.  Whatever the plan decides must still
  /// be bit-identical to the oracle.
  bool via_planner = false;

  std::string name() const;
};

/// A bit-level disagreement between one config and the interpreter oracle.
struct Divergence {
  std::string config;  ///< ExecConfig::name() of the failing path
  std::size_t lane = 0;
  std::size_t word = 0;  ///< canonical memory index within the lane
  Word expected = 0;
  Word got = 0;
  std::string detail;  ///< non-value mismatch (backend fallback, size, throw)

  std::string to_string() const;
};

/// Every config the host can run for a program of `program_steps` steps at
/// occupancy `p`.  Deterministic for fixed inputs (the SIMD tier list depends
/// only on the build + CPU, which is the point: the matrix is "everything
/// this host can execute").
std::vector<ExecConfig> config_matrix(std::size_t p, std::size_t program_steps);

/// Oracle: interprets the program once per lane; returns the p·n lane-major
/// final memory images.
std::vector<Word> oracle_memory(const trace::Program& program,
                                std::span<const Word> inputs, std::size_t p);

/// Runs one config through the image path and the output path and compares
/// them against the oracle's lane-major memory (every word of every lane,
/// then each lane's output region; an output-path divergence names the
/// config with an "/outputs" suffix).
std::optional<Divergence> run_config(const trace::Program& program,
                                     std::span<const Word> inputs, std::size_t p,
                                     std::span<const Word> oracle,
                                     const ExecConfig& config);

/// Full-matrix check; returns the first divergence, or nullopt when every
/// path is bit-identical.  `configs_run`, when non-null, is incremented per
/// config executed.
std::optional<Divergence> check_program(const trace::Program& program,
                                        std::span<const Word> inputs, std::size_t p,
                                        std::size_t* configs_run = nullptr);

/// Occupancies that straddle the vector-width, tile and chunk boundaries.
std::vector<std::size_t> boundary_lane_counts();

}  // namespace obx::check
