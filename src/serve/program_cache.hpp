// Per-program plan registry for the serving layer — a thin wrapper over
// plan::PlanCache.
//
// Registering a program builds (and caches) its ExecutionPlan: peephole
// optimisation, eager compile for the fused lane-tiled backend, the
// arrangement choice on the configured machine, and the memoised
// per-occupancy simulated-UMM-units estimate all happen once per program id
// inside plan::Planner; every batch for that id runs the shared plan.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "exec/compiled_program.hpp"
#include "plan/plan_cache.hpp"
#include "trace/program.hpp"
#include "umm/machine_config.hpp"

namespace obx::serve {

/// Serving-facing view of plan::PlanOptions (en spelling throughout,
/// aligned with PlanOptions).
struct PrepareOptions {
  /// Machine the arrangement choice and simulated-units estimates target.
  umm::MachineConfig machine{.width = 32, .latency = 200};
  /// Reference lane count for the arrangement decision (use the service's
  /// max_batch_lanes: that is the occupancy the service is tuned for).
  std::size_t reference_lanes = 256;
  bool optimise = true;
  std::size_t optimise_step_limit = std::size_t{1} << 22;
  /// Programs up to this many steps are compiled at registration, so serving
  /// batches never pay the one-time stream drain and each program id is
  /// compiled exactly once per process.
  std::size_t compile_budget_steps = exec::kDefaultCompileBudget;
  /// Host threads inside one batch's executor (the service maps its
  /// workers_per_batch here; the pool supplies cross-batch parallelism).
  unsigned workers = 1;

  /// The canonical planning options this struct stands for.
  plan::PlanOptions plan_options() const;
};

/// Thread-safe id → ExecutionPlan registry: a service-scoped plan::PlanCache
/// (service id namespaces stay independent of each other and of
/// PlanCache::process()) that refuses to register an id twice.  Plans are
/// immutable and never removed, so get() hands out stable references.
class ProgramCache {
 public:
  explicit ProgramCache(PrepareOptions options) : plans_(options.plan_options()) {}

  /// Plans and stores `program` under `id`; throws if the id is taken.
  void add(const std::string& id, trace::Program program);

  const plan::ExecutionPlan& get(const std::string& id) const;  ///< throws if absent
  bool contains(const std::string& id) const { return plans_.contains(id); }
  std::vector<std::string> ids() const { return plans_.ids(); }

 private:
  plan::PlanCache plans_;
  /// Makes add()'s "id not taken" check and its build one step.  Lookups
  /// never take it: they go straight to the plan cache.
  std::mutex add_mutex_;
};

}  // namespace obx::serve
