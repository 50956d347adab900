#include "serve/program_cache.hpp"

#include "common/check.hpp"

namespace obx::serve {

plan::PlanOptions PrepareOptions::plan_options() const {
  plan::PlanOptions po;
  po.machine = machine;
  po.reference_lanes = reference_lanes;
  po.optimise = optimise;
  po.optimise_step_limit = optimise_step_limit;
  po.compile_budget_steps = compile_budget_steps;
  po.workers = workers;
  return po;
}

void ProgramCache::add(const std::string& id, trace::Program program) {
  OBX_CHECK(!id.empty(), "program id cannot be empty");
  OBX_CHECK(program.stream != nullptr, "program has no stream factory");
  std::lock_guard lock(add_mutex_);
  OBX_CHECK(!plans_.contains(id), "program id already registered: " + id);
  plans_.get_or_build(id, program);
}

const plan::ExecutionPlan& ProgramCache::get(const std::string& id) const {
  const std::shared_ptr<const plan::ExecutionPlan> plan = plans_.lookup(id);
  OBX_CHECK(plan != nullptr, "unknown program id: " + id);
  return *plan;  // the cache's entry keeps it alive: entries are never removed
}

}  // namespace obx::serve
