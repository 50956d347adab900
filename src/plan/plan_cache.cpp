#include "plan/plan_cache.hpp"

#include <chrono>
#include <cstdio>
#include <set>
#include <utility>

#include "common/check.hpp"

namespace obx::plan {

PlanCache::PlanCache(PlanOptions defaults)
    : defaults_(defaults), defaults_key_suffix_(key_of("", defaults)) {
  defaults_.validate();
}

std::string PlanCache::key_of(const std::string& id, const PlanOptions& options) {
  char fp[24];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(options.fingerprint()));
  // '\x1f' (unit separator) cannot collide with printable ids.
  return id + '\x1f' + fp;
}

std::shared_ptr<const ExecutionPlan> PlanCache::get_or_build(
    const std::string& id, const trace::Program& program) {
  return get_or_build(id, program, defaults_);
}

std::shared_ptr<const ExecutionPlan> PlanCache::get_or_build(
    const std::string& id, const trace::Program& program, const PlanOptions& options) {
  OBX_CHECK(!id.empty(), "program id cannot be empty");
  OBX_CHECK(program.stream != nullptr, "program has no stream factory");
  const std::string key = key_of(id, options);

  std::shared_future<std::shared_ptr<const ExecutionPlan>> future;
  std::promise<std::shared_ptr<const ExecutionPlan>> promise;
  bool builder = false;
  {
    std::lock_guard lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      OBX_CHECK(it->second.slot == program.exec_cache,
                "program id reused for a different program: " + id);
      future = it->second.plan;
    } else {
      future = promise.get_future().share();
      entries_.emplace(key, Entry{future, program.exec_cache});
      builder = true;
    }
  }

  if (!builder) return future.get();

  // Build outside the cache lock: concurrent requests for *other* keys keep
  // flowing, while requests for this key block on the shared future and all
  // receive the one plan (and its one shared compiled artifact).
  try {
    promise.set_value(Planner(options).build(program));
  } catch (...) {
    promise.set_exception(std::current_exception());
    std::lock_guard lock(mutex_);
    entries_.erase(key);  // failures are not cached; later callers retry
    throw;
  }
  return future.get();
}

std::shared_ptr<const ExecutionPlan> PlanCache::lookup(const std::string& id) const {
  return find(id + defaults_key_suffix_);
}

std::shared_ptr<const ExecutionPlan> PlanCache::lookup(const std::string& id,
                                                       const PlanOptions& options) const {
  return find(key_of(id, options));
}

std::shared_ptr<const ExecutionPlan> PlanCache::find(const std::string& key) const {
  std::shared_future<std::shared_ptr<const ExecutionPlan>> future;
  {
    std::lock_guard lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) return nullptr;
    future = it->second.plan;
  }
  // May briefly block on an in-flight build of the same key — the plan it
  // returns is still the cached, shared instance.
  return future.get();
}

std::vector<std::string> PlanCache::ids() const {
  std::set<std::string> unique;
  {
    std::lock_guard lock(mutex_);
    for (const auto& [key, entry] : entries_) {
      unique.insert(key.substr(0, key.find('\x1f')));
    }
  }
  return {unique.begin(), unique.end()};
}

std::size_t PlanCache::size() const {
  std::lock_guard lock(mutex_);
  std::size_t done = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry.plan.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      ++done;
    }
  }
  return done;
}

void PlanCache::clear() {
  std::lock_guard lock(mutex_);
  entries_.clear();
}

PlanCache& PlanCache::process() {
  static PlanCache cache;
  return cache;
}

}  // namespace obx::plan
