// PlanCache: thread-safe, process-wide memoisation of ExecutionPlans.
//
// Keyed by (program id, PlanOptions fingerprint) — the machine shape is part
// of the options, so one cache can serve several machine configurations
// without collisions.  Concurrent get_or_build() calls for the same key are
// collapsed: exactly one thread runs the Planner, everyone else blocks on a
// shared future and receives the identical shared plan (and therefore the
// identical shared compiled artifact).
//
// Id discipline: an id names one logical program for the cache's lifetime.
// The cache checks that a hit's program shares the exec_cache slot of the
// program it was built from when one is supplied, catching accidental id
// reuse; lookup-by-id alone (the hot serving path) skips the program
// entirely.  Scoped caches (one per BulkService) keep independent id
// namespaces; PlanCache::process() is the shared process-wide instance.
#pragma once

#include <cstddef>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "plan/planner.hpp"

namespace obx::plan {

class PlanCache {
 public:
  /// `defaults` are the options used by the two-argument get_or_build() and
  /// one-argument lookup().
  PlanCache() : PlanCache(PlanOptions{}) {}
  explicit PlanCache(PlanOptions defaults);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached plan for (id, options), building it from `program`
  /// on first use.  On a hit `program` is only identity-checked (shared
  /// exec_cache slot), never re-planned.  Thread-safe; a build failure is
  /// not cached (later callers retry).
  std::shared_ptr<const ExecutionPlan> get_or_build(const std::string& id,
                                                    const trace::Program& program);
  std::shared_ptr<const ExecutionPlan> get_or_build(const std::string& id,
                                                    const trace::Program& program,
                                                    const PlanOptions& options);

  /// The cached plan for (id, options), or nullptr — never builds.  This is
  /// the hot serving path: one lock, one map lookup, no program in sight.
  std::shared_ptr<const ExecutionPlan> lookup(const std::string& id) const;
  std::shared_ptr<const ExecutionPlan> lookup(const std::string& id,
                                              const PlanOptions& options) const;

  bool contains(const std::string& id) const { return lookup(id) != nullptr; }
  bool contains(const std::string& id, const PlanOptions& options) const {
    return lookup(id, options) != nullptr;
  }

  /// Distinct program ids with at least one cached plan, sorted.
  std::vector<std::string> ids() const;
  /// Cached (id, options) entries, completed builds only.
  std::size_t size() const;
  void clear();

  const PlanOptions& defaults() const { return defaults_; }

  /// The process-wide shared instance (default options; per-call options
  /// passed explicitly).  Use scoped instances when id namespaces must not
  /// be shared — e.g. one per BulkService.
  static PlanCache& process();

 private:
  struct Entry {
    std::shared_future<std::shared_ptr<const ExecutionPlan>> plan;
    /// Slot of the program the entry was built from, for id-reuse checks.
    std::shared_ptr<trace::ExecCacheSlot> slot;
  };

  static std::string key_of(const std::string& id, const PlanOptions& options);
  std::shared_ptr<const ExecutionPlan> find(const std::string& key) const;

  PlanOptions defaults_;
  /// key_of(id, defaults_) minus the id, so the hot one-argument lookup()
  /// does not re-digest the options on every call.
  std::string defaults_key_suffix_;
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace obx::plan
