// Process-wide thread-per-core executor with self-scheduling lane-tile
// regions.
//
// Theorem 2's bound O(pt/w + lt) says bulk throughput is won by keeping
// every execution unit saturated with lane work.  The SIMD kernels cover the
// w axis inside one core; this pool covers the multi-core axis without
// paying per-batch scheduling overhead: workers are spawned once per
// process, pinned one-per-core where the platform allows, and sleep on the
// pool condvar (after a bounded spin) when idle.
//
// A bulk run is cut into lane tiles — the same cache-sized, vector-width-
// multiple tiles exec::resolve_tile_lanes computes.  Each parallel_for
// region goes on one pool-wide list of open regions and hands its tiles out
// from a single atomic counter: the submitter and every worker that joins
// claim the next unclaimed tile until the counter runs dry.  Every lane runs
// the same oblivious step stream, so tiles cost the same and a shared
// counter balances the load as well as work stealing would; a ragged tail
// is absorbed by whoever is free.
//
// Submission is synchronous fork-join: parallel_for() returns after every
// tile of its region ran (the caller claims tiles too — it is always at
// least one of the "workers").  Nested submission from inside a task is
// allowed: a nested submitter waits only for tiles that other threads have
// already claimed, and those never wait on it, so the pool cannot deadlock
// on recursion.  Exceptions thrown by tiles are caught, the first one is
// rethrown on the submitting thread after the region completes, and
// remaining tiles of a failed region are skipped (their lane ranges are
// left untouched).
//
// Knobs (read once per process):
//   OBX_WORKERS=N   override the worker count (default: the CPUs in this
//                   process's affinity mask — cgroup/taskset aware — via
//                   default_worker_count()).
//   OBX_PIN=0       disable pthread_setaffinity_np pinning (non-Linux
//                   platforms never pin; pin failures are ignored).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace obx::bulk {

/// Worker count the pool (and `workers = 0` knobs) default to: the CPUs in
/// this process's affinity mask (cgroup/taskset aware; falls back to
/// hardware_concurrency), overridable with OBX_WORKERS.  Latched once per
/// process; always >= 1.
unsigned default_worker_count();

/// What the scheduler did for one region (one parallel_for call): how many
/// tile tasks ran, how many of them a pool worker ran instead of the
/// submitter, and whether the submitter had to park waiting for tiles other
/// threads still ran.  Aggregated per run into HostRunResult::sched and
/// recorded (pool topology side) in plan::PlanProvenance.
struct SchedulerStats {
  std::uint64_t tasks = 0;   ///< tile tasks executed for this region
  std::uint64_t steals = 0;  ///< tasks run by a thread other than the submitter
  std::uint64_t parks = 0;   ///< submitter slept waiting for in-flight tiles

  SchedulerStats& operator+=(const SchedulerStats& other) {
    tasks += other.tasks;
    steals += other.steals;
    parks += other.parks;
    return *this;
  }
};

class CorePool {
 public:
  struct Config {
    /// Worker threads to spawn; 0 = default_worker_count() (affinity-mask
    /// CPUs, OBX_WORKERS-overridable).
    unsigned workers = 0;
  };

  /// Point-in-time copy of the pool-lifetime counters (monotonic; serve
  /// Metrics renders them on the Prometheus scrape).
  struct CountersSnapshot {
    std::uint64_t tasks = 0;    ///< tile tasks executed, all regions
    std::uint64_t steals = 0;   ///< tasks a worker ran for another thread's region
    std::uint64_t parks = 0;    ///< worker went to sleep on the condvar
    std::uint64_t unparks = 0;  ///< worker wakeups signalled by submitters
    bool pinned = false;        ///< pinning policy in effect for the workers
    std::vector<std::uint64_t> worker_busy_ns;  ///< per worker, time inside tasks
  };

  CorePool() : CorePool(Config{}) {}
  explicit CorePool(Config config);
  ~CorePool();  ///< drains: waits for in-flight regions, then joins workers
  CorePool(const CorePool&) = delete;
  CorePool& operator=(const CorePool&) = delete;

  unsigned worker_count() const;
  bool pinning() const;  ///< resolved pin policy for this pool

  /// Runs body(tile_begin, tile_end) over [0, count) cut into tiles of
  /// `grain` lanes (at least one; the last tile takes the ragged tail).  Up
  /// to max_workers threads execute tiles concurrently — the calling thread
  /// plus woken pool workers; the knob is a parallelism target, not a hard
  /// cap (an already-awake worker may help any region).  max_workers <= 1,
  /// count <= grain, or a single tile run the body inline with zero
  /// scheduler involvement.  Returns after every tile completed; the first
  /// tile exception is rethrown here.
  SchedulerStats parallel_for(std::size_t count, std::size_t grain, unsigned max_workers,
                              const std::function<void(std::size_t, std::size_t)>& body);

  CountersSnapshot counters() const;

  /// The process-wide pool every executor shares (workers spawn lazily on
  /// the first parallel region, so merely planning never starts threads).
  static CorePool& instance();

  /// Platform pinning policy: true on Linux unless OBX_PIN=0/off/false
  /// (latched on first use), false elsewhere.
  static bool pinning_enabled();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Tile grain for coarse interpreted chunks: ~4 tiles per worker (enough
/// slack for a ragged tail to spread across the workers, few enough that
/// per-chunk costs — e.g. one program-stream drain per chunk — stay
/// amortised), in lanes, always positive.
std::size_t chunk_grain(std::size_t count, unsigned workers);

}  // namespace obx::bulk
