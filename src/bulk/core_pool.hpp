// Process-wide thread-per-core executor with self-scheduling lane-tile
// regions.
//
// Theorem 2's bound O(pt/w + lt) says bulk throughput is won by keeping
// every execution unit saturated with lane work.  The SIMD kernels cover the
// w axis inside one core; this pool covers the multi-core axis without
// paying per-batch scheduling overhead: threads are spawned once per
// process, and sleep on the pool condvar (after a bounded spin) when idle.
//
// A pool of k workers runs every region on k threads at most: the submitter
// plus k - 1 pool threads, so one submitter never runs more lockstep threads
// than there are CPUs.  Threads are not pinned: they keep the process's
// affinity mask and the OS places them, which measured faster than pinning
// (docs/execution.md, "Why k − 1 threads and no pinning").
//
// A bulk run is cut into lane tiles — the same cache-sized, vector-width-
// multiple tiles exec::resolve_tile_lanes computes.  Each parallel_for
// region goes on one pool-wide list of open regions and hands its tiles out
// from a single atomic counter: the submitter and every pool thread that
// joins claim the next unclaimed tile until the counter runs dry.  Every
// lane runs the same oblivious step stream, so tiles cost the same and a
// shared counter balances the load as well as work stealing would; a ragged
// tail is absorbed by whoever is free.
//
// Submission is synchronous fork-join: parallel_for() returns after every
// tile of its region ran (the caller claims tiles too — it is always the
// k-th worker).  Nested submission from inside a task is allowed: a nested
// submitter waits only for tiles that other threads have already claimed,
// and those never wait on it, so the pool cannot deadlock on recursion.
// Exceptions thrown by tiles are caught, the first one is rethrown on the
// submitting thread after the region completes, and remaining tiles of a
// failed region are skipped (their lane ranges are left untouched).
//
// Knob (read once per process):
//   OBX_WORKERS=N   override the worker count (default: the CPUs in this
//                   process's affinity mask — cgroup/taskset aware — via
//                   default_worker_count()).
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
/// tile tasks ran, how many of them a pool thread ran instead of the
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
    /// Threads that run a region, the submitter included: the pool spawns
    /// workers - 1 threads (none for 1).  0 = default_worker_count()
    /// (affinity-mask CPUs, OBX_WORKERS-overridable).
    unsigned workers = 0;
  };

  /// Point-in-time copy of the pool-lifetime counters (monotonic; serve
  /// Metrics renders them on the Prometheus scrape).
  struct CountersSnapshot {
    std::uint64_t tasks = 0;    ///< tile tasks executed, all regions
    std::uint64_t steals = 0;   ///< tasks a pool thread ran for another thread's region
    std::uint64_t parks = 0;    ///< pool thread went to sleep on the condvar
    std::uint64_t unparks = 0;  ///< pool-thread wakeups signalled by submitters
    /// Per pool thread (worker_count() - 1 entries; the submitter is the
    /// k-th worker and has none), time inside tasks.
    std::vector<std::uint64_t> worker_busy_ns;
  };

  CorePool() : CorePool(Config{}) {}
  explicit CorePool(Config config);
  ~CorePool();  ///< drains: waits for in-flight regions, then joins the threads
  CorePool(const CorePool&) = delete;
  CorePool& operator=(const CorePool&) = delete;

  /// Threads that run a region, the submitter included (Config::workers
  /// resolved; never 0).
  unsigned worker_count() const;

  /// Runs body(tile_begin, tile_end) over [0, count) cut into tiles of
  /// `grain` lanes (at least one; the last tile takes the ragged tail).  The
  /// calling thread and the pool threads that join execute tiles
  /// concurrently, so at most worker_count() threads in all.  max_workers is
  /// a parallelism target — the caller plus up to max_workers - 1 woken pool
  /// threads — not a hard cap (an already-awake pool thread may help any
  /// region).  max_workers <= 1, count <= grain, or a single tile run the
  /// body inline with zero scheduler involvement.  Returns after every tile
  /// completed; the first tile exception is rethrown here.
  SchedulerStats parallel_for(std::size_t count, std::size_t grain, unsigned max_workers,
                              const std::function<void(std::size_t, std::size_t)>& body);

  CountersSnapshot counters() const;

  /// The process-wide pool every executor shares (threads spawn lazily on
  /// the first parallel region, so merely planning never starts threads).
  static CorePool& instance();

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
