#include "bulk/core_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/check.hpp"
#include "common/thread_name.hpp"

namespace obx::bulk {

namespace {

/// Busy-wait budget, in cpu_relax() iterations: how long an idle worker
/// polls for a new region before it sleeps on the pool condvar, and how long
/// a submitter polls for tiles other threads still run before it sleeps.
constexpr std::size_t kSpinIterations = 2048;

/// One fork-join submission, living on the submitter's stack.  A thread may
/// touch it only while it is on the pool's open list (under the pool mutex)
/// or while that thread holds a claimed tile it has not yet retired:
/// parallel_for returns only after `unfinished` reached zero and the region
/// left the list.
struct Region {
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::size_t count = 0;
  std::size_t grain = 0;
  std::size_t tiles = 0;
  std::atomic<std::size_t> next{0};        ///< next unclaimed tile
  std::atomic<std::size_t> unfinished{0};  ///< tiles not yet retired
  std::atomic<std::uint64_t> steals{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  ///< written once, by the thread that set failed

  bool claimable() const { return next.load(std::memory_order_relaxed) < tiles; }
  bool completed() const { return unfinished.load(std::memory_order_acquire) == 0; }

  void run_tile(std::size_t tile) {
    if (failed.load(std::memory_order_acquire)) return;
    const std::size_t begin = tile * grain;
    try {
      (*body)(begin, std::min(begin + grain, count));
    } catch (...) {
      bool expected = false;
      if (failed.compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
        error = std::current_exception();
      }
    }
  }
};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

}  // namespace

// ---------------------------------------------------------------------------

struct CorePool::Impl {
  struct Worker {
    std::atomic<std::uint64_t> busy_ns{0};
    std::thread thread;
  };

  // The submitter is always one of the threads that run a region, so a pool
  // of `count` spawns count - 1: one lockstep thread per CPU, never one more.
  explicit Impl(unsigned count) : worker_count(count), workers(count - 1) {}

  const unsigned worker_count;
  std::vector<Worker> workers;  // threads start lazily, in ensure_started()
  std::once_flag start_once;

  // Guarded by `mutex`, apart from `published`, which is written under it
  // but also polled by spinning workers.
  std::mutex mutex;
  std::condition_variable work_cv;  // idle workers: region published, or shutdown
  std::condition_variable done_cv;  // submitters: a region completed; ~CorePool: list drained
  std::vector<Region*> open;        // from publication until parallel_for returns
  std::atomic<std::uint64_t> published{0};
  unsigned sleepers = 0;
  bool draining = false;
  bool shutdown = false;

  // Pool-lifetime counters.
  std::atomic<std::uint64_t> tasks_executed{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> parks{0};
  std::atomic<std::uint64_t> unparks{0};

  void ensure_started() {
    std::call_once(start_once, [this] {
      for (std::size_t i = 0; i < workers.size(); ++i) {
        workers[i].thread = std::thread([this, i] { worker_main(i); });
      }
    });
  }

  /// Claims an unclaimed tile from the oldest open region that has one.
  /// Caller holds `mutex`, which keeps every listed region alive.
  Region* claim(std::size_t& tile) {
    for (Region* r : open) {
      if (!r->claimable()) continue;
      tile = r->next.fetch_add(1, std::memory_order_relaxed);
      if (tile < r->tiles) return r;
    }
    return nullptr;
  }

  /// Runs claimed tile `tile` of `r`, then keeps claiming until the counter
  /// runs dry.  The next claim is made, and checked against r.tiles, before
  /// the current tile is retired: once this thread retires a tile without
  /// holding another claim, `r` may be gone.  Returns true when this call
  /// retired the region's last tile.
  bool run_tiles(Region& r, std::size_t tile, bool helper) {
    for (;;) {
      r.run_tile(tile);
      tasks_executed.fetch_add(1, std::memory_order_relaxed);
      if (helper) {
        steals.fetch_add(1, std::memory_order_relaxed);
        r.steals.fetch_add(1, std::memory_order_relaxed);
      }
      const std::size_t next = r.next.fetch_add(1, std::memory_order_relaxed);
      const bool more = next < r.tiles;
      if (r.unfinished.fetch_sub(1, std::memory_order_acq_rel) == 1) return true;
      if (!more) return false;
      tile = next;
    }
  }

  void worker_main(std::size_t index) {
    set_thread_name("obx-pool");
    Worker& self = workers[index];
    std::unique_lock<std::mutex> lock(mutex);
    while (!shutdown) {
      std::size_t tile = 0;
      if (Region* r = claim(tile)) {
        lock.unlock();
        const auto t0 = std::chrono::steady_clock::now();
        const bool last = run_tiles(*r, tile, /*helper=*/true);
        self.busy_ns.fetch_add(
            static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                           std::chrono::steady_clock::now() - t0)
                                           .count()),
            std::memory_order_relaxed);
        lock.lock();
        // The submitter checks completed() under this mutex before it
        // sleeps, so a notify made while holding it cannot be lost.
        if (last) done_cv.notify_all();
        continue;
      }
      // Idle: spin until the next region is published, then sleep until it
      // is.  Regions are published under the mutex this wait releases, so
      // no wakeup can slip between the check and the sleep.
      const std::uint64_t seen = published.load(std::memory_order_relaxed);
      lock.unlock();
      for (std::size_t i = 0;
           i < kSpinIterations && published.load(std::memory_order_relaxed) == seen; ++i) {
        cpu_relax();
      }
      lock.lock();
      if (published.load(std::memory_order_relaxed) == seen && !shutdown) {
        ++sleepers;
        parks.fetch_add(1, std::memory_order_relaxed);
        work_cv.wait(lock, [&] {
          return published.load(std::memory_order_relaxed) != seen || shutdown;
        });
        --sleepers;
      }
    }
  }
};

// ---------------------------------------------------------------------------

CorePool::CorePool(Config config)
    : impl_(std::make_unique<Impl>(config.workers == 0 ? default_worker_count()
                                                       : config.workers)) {}

CorePool::~CorePool() {
  Impl& impl = *impl_;
  {
    // Refuse new regions, then wait for in-flight ones: their submitters
    // still use the pool's mutex and condvars.
    std::unique_lock<std::mutex> lock(impl.mutex);
    impl.draining = true;
    impl.done_cv.wait(lock, [&] { return impl.open.empty(); });
    impl.shutdown = true;
  }
  impl.work_cv.notify_all();
  for (Impl::Worker& w : impl.workers) {
    if (w.thread.joinable()) w.thread.join();
  }
}

unsigned CorePool::worker_count() const { return impl_->worker_count; }

SchedulerStats CorePool::parallel_for(
    std::size_t count, std::size_t grain, unsigned max_workers,
    const std::function<void(std::size_t, std::size_t)>& body) {
  SchedulerStats stats;
  if (count == 0) return stats;

  // Tile grain: positive, clamped to the region.
  const std::size_t g = std::clamp<std::size_t>(grain, 1, count);
  const std::size_t tiles = (count + g - 1) / g;

  const unsigned used = static_cast<unsigned>(
      std::min<std::size_t>(std::max(1u, max_workers), tiles));
  if (used == 1) {
    body(0, count);
    stats.tasks = 1;
    return stats;
  }

  Impl& impl = *impl_;
  impl.ensure_started();

  Region region;
  region.body = &body;
  region.count = count;
  region.grain = g;
  region.tiles = tiles;
  region.unfinished.store(tiles, std::memory_order_relaxed);

  unsigned wake = 0;
  {
    std::lock_guard<std::mutex> lock(impl.mutex);
    OBX_CHECK(!impl.draining, "CorePool is shutting down");
    impl.open.push_back(&region);
    impl.published.fetch_add(1, std::memory_order_relaxed);
    wake = std::min(used - 1, impl.sleepers);
  }
  impl.unparks.fetch_add(wake, std::memory_order_relaxed);
  for (unsigned i = 0; i < wake; ++i) impl.work_cv.notify_one();

  // Participate until the counter runs dry, then wait for the tiles other
  // threads claimed: a short spin, then sleep on done_cv until the helper
  // that retires the last tile notifies it.
  const std::size_t first = region.next.fetch_add(1, std::memory_order_relaxed);
  if (first < tiles) impl.run_tiles(region, first, /*helper=*/false);
  for (std::size_t i = 0; i < kSpinIterations && !region.completed(); ++i) cpu_relax();
  {
    std::unique_lock<std::mutex> lock(impl.mutex);
    if (!region.completed()) {
      ++stats.parks;
      impl.done_cv.wait(lock, [&] { return region.completed(); });
    }
    impl.open.erase(std::find(impl.open.begin(), impl.open.end(), &region));
    if (impl.draining && impl.open.empty()) impl.done_cv.notify_all();
  }

  stats.tasks = tiles;
  stats.steals = region.steals.load(std::memory_order_relaxed);
  if (region.error != nullptr) std::rethrow_exception(region.error);
  return stats;
}

CorePool::CountersSnapshot CorePool::counters() const {
  const Impl& impl = *impl_;
  CountersSnapshot snap;
  snap.tasks = impl.tasks_executed.load(std::memory_order_relaxed);
  snap.steals = impl.steals.load(std::memory_order_relaxed);
  snap.parks = impl.parks.load(std::memory_order_relaxed);
  snap.unparks = impl.unparks.load(std::memory_order_relaxed);
  snap.worker_busy_ns.reserve(impl.workers.size());
  for (const Impl::Worker& w : impl.workers) {
    snap.worker_busy_ns.push_back(w.busy_ns.load(std::memory_order_relaxed));
  }
  return snap;
}

CorePool& CorePool::instance() {
  // Function-local static: destroyed at exit after main's executors, joining
  // the workers so LeakSanitizer sees a clean shutdown.
  static CorePool pool;
  return pool;
}

unsigned default_worker_count() {
  // Latched once: the shared pool sizes itself from this, so a mid-process
  // env change must not make plans and pool topology disagree.
  static const unsigned count = [] {
    if (const char* env = std::getenv("OBX_WORKERS")) {
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && v >= 1) {
        return static_cast<unsigned>(std::min<long>(v, 1024));
      }
    }
    unsigned n = 0;
#if defined(__linux__)
    // The CPUs this process may actually run on (taskset / cgroup cpusets),
    // not the machine total: oversubscribing a container quota just adds
    // context switches.
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      n = static_cast<unsigned>(CPU_COUNT(&set));
    }
#endif
    if (n == 0) n = std::thread::hardware_concurrency();
    return std::max(1u, n);
  }();
  return count;
}

std::size_t chunk_grain(std::size_t count, unsigned workers) {
  return std::max<std::size_t>(count / (std::size_t{std::max(1u, workers)} * 4), 1);
}

}  // namespace obx::bulk
