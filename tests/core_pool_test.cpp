// Stress suite for the thread-per-core scheduler (bulk::CorePool):
// concurrent submitters, workers helping under skewed tile costs, nested
// submission from inside a task, clean shutdown with tasks queued, exception
// semantics, and bit-identical executor output across worker counts for the
// whole algorithm registry × SIMD tiers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "algos/algorithm.hpp"
#include "bulk/core_pool.hpp"
#include "bulk/host_executor.hpp"
#include "common/rng.hpp"
#include "common/simd_isa.hpp"
#include "engine_plan.hpp"
#include "exec/backend.hpp"

namespace {

using namespace obx;
using namespace obx::bulk;

/// Burns roughly `iters` of CPU without sleeping (sleeps would let every
/// thread interleave trivially and hide scheduling bugs).
void busy_work(std::size_t iters) {
  volatile std::uint64_t sink = 0;
  for (std::size_t i = 0; i < iters; ++i) sink = sink + i;
}

/// Polls `done` until it holds or 30 s pass; false on timeout.  The deadline
/// only turns a scheduler hang into a test failure — no verdict depends on it.
template <typename Pred>
bool wait_until(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(CorePool, CoversRangeExactlyOnce) {
  CorePool pool(CorePool::Config{.workers = 4});
  constexpr std::size_t kCount = 10007;
  std::vector<std::atomic<int>> hits(kCount);
  const SchedulerStats stats =
      pool.parallel_for(kCount, 16, 4, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "lane " << i;
  }
  EXPECT_EQ(stats.tasks, (kCount + 15) / 16);
}

TEST(CorePool, CoversRangeExactlyOnceForEveryWorkerCount) {
  for (const unsigned workers : {1u, 3u, 8u}) {
    CorePool pool(CorePool::Config{.workers = workers});
    for (const unsigned max_workers : {1u, 2u, 8u}) {
      std::vector<std::atomic<int>> hits(100);
      pool.parallel_for(hits.size(), 1, max_workers, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < hits.size(); ++i) {
        ASSERT_EQ(hits[i].load(), 1) << workers << " workers, max " << max_workers << ", lane " << i;
      }
    }
  }
}

TEST(CorePool, RaggedTailIsTheOnlyPartialTile) {
  // count 10 is not a multiple of grain 6: the tiles are [0, 6) and the
  // ragged tail [6, 10).
  CorePool pool(CorePool::Config{.workers = 2});
  std::mutex mu;
  std::set<std::pair<std::size_t, std::size_t>> tiles;
  const SchedulerStats stats =
      pool.parallel_for(10, 6, 2, [&](std::size_t begin, std::size_t end) {
        std::lock_guard<std::mutex> lock(mu);
        tiles.emplace(begin, end);
      });
  const std::set<std::pair<std::size_t, std::size_t>> expected{{0, 6}, {6, 10}};
  EXPECT_EQ(tiles, expected);
  EXPECT_EQ(stats.tasks, 2u);
}

TEST(CorePool, SingleTileRunsInline) {
  // count <= grain makes a single tile: it runs on the caller without
  // starting the workers.
  CorePool pool(CorePool::Config{.workers = 4});
  const std::thread::id caller = std::this_thread::get_id();
  struct Case {
    std::size_t count, grain;
  };
  for (const Case c : {Case{100, 100}, Case{100, 500}}) {
    std::size_t calls = 0;
    const SchedulerStats stats =
        pool.parallel_for(c.count, c.grain, 4, [&](std::size_t begin, std::size_t end) {
          EXPECT_EQ(std::this_thread::get_id(), caller);
          EXPECT_EQ(begin, 0u);
          EXPECT_EQ(end, c.count);
          ++calls;
        });
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(stats.tasks, 1u);
    EXPECT_EQ(stats.steals, 0u);
  }
  EXPECT_EQ(pool.counters().tasks, 0u);
}

TEST(CorePool, StealsCountExactlyTheTilesRunOffTheSubmitter) {
  CorePool pool(CorePool::Config{.workers = 3});
  constexpr std::size_t kTiles = 256;
  const std::thread::id submitter = std::this_thread::get_id();
  std::vector<std::atomic<bool>> off_submitter(kTiles);
  const SchedulerStats stats =
      pool.parallel_for(kTiles, 1, 4, [&](std::size_t begin, std::size_t) {
        busy_work(2000);
        off_submitter[begin].store(std::this_thread::get_id() != submitter,
                                   std::memory_order_relaxed);
      });
  std::uint64_t off = 0;
  for (const auto& o : off_submitter) off += o.load(std::memory_order_relaxed) ? 1u : 0u;
  EXPECT_EQ(stats.tasks, kTiles);
  EXPECT_EQ(stats.steals, off);
  // A fresh pool's lifetime counters are this one region's.
  const CorePool::CountersSnapshot c = pool.counters();
  EXPECT_EQ(c.tasks, kTiles);
  EXPECT_EQ(c.steals, off);
}

TEST(CorePool, ErrorThrownOnAWorkerIsRethrownOnTheSubmitter) {
  CorePool pool(CorePool::Config{.workers = 2});
  const std::thread::id submitter = std::this_thread::get_id();
  std::atomic<bool> worker_threw{false};
  bool gate_timed_out = false;
  try {
    pool.parallel_for(64, 1, 3, [&](std::size_t begin, std::size_t) {
      if (std::this_thread::get_id() != submitter) {
        worker_threw.store(true, std::memory_order_release);
        throw std::runtime_error("worker tile failed");
      }
      // Only workers throw: the submitter's first tile holds the region open
      // until one of them has.
      if (begin == 0) {
        gate_timed_out = !wait_until([&] { return worker_threw.load(std::memory_order_acquire); });
      }
    });
    FAIL() << "expected the worker's exception to be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "worker tile failed");
  }
  EXPECT_FALSE(gate_timed_out);
}

TEST(CorePool, WakesASleepingWorkerForEveryNewRegion) {
  // One worker.  Before each region the test waits until the worker sleeps
  // on the pool condvar; the region then cannot finish its first tile until
  // the worker has run another one.  A lost wakeup leaves the worker asleep
  // and the gate times out.
  CorePool pool(CorePool::Config{.workers = 1});
  pool.parallel_for(2, 1, 2, [](std::size_t, std::size_t) {});  // starts the worker
  // Every park but the current one was ended by exactly one region published
  // while the worker slept, each counted in `unparks`; so, with this test the
  // only submitter, the worker is asleep iff parks > unparks.
  const auto asleep = [&] {
    const CorePool::CountersSnapshot c = pool.counters();
    return c.parks > c.unparks;
  };
  const std::uint64_t unparks_before = pool.counters().unparks;
  const std::thread::id submitter = std::this_thread::get_id();
  constexpr int kRounds = 20;
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_TRUE(wait_until(asleep)) << "round " << round << ": worker never went to sleep";
    std::atomic<bool> helped{false};
    bool gate_timed_out = false;
    pool.parallel_for(4, 1, 2, [&](std::size_t begin, std::size_t) {
      if (std::this_thread::get_id() != submitter) helped.store(true, std::memory_order_release);
      if (begin == 0) {
        gate_timed_out = !wait_until([&] { return helped.load(std::memory_order_acquire); });
      }
    });
    ASSERT_FALSE(gate_timed_out) << "round " << round << ": the sleeping worker was not woken";
  }
  EXPECT_EQ(pool.counters().unparks - unparks_before, static_cast<std::uint64_t>(kRounds));
}

TEST(CorePool, ConcurrentSubmittersEachCoverTheirOwnRange) {
  CorePool pool(CorePool::Config{.workers = 4});
  constexpr std::size_t kSubmitters = 6;
  constexpr std::size_t kCount = 4096;
  std::vector<std::vector<std::atomic<int>>> hits(kSubmitters);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kCount);
  std::vector<std::thread> submitters;
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int round = 0; round < 8; ++round) {
        pool.parallel_for(kCount, 64, 4, [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            hits[s][i].fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
    });
  }
  for (auto& t : submitters) t.join();
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[s][i].load(), 8) << "submitter " << s << " lane " << i;
    }
  }
}

TEST(CorePool, StealsUnderSkewedTileCosts) {
  CorePool pool(CorePool::Config{.workers = 4});
  // 512 one-lane tiles with wildly skewed costs: a static partition would
  // leave the expensive tail on one thread; woken workers must claim tiles
  // off the region's counter and spread it.
  constexpr std::size_t kTiles = 512;
  std::vector<std::atomic<int>> hits(kTiles);
  // Gate, so the verdict does not depend on host load: tile 0 does not
  // finish until some tile has run on a thread other than the submitter.
  // Had the submitter kept every tile to itself, it would wait here forever.
  const std::thread::id submitter = std::this_thread::get_id();
  std::atomic<bool> helped{false};
  const SchedulerStats stats =
      pool.parallel_for(kTiles, 1, 4, [&](std::size_t begin, std::size_t end) {
        if (std::this_thread::get_id() != submitter) {
          helped.store(true, std::memory_order_release);
        }
        if (begin == 0) {
          while (!helped.load(std::memory_order_acquire)) std::this_thread::yield();
        }
        for (std::size_t i = begin; i < end; ++i) {
          busy_work((i % 64) * 300);
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      });
  for (std::size_t i = 0; i < kTiles; ++i) ASSERT_EQ(hits[i].load(), 1);
  EXPECT_EQ(stats.tasks, kTiles);
  EXPECT_GT(stats.steals, 0u);
  EXPECT_GT(pool.counters().steals, 0u);
}

TEST(CorePool, NestedSubmissionFromInsideATask) {
  CorePool pool(CorePool::Config{.workers = 3});
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 256;
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(kOuter, 1, 3, [&](std::size_t begin, std::size_t end) {
    for (std::size_t o = begin; o < end; ++o) {
      // A worker (or the caller) submitting from inside a task must drain
      // its own deque rather than deadlock waiting on itself.
      pool.parallel_for(kInner, 32, 3, [&](std::size_t b2, std::size_t e2) {
        sum.fetch_add(e2 - b2, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(sum.load(), kOuter * kInner);
}

TEST(CorePool, CleanShutdownWaitsForQueuedTasks) {
  std::vector<std::atomic<int>> hits(64);
  std::atomic<bool> region_started{false};
  std::atomic<bool> submitted{false};
  auto* pool = new CorePool(CorePool::Config{.workers = 2});
  std::thread submitter([&] {
    pool->parallel_for(hits.size(), 1, 3, [&](std::size_t begin, std::size_t end) {
      region_started.store(true, std::memory_order_release);
      for (std::size_t i = begin; i < end; ++i) {
        busy_work(20000);
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    submitted.store(true, std::memory_order_release);
  });
  // Destroy the pool while the region is in flight (first tile has started,
  // the rest are still queued): the destructor must wait for every queued
  // tile, not abandon them.
  while (!region_started.load(std::memory_order_acquire)) std::this_thread::yield();
  delete pool;
  submitter.join();
  EXPECT_TRUE(submitted.load(std::memory_order_acquire));
  for (std::size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(CorePool, FirstErrorRethrownAndRemainingTilesSkipped) {
  CorePool pool(CorePool::Config{.workers = 4});
  std::atomic<int> executed{0};
  try {
    pool.parallel_for(256, 1, 4, [&](std::size_t begin, std::size_t) {
      executed.fetch_add(1, std::memory_order_relaxed);
      if (begin % 3 == 0) throw std::runtime_error("tile failed");
    });
    FAIL() << "expected the tile exception to be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "tile failed");
  }
  // At least the throwing tile ran; tiles observed after the failure flag
  // was set are skipped, so a failed region finishes quickly.
  EXPECT_GE(executed.load(), 1);
  EXPECT_LE(executed.load(), 256);
}

TEST(CorePool, NestedErrorDoesNotPoisonOuterRegion) {
  CorePool pool(CorePool::Config{.workers = 3});
  std::atomic<int> outer_done{0};
  std::atomic<int> inner_throws{0};
  pool.parallel_for(8, 1, 3, [&](std::size_t, std::size_t) {
    try {
      pool.parallel_for(8, 1, 3, [&](std::size_t b, std::size_t) {
        if (b == 0) throw std::runtime_error("inner");
      });
    } catch (const std::runtime_error&) {
      inner_throws.fetch_add(1, std::memory_order_relaxed);
    }
    outer_done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(outer_done.load(), 8);
  EXPECT_EQ(inner_throws.load(), 8);
}

TEST(CorePool, SingleWorkerRunsInlineWithoutTouchingThePool) {
  CorePool pool(CorePool::Config{.workers = 4});
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t calls = 0;
  const SchedulerStats stats =
      pool.parallel_for(1000, 10, 1, [&](std::size_t begin, std::size_t end) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 1000u);
        ++calls;
      });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(stats.tasks, 1u);
  EXPECT_EQ(stats.steals, 0u);
  // Inline regions never start the workers, so the pool stays cold.
  EXPECT_EQ(pool.counters().tasks, 0u);
}

TEST(CorePool, CountersTrackWorkAndTopology) {
  CorePool pool(CorePool::Config{.workers = 2});
  EXPECT_EQ(pool.worker_count(), 2u);
  EXPECT_EQ(pool.counters().worker_busy_ns.size(), 2u);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(1024, 8, 2, [&](std::size_t begin, std::size_t end) {
    sum.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 1024u);
  const CorePool::CountersSnapshot c = pool.counters();
  EXPECT_EQ(c.tasks, 1024u / 8);
  EXPECT_EQ(c.worker_busy_ns.size(), 2u);
}

TEST(CorePool, ZeroCountIsNoop) {
  CorePool pool(CorePool::Config{.workers = 4});
  bool called = false;
  const SchedulerStats stats =
      pool.parallel_for(0, 1, 4, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
  EXPECT_EQ(stats.tasks, 0u);
}

TEST(CorePool, MoreWorkersRequestedThanTilesIsFine) {
  CorePool pool(CorePool::Config{.workers = 2});
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(3, 1, 64, [&](std::size_t begin, std::size_t end) {
    sum.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 3u);
}

TEST(CorePool, ManyShortLivedExternalSubmitters) {
  // Region-list churn: every submission from a fresh thread publishes a
  // stack-allocated region and takes it off the list again; no worker may
  // touch a region after its submitter returned.
  CorePool pool(CorePool::Config{.workers = 2});
  std::atomic<std::size_t> sum{0};
  for (int round = 0; round < 10; ++round) {
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
      threads.emplace_back([&] {
        pool.parallel_for(64, 4, 3, [&](std::size_t begin, std::size_t end) {
          sum.fetch_add(end - begin, std::memory_order_relaxed);
        });
      });
    }
    for (auto& th : threads) th.join();
  }
  EXPECT_EQ(sum.load(), 10u * 8u * 64u);
}

/// Bit-identical output across worker counts: the scheduler may reorder and
/// steal tiles, but every lane's result (and every lane's final memory) must
/// match the workers = 1 inline run exactly — for every registry algorithm
/// and the scalar + widest SIMD tiers, through the shared process-wide pool.
TEST(CorePoolEquivalence, BitIdenticalAcrossWorkerCountsEverywhere) {
  const std::size_t p = 65;  // ragged against every tile and vector width
  std::vector<SimdIsa> tiers{SimdIsa::kScalar};
  if (detect_simd_isa() != SimdIsa::kScalar) tiers.push_back(detect_simd_isa());

  for (const algos::Algorithm& algo : algos::registry()) {
    const std::size_t n = algo.test_sizes.front();
    const trace::Program program = algo.make_program(n);
    Rng rng(0xC0DEu ^ n);
    std::vector<Word> inputs;
    for (std::size_t j = 0; j < p; ++j) {
      const auto one = algo.make_input(n, rng);
      inputs.insert(inputs.end(), one.begin(), one.end());
    }
    for (const SimdIsa isa : tiers) {
      const HostBulkExecutor serial(*test::engine_plan(program, {.workers = 1, .simd = isa}),
                                    p);
      const HostBulkExecutor pooled(*test::engine_plan(program, {.workers = 4, .simd = isa}),
                                    p);
      const HostRunResult a = serial.run(program, inputs);
      const HostRunResult b = pooled.run(program, inputs);
      ASSERT_EQ(a.backend, b.backend);
      ASSERT_EQ(a.memory, b.memory) << algo.name << " tier " << to_string(isa);
      EXPECT_EQ(a.counts.total(), b.counts.total()) << algo.name;
      EXPECT_EQ(serial.gather_outputs(program, a.memory),
                pooled.gather_outputs(program, b.memory))
          << algo.name;
    }
  }
}

TEST(CorePoolDefaults, DefaultWorkerCountIsPositiveAndAffinityBounded) {
  const unsigned n = default_worker_count();
  EXPECT_GE(n, 1u);
  // Latched: repeated calls agree (the pool sizes itself from this).
  EXPECT_EQ(default_worker_count(), n);
  EXPECT_LE(n, 1024u);
}

TEST(CorePoolDefaults, ZeroWorkersMeansDefaultWorkerCount) {
  const CorePool pool(CorePool::Config{.workers = 0});
  EXPECT_EQ(pool.worker_count(), default_worker_count());
  EXPECT_EQ(pool.counters().worker_busy_ns.size(), default_worker_count());
  EXPECT_EQ(CorePool::instance().worker_count(), default_worker_count());
  // Pinning is no longer configurable: every pool follows the platform policy.
  EXPECT_EQ(pool.pinning(), CorePool::pinning_enabled());
  EXPECT_EQ(pool.counters().pinned, CorePool::pinning_enabled());
}

TEST(CorePoolDefaults, ChunkGrainGivesFourToEightTilesPerWorker) {
  for (const unsigned workers : {1u, 2u, 3u, 4u, 7u}) {
    const std::size_t count = 4096;
    const std::size_t grain = chunk_grain(count, workers);
    ASSERT_GT(grain, 0u);
    const std::size_t tiles = (count + grain - 1) / grain;
    EXPECT_GE(tiles, 4u * workers) << "workers " << workers;
    EXPECT_LE(tiles, 8u * workers) << "workers " << workers;
  }
  // Fewer lanes than tiles still give a positive grain; workers 0 is read
  // as 1.
  EXPECT_EQ(chunk_grain(10, 4), 1u);
  EXPECT_EQ(chunk_grain(0, 4), 1u);
  EXPECT_EQ(chunk_grain(100, 0), 25u);
}

}  // namespace
