// The batching bulk-execution service: deterministic unit tests for the
// batcher's flush triggers, each backpressure policy, metrics, and a small
// end-to-end correctness pass.  (The multi-producer torture run lives in
// serve_stress_test.cpp.)
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "algos/algorithm.hpp"
#include "bulk/bulk.hpp"
#include "common/rng.hpp"
#include "serve/admission_queue.hpp"
#include "serve/batcher.hpp"
#include "serve/load_gen.hpp"
#include "serve/metrics.hpp"
#include "serve/program_cache.hpp"
#include "serve/service.hpp"
#include "umm/machine_config.hpp"

namespace {

using namespace obx;
using namespace obx::serve;
using namespace std::chrono_literals;

Job make_job(const std::string& program, Clock::time_point enqueue,
             std::optional<Clock::time_point> deadline = std::nullopt) {
  Job job;
  job.program_id = program;
  job.enqueue_time = enqueue;
  job.deadline = deadline;
  return job;
}

// ---------------------------------------------------------------------------
// Batcher: pure state machine, driven with an explicit clock.

TEST(Batcher, FlushesWhenBatchReachesMaxLanes) {
  Batcher batcher(BatcherOptions{.max_batch_lanes = 3, .max_batch_delay = 1h});
  const auto t0 = Clock::time_point{};
  batcher.add(make_job("a", t0), t0);
  batcher.add(make_job("a", t0), t0);
  EXPECT_TRUE(batcher.take_ready(t0).empty());  // 2 < 3, delay far away
  batcher.add(make_job("a", t0), t0);
  const auto batches = batcher.take_ready(t0);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].jobs.size(), 3u);
  EXPECT_EQ(batches[0].reason, FlushReason::kSize);
  EXPECT_EQ(batcher.pending_jobs(), 0u);
}

TEST(Batcher, FlushesWhenDelayExpires) {
  Batcher batcher(BatcherOptions{.max_batch_lanes = 100, .max_batch_delay = 10ms});
  const auto t0 = Clock::time_point{};
  batcher.add(make_job("a", t0), t0);
  batcher.add(make_job("a", t0), t0 + 2ms);

  const auto due = batcher.next_due();
  ASSERT_TRUE(due.has_value());
  EXPECT_EQ(*due, t0 + 10ms);  // delay runs from the group opening, not add

  EXPECT_TRUE(batcher.take_ready(t0 + 9ms).empty());
  const auto batches = batcher.take_ready(t0 + 10ms);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].jobs.size(), 2u);
  EXPECT_EQ(batches[0].reason, FlushReason::kDelay);
}

TEST(Batcher, FlushesEarlyForTightDeadline) {
  Batcher batcher(BatcherOptions{
      .max_batch_lanes = 100, .max_batch_delay = 50ms, .deadline_slack = 1ms});
  const auto t0 = Clock::time_point{};
  batcher.add(make_job("a", t0), t0);
  batcher.add(make_job("a", t0, t0 + 5ms), t0);  // tight deadline joins the group

  const auto due = batcher.next_due();
  ASSERT_TRUE(due.has_value());
  EXPECT_EQ(*due, t0 + 4ms);  // deadline - slack, well before the 50ms delay

  EXPECT_TRUE(batcher.take_ready(t0 + 3ms).empty());
  const auto batches = batcher.take_ready(t0 + 4ms);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].jobs.size(), 2u);
  EXPECT_EQ(batches[0].reason, FlushReason::kDeadline);
}

TEST(Batcher, GroupsByProgramId) {
  Batcher batcher(BatcherOptions{.max_batch_lanes = 2, .max_batch_delay = 1h});
  const auto t0 = Clock::time_point{};
  batcher.add(make_job("a", t0), t0);
  batcher.add(make_job("b", t0), t0);
  EXPECT_TRUE(batcher.take_ready(t0).empty());  // neither group is full
  batcher.add(make_job("a", t0), t0);
  auto batches = batcher.take_ready(t0);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].program_id, "a");

  batches = batcher.drain();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].program_id, "b");
  EXPECT_EQ(batches[0].reason, FlushReason::kDrain);
}

TEST(Batcher, NeverMixesInputLengthsInOneGroup) {
  // Regression (PR 11): the group key is (program id, input length).  With
  // variable-length sessions registered under one family, two jobs whose
  // inputs differ in length must never coalesce — a batch scatters every
  // lane with a single program's input_words, so a mixed batch would
  // over- or under-fill lanes.
  Batcher batcher(BatcherOptions{.max_batch_lanes = 2, .max_batch_delay = 1h});
  const auto t0 = Clock::time_point{};
  auto sized_job = [&](std::size_t words) {
    Job job = make_job("merge", t0);
    job.input.assign(words, Word{0});
    return job;
  };
  batcher.add(sized_job(6), t0);
  batcher.add(sized_job(10), t0);
  EXPECT_TRUE(batcher.take_ready(t0).empty());  // distinct groups, neither full
  EXPECT_EQ(batcher.pending_jobs(), 2u);
  batcher.add(sized_job(6), t0);  // completes the 6-word group only
  auto batches = batcher.take_ready(t0);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].jobs.size(), 2u);
  for (const Job& job : batches[0].jobs) EXPECT_EQ(job.input.size(), 6u);

  batches = batcher.drain();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].jobs.size(), 1u);
  EXPECT_EQ(batches[0].jobs[0].input.size(), 10u);
}

TEST(Batcher, DelayWindowReopensPerGroup) {
  Batcher batcher(BatcherOptions{.max_batch_lanes = 100, .max_batch_delay = 10ms});
  const auto t0 = Clock::time_point{};
  batcher.add(make_job("a", t0), t0);
  ASSERT_EQ(batcher.take_ready(t0 + 10ms).size(), 1u);
  EXPECT_FALSE(batcher.next_due().has_value());  // nothing pending

  // A later job opens a fresh window measured from its own arrival.
  batcher.add(make_job("a", t0 + 30ms), t0 + 30ms);
  const auto due = batcher.next_due();
  ASSERT_TRUE(due.has_value());
  EXPECT_EQ(*due, t0 + 40ms);
}

TEST(Batcher, ZeroDelayIsDueImmediately) {
  Batcher batcher(BatcherOptions{.max_batch_lanes = 100,
                                 .max_batch_delay = Clock::duration::zero()});
  const auto t0 = Clock::time_point{};
  batcher.add(make_job("a", t0), t0);
  const auto batches = batcher.take_ready(t0);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].jobs.size(), 1u);
}

TEST(Batcher, Validation) {
  EXPECT_THROW(Batcher(BatcherOptions{.max_batch_lanes = 0}), std::logic_error);
  EXPECT_THROW(Batcher(BatcherOptions{.max_batch_delay = -1ms}), std::logic_error);
  EXPECT_THROW(Batcher(BatcherOptions{.deadline_slack = -1ms}), std::logic_error);
}

TEST(Batcher, DeadlineNearTimePointMinSaturatesInsteadOfWrapping) {
  // deadline - deadline_slack on a deadline near Clock::time_point::min()
  // would underflow the signed tick count (UB, and a due time in the far
  // future); the saturating rule clamps to min(), i.e. "already due".
  Batcher batcher(BatcherOptions{.max_batch_lanes = 100,
                                 .max_batch_delay = 1h,
                                 .deadline_slack = 10min});
  const auto t0 = Clock::time_point{};
  batcher.add(make_job("a", t0, Clock::time_point::min() + 1ms), t0);

  const auto due = batcher.next_due();
  ASSERT_TRUE(due.has_value());
  EXPECT_LE(*due, t0);  // not 292 years from now

  const auto batches = batcher.take_ready(t0);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].reason, FlushReason::kDeadline);
}

// ---------------------------------------------------------------------------
// Admission queue: one deterministic test per backpressure policy.

TEST(AdmissionQueue, RejectPolicyFailsFastWhenFull) {
  AdmissionQueue queue(2, OverflowPolicy::kReject);
  EXPECT_EQ(queue.push(make_job("a", {})), AdmissionQueue::PushResult::kAccepted);
  EXPECT_EQ(queue.push(make_job("a", {})), AdmissionQueue::PushResult::kAccepted);
  EXPECT_EQ(queue.push(make_job("a", {})), AdmissionQueue::PushResult::kRejected);
  EXPECT_EQ(queue.depth(), 2u);

  Job out;
  EXPECT_EQ(queue.pop(out), AdmissionQueue::PopResult::kJob);
  EXPECT_EQ(queue.push(make_job("a", {})), AdmissionQueue::PushResult::kAccepted);
}

TEST(AdmissionQueue, ShedOldestEvictsTheOldestJob) {
  AdmissionQueue queue(2, OverflowPolicy::kShedOldest);
  Job first = make_job("a", {});
  first.id = 1;
  Job second = make_job("a", {});
  second.id = 2;
  Job third = make_job("a", {});
  third.id = 3;
  ASSERT_EQ(queue.push(std::move(first)), AdmissionQueue::PushResult::kAccepted);
  ASSERT_EQ(queue.push(std::move(second)), AdmissionQueue::PushResult::kAccepted);

  std::optional<Job> shed;
  EXPECT_EQ(queue.push(std::move(third), &shed), AdmissionQueue::PushResult::kAccepted);
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->id, 1u);  // oldest evicted
  EXPECT_EQ(queue.depth(), 2u);

  Job out;
  ASSERT_EQ(queue.pop(out), AdmissionQueue::PopResult::kJob);
  EXPECT_EQ(out.id, 2u);
  ASSERT_EQ(queue.pop(out), AdmissionQueue::PopResult::kJob);
  EXPECT_EQ(out.id, 3u);
}

TEST(AdmissionQueue, ShedWithoutOutParamResolvesTheEvictedFuture) {
  // Callers that don't collect the victim (shed == nullptr) must still leave
  // the evicted job's future resolved — a silently destroyed promise shows
  // up at the submitter as broken_promise.
  AdmissionQueue queue(1, OverflowPolicy::kShedOldest);
  Job first = make_job("a", Clock::now());
  std::future<JobResult> evicted = first.promise.get_future();
  ASSERT_EQ(queue.push(std::move(first)), AdmissionQueue::PushResult::kAccepted);
  ASSERT_EQ(queue.push(make_job("a", Clock::now())),
            AdmissionQueue::PushResult::kAccepted);  // default shed = nullptr

  ASSERT_EQ(evicted.wait_for(0s), std::future_status::ready);
  const JobResult result = evicted.get();
  EXPECT_EQ(result.status, JobStatus::kShed);
  EXPECT_GE(result.latency.count(), 0);
  EXPECT_EQ(queue.depth(), 1u);
}

TEST(AdmissionQueue, BlockPolicyWaitsForRoom) {
  AdmissionQueue queue(1, OverflowPolicy::kBlock);
  ASSERT_EQ(queue.push(make_job("a", {})), AdmissionQueue::PushResult::kAccepted);

  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_EQ(queue.push(make_job("a", {})), AdmissionQueue::PushResult::kAccepted);
    pushed.store(true);
  });
  // The producer must be blocked until we make room.
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(pushed.load());
  Job out;
  ASSERT_EQ(queue.pop(out), AdmissionQueue::PopResult::kJob);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(queue.depth(), 1u);
}

TEST(AdmissionQueue, PopUntilTimesOutAndCloseDrains) {
  AdmissionQueue queue(4, OverflowPolicy::kBlock);
  Job out;
  EXPECT_EQ(queue.pop_until(out, Clock::now() + 5ms),
            AdmissionQueue::PopResult::kTimeout);

  ASSERT_EQ(queue.push(make_job("a", {})), AdmissionQueue::PushResult::kAccepted);
  queue.close();
  EXPECT_EQ(queue.push(make_job("a", {})), AdmissionQueue::PushResult::kRejected);
  EXPECT_EQ(queue.pop(out), AdmissionQueue::PopResult::kJob);  // drains first
  EXPECT_EQ(queue.pop(out), AdmissionQueue::PopResult::kClosed);
}

// ---------------------------------------------------------------------------
// Metrics.

TEST(Metrics, HistogramTracksMomentsAndQuantiles) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 5050u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  // Log2 buckets: quantiles land on a power-of-two upper bound >= the exact
  // value and never exceed the max.
  EXPECT_GE(h.quantile(0.5), 50u);
  EXPECT_LE(h.quantile(0.5), 100u);
  EXPECT_EQ(h.quantile(1.0), 100u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(Metrics, HistogramEdgeCases) {
  Histogram h;
  // Empty: any q — including out-of-range and NaN — reads 0, not a crash.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(1.0), 0u);
  EXPECT_EQ(h.quantile(-3.0), 0u);
  EXPECT_EQ(h.quantile(7.0), 0u);
  EXPECT_EQ(h.quantile(nan), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);

  // A zero sample is a real sample, not "empty".
  h.record(0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);

  // The extreme value lands in the last bucket and survives min/max.
  h.record(~std::uint64_t{0});
  EXPECT_EQ(h.max(), ~std::uint64_t{0});
  EXPECT_EQ(h.quantile(1.0), ~std::uint64_t{0});
  EXPECT_EQ(h.min(), 0u);

  // NaN / out-of-range q clamp to the [0, 1] endpoints.
  EXPECT_EQ(h.quantile(nan), h.quantile(0.0));
  EXPECT_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_EQ(h.quantile(2.0), h.quantile(1.0));

  // A lone UINT64_MAX sample after reset: min_'s empty sentinel equals the
  // sample, which must read as the sample, with min() == max().
  h.reset();
  h.record(~std::uint64_t{0});
  EXPECT_EQ(h.min(), ~std::uint64_t{0});
  EXPECT_EQ(h.max(), ~std::uint64_t{0});
  EXPECT_LE(h.min(), h.max());
}

TEST(Metrics, HistogramSurvivesAResetRecordRace) {
  // reset() racing record() can tear the (min_, max_) pair; min() clamps the
  // torn window so a single read never observes min > max.  This exercises
  // the race under TSan/ASan; the invariant is asserted on the quiesced
  // histogram (two separate loads can legitimately straddle a reset).
  Histogram h;
  std::atomic<bool> stop{false};
  std::thread resetter([&] {
    while (!stop.load(std::memory_order_relaxed)) h.reset();
  });
  for (std::uint64_t i = 0; i < 20000; ++i) {
    h.record(i % 1000 + 1);
    (void)h.min();
    (void)h.max();
  }
  stop.store(true);
  resetter.join();
  h.record(5);
  EXPECT_LE(h.min(), h.max());
  EXPECT_GE(h.count(), 1u);
}

TEST(Metrics, SnapshotRendersAllSections) {
  Metrics metrics;
  metrics.submitted.store(7);
  metrics.completed.store(5);
  metrics.shed.store(2);
  metrics.batch_occupancy.record(5);
  const std::string text = metrics.snapshot().to_string();
  EXPECT_NE(text.find("submitted=7"), std::string::npos);
  EXPECT_NE(text.find("shed=2"), std::string::npos);
  EXPECT_NE(text.find("occupancy mean=5"), std::string::npos);
  EXPECT_NE(text.find("flushes"), std::string::npos);
  EXPECT_NE(text.find("simulated"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Service end-to-end (small, single-threaded producers).

TEST(BulkService, ExecutesJobsBitIdenticalToDirectBulkRun) {
  const algos::Algorithm& algo = algos::find("prefix-sums");
  const std::size_t n = 32;
  const trace::Program program = algo.make_program(n);

  ServiceOptions options;
  options.batcher.max_batch_lanes = 4;
  options.batcher.max_batch_delay = 1ms;
  BulkService service(options);
  service.register_program("ps", algo.make_program(n));

  Rng rng(7);
  std::vector<std::vector<Word>> inputs;
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 10; ++i) {
    inputs.push_back(algo.make_input(n, rng));
    futures.push_back(service.submit("ps", inputs.back()));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const JobResult r = futures[i].get();
    ASSERT_EQ(r.status, JobStatus::kCompleted);
    const bulk::BulkOutputs direct = bulk::run_bulk(program, inputs[i], 1);
    EXPECT_EQ(r.output, direct.flat) << "job " << i;
    EXPECT_GE(r.batch_lanes, 1u);
    EXPECT_GE(r.latency.count(), 0);
  }
  service.stop();
  const MetricsSnapshot snap = service.snapshot();
  EXPECT_EQ(snap.submitted, 10u);
  EXPECT_EQ(snap.completed, 10u);
  EXPECT_EQ(snap.rejected + snap.shed, 0u);
  EXPECT_GE(snap.batches, 3u);  // 10 jobs, <= 4 lanes per batch
  EXPECT_GT(snap.mean_batch_sim_units, 0.0);
}

TEST(BulkService, ExpiredDeadlineIsDeliveredButFlagged) {
  const algos::Algorithm& algo = algos::find("horner");
  ServiceOptions options;
  options.batcher.max_batch_delay = Clock::duration::zero();
  BulkService service(options);
  service.register_program("h", algo.make_program(8));
  Rng rng(3);
  // A deadline of -1ms is already missed at submit; the job still executes.
  auto future = service.submit("h", algo.make_input(8, rng), -1ms);
  const JobResult r = future.get();
  EXPECT_EQ(r.status, JobStatus::kCompleted);
  EXPECT_TRUE(r.deadline_missed);
  service.stop();
  EXPECT_EQ(service.snapshot().deadline_missed, 1u);
}

TEST(BulkService, MixedProgramsBatchSeparately) {
  ServiceOptions options;
  options.batcher.max_batch_lanes = 8;
  options.batcher.max_batch_delay = 2ms;
  BulkService service(options);
  const algos::Algorithm& ps = algos::find("prefix-sums");
  const algos::Algorithm& hr = algos::find("horner");
  service.register_program("ps", ps.make_program(16));
  service.register_program("hr", hr.make_program(8));

  Rng rng(11);
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.submit("ps", ps.make_input(16, rng)));
    futures.push_back(service.submit("hr", hr.make_input(8, rng)));
  }
  const std::size_t ps_out = ps.make_program(16).output_words;
  const std::size_t hr_out = hr.make_program(8).output_words;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const JobResult r = futures[i].get();
    ASSERT_EQ(r.status, JobStatus::kCompleted);
    EXPECT_EQ(r.output.size(), i % 2 == 0 ? ps_out : hr_out);
  }
  service.stop();
}

// Scenario: one service hosting the whole multicore-oblivious family plus a
// classic workload, driven with interleaved traffic.  Every result must be
// bit-identical to the algorithm's native reference.
TEST(BulkService, MixedObliviousFamilyBatches) {
  ServiceOptions options;
  options.batcher.max_batch_lanes = 8;
  options.batcher.max_batch_delay = 2ms;
  BulkService service(options);

  struct Entry {
    std::string id;
    std::string algo;
    std::size_t n;
  };
  const std::vector<Entry> entries = {
      {"merge", "oblivious-merge", 5},
      {"partition", "oblivious-partition", 12},
      {"aggregate", "oblivious-aggregate", 5},
      {"ps", "prefix-sums", 16},
  };
  for (const Entry& e : entries) {
    service.register_program(e.id, algos::find(e.algo).make_program(e.n));
  }

  Rng rng(23);
  std::vector<std::future<JobResult>> futures;
  std::vector<std::vector<Word>> expected;
  for (int round = 0; round < 6; ++round) {
    for (const Entry& e : entries) {
      const algos::Algorithm& algo = algos::find(e.algo);
      const std::vector<Word> input = algo.make_input(e.n, rng);
      expected.push_back(algo.reference(e.n, input));
      futures.push_back(service.submit(e.id, input));
    }
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const JobResult r = futures[i].get();
    ASSERT_EQ(r.status, JobStatus::kCompleted) << "job " << i;
    EXPECT_EQ(r.output, expected[i]) << "job " << i;
  }
  service.stop();
  EXPECT_EQ(service.snapshot().completed, futures.size());
}

// Scenario: variable-length sessions — one family served at several input
// lengths under distinct program ids.  Jobs of different lengths must land
// in different batches (the batcher's group key) and every output must stay
// bit-identical to the reference.
TEST(BulkService, VariableLengthSessionsNeverShareABatch) {
  const algos::Algorithm& algo = algos::find("oblivious-merge");
  const std::vector<std::size_t> sizes = {1, 3, 5, 12};

  ServiceOptions options;
  options.batcher.max_batch_lanes = 16;
  options.batcher.max_batch_delay = 2ms;
  std::atomic<bool> saw_mixed{false};
  options.before_execute = [&](const Batch& batch) {
    for (const Job& job : batch.jobs) {
      if (job.input.size() != batch.jobs.front().input.size()) saw_mixed = true;
    }
  };
  BulkService service(options);
  for (const std::size_t n : sizes) {
    service.register_program("merge/n=" + std::to_string(n), algo.make_program(n));
  }

  Rng rng(29);
  std::vector<std::future<JobResult>> futures;
  std::vector<std::vector<Word>> expected;
  for (int round = 0; round < 5; ++round) {
    for (const std::size_t n : sizes) {
      const std::vector<Word> input = algo.make_input(n, rng);
      expected.push_back(algo.reference(n, input));
      futures.push_back(service.submit("merge/n=" + std::to_string(n), input));
    }
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const JobResult r = futures[i].get();
    ASSERT_EQ(r.status, JobStatus::kCompleted) << "job " << i;
    EXPECT_EQ(r.output, expected[i]) << "job " << i;
  }
  service.stop();
  EXPECT_FALSE(saw_mixed.load()) << "a batch mixed input lengths";
}

TEST(BulkService, SubmitValidatesProgramAndInput) {
  BulkService service((ServiceOptions()));
  const algos::Algorithm& algo = algos::find("horner");
  service.register_program("h", algo.make_program(8));
  EXPECT_THROW(service.submit("nope", {}), std::logic_error);
  EXPECT_THROW(service.submit("h", std::vector<Word>(3)), std::logic_error);
  EXPECT_THROW(service.register_program("h", algo.make_program(8)), std::logic_error);
  service.stop();
}

TEST(BulkService, StopDrainsAcceptedJobs) {
  const algos::Algorithm& algo = algos::find("prefix-sums");
  ServiceOptions options;
  options.batcher.max_batch_lanes = 64;
  options.batcher.max_batch_delay = 1h;  // only drain can flush
  BulkService service(options);
  service.register_program("ps", algo.make_program(16));
  Rng rng(1);
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(service.submit("ps", algo.make_input(16, rng)));
  }
  service.stop();  // must flush the pending group and execute it
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, JobStatus::kCompleted);
  }
  EXPECT_EQ(service.snapshot().flush_drain, 1u);
}

// Closed-loop smoke of the load generator (also exercises WorkloadItem).
TEST(LoadGen, ClosedLoopCompletesEveryJob) {
  const algos::Algorithm& algo = algos::find("horner");
  BulkService service((ServiceOptions()));
  service.register_program("h", algo.make_program(8));
  const std::vector<WorkloadItem> workload{WorkloadItem{
      .program_id = "h",
      .make_input = [&](Rng& rng) { return algo.make_input(8, rng); }}};
  LoadGenOptions load;
  load.jobs = 40;
  load.producers = 2;
  const LoadGenReport report = run_load(service, workload, load);
  EXPECT_EQ(report.completed, 40u);
  EXPECT_EQ(report.rejected + report.shed, 0u);
  EXPECT_GT(report.jobs_per_sec, 0.0);
  service.stop();
}

}  // namespace
