#include "serve/load_gen.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/check.hpp"

namespace obx::serve {

namespace {

struct ProducerOutcome {
  std::vector<double> latencies_us;  // completed jobs only
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t shed = 0;
  std::size_t failed = 0;
  std::size_t deadline_missed = 0;
};

void count_outcome(const JobResult& r, ProducerOutcome& outcome) {
  switch (r.status) {
    case JobStatus::kCompleted:
      ++outcome.completed;
      outcome.latencies_us.push_back(
          std::chrono::duration<double, std::micro>(r.latency).count());
      if (r.deadline_missed) ++outcome.deadline_missed;
      break;
    case JobStatus::kRejected: ++outcome.rejected; break;
    case JobStatus::kShed: ++outcome.shed; break;
    case JobStatus::kFailed: ++outcome.failed; break;
  }
}

double exp_interval_seconds(Rng& rng, double rate_hz) {
  // Inverse-CDF sample of Exp(rate); next_double() < 1 keeps log finite.
  return -std::log(1.0 - rng.next_double()) / rate_hz;
}

void producer(BulkService& service, const std::vector<WorkloadItem>& workload,
              const LoadGenOptions& options, std::size_t jobs, std::uint64_t seed,
              ProducerOutcome& outcome) {
  Rng rng(seed);
  const SubmitOptions submit_options{.deadline = options.deadline};
  const double rate =
      options.arrival_rate_hz > 0
          ? options.arrival_rate_hz / static_cast<double>(options.producers)
          : 0.0;

  std::vector<std::future<JobResult>> futures;
  futures.reserve(options.arrival_rate_hz > 0 ? jobs : 1);
  Clock::time_point next_arrival = Clock::now();
  for (std::size_t i = 0; i < jobs; ++i) {
    const WorkloadItem& item =
        workload[rng.next_below(workload.size())];
    std::vector<Word> input = item.make_input(rng);
    if (rate > 0) {
      next_arrival += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(exp_interval_seconds(rng, rate)));
      std::this_thread::sleep_until(next_arrival);
      futures.push_back(
          service.submit(item.program_id, std::move(input), submit_options));
    } else {
      // Closed-loop: one outstanding job per producer.
      futures.clear();
      futures.push_back(
          service.submit(item.program_id, std::move(input), submit_options));
      const JobResult r = futures.back().get();
      futures.clear();
      count_outcome(r, outcome);
    }
  }
  for (auto& f : futures) {
    count_outcome(f.get(), outcome);
  }
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

}  // namespace

LoadGenReport run_load(BulkService& service, const std::vector<WorkloadItem>& workload,
                       const LoadGenOptions& options) {
  OBX_CHECK(!workload.empty(), "load generator needs at least one workload item");
  OBX_CHECK(options.producers > 0, "need at least one producer");
  OBX_CHECK(options.jobs > 0, "need at least one job");

  const unsigned producers = static_cast<unsigned>(
      std::min<std::size_t>(options.producers, options.jobs));
  std::vector<ProducerOutcome> outcomes(producers);
  std::vector<std::thread> threads;
  threads.reserve(producers);

  const auto t0 = Clock::now();
  const std::size_t per = options.jobs / producers;
  const std::size_t rem = options.jobs % producers;
  for (unsigned i = 0; i < producers; ++i) {
    const std::size_t jobs = per + (i < rem ? 1 : 0);
    threads.emplace_back([&, i, jobs] {
      producer(service, workload, options, jobs, options.seed * 7919 + i,
               outcomes[i]);
    });
  }
  for (auto& t : threads) t.join();
  const auto t1 = Clock::now();

  LoadGenReport report;
  report.submitted = options.jobs;
  report.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  std::vector<double> latencies;
  for (const auto& o : outcomes) {
    report.completed += o.completed;
    report.rejected += o.rejected;
    report.shed += o.shed;
    report.failed += o.failed;
    report.deadline_missed += o.deadline_missed;
    latencies.insert(latencies.end(), o.latencies_us.begin(), o.latencies_us.end());
  }
  std::sort(latencies.begin(), latencies.end());
  report.jobs_per_sec = report.wall_seconds > 0
                            ? static_cast<double>(report.completed) / report.wall_seconds
                            : 0;
  if (!latencies.empty()) {
    double sum = 0;
    for (double v : latencies) sum += v;
    report.mean_latency_us = sum / static_cast<double>(latencies.size());
    report.p50_latency_us = percentile(latencies, 0.50);
    report.p95_latency_us = percentile(latencies, 0.95);
    report.max_latency_us = latencies.back();
  }
  return report;
}

}  // namespace obx::serve
