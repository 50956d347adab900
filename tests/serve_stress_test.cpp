// Multi-producer stress: the service must complete every accepted job
// exactly once, with output bit-identical to a direct HostBulkExecutor run,
// under every backpressure policy and with randomized program mixes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "algos/algorithm.hpp"
#include "common/rng.hpp"
#include "plan/plan.hpp"
#include "serve/service.hpp"

namespace {

using namespace obx;
using namespace obx::serve;
using namespace std::chrono_literals;

struct StressProgram {
  std::string id;
  const algos::Algorithm* algo;
  std::size_t n;
  trace::Program program;
};

std::vector<StressProgram> stress_programs() {
  std::vector<StressProgram> programs;
  for (const auto& [name, n] : std::initializer_list<std::pair<const char*, std::size_t>>{
           {"prefix-sums", 24}, {"horner", 16}, {"bitonic-sort", 16}}) {
    const algos::Algorithm& algo = algos::find(name);
    programs.push_back(StressProgram{
        .id = name, .algo = &algo, .n = n, .program = algo.make_program(n)});
  }
  return programs;
}

struct Submission {
  std::size_t program_index;
  std::vector<Word> input;
  std::future<JobResult> future;
};

// Runs `producers` threads submitting `jobs_per_producer` randomized jobs
// each, waits for every terminal state, and verifies the exactly-once and
// bit-identical-output guarantees.
void run_stress(OverflowPolicy policy, std::size_t queue_capacity,
                unsigned producers, std::size_t jobs_per_producer) {
  const std::vector<StressProgram> programs = stress_programs();

  ServiceOptions options;
  options.queue_capacity = queue_capacity;
  options.policy = policy;
  options.batcher.max_batch_lanes = 32;
  options.batcher.max_batch_delay = 200us;
  options.executors = 2;
  BulkService service(options);
  for (const auto& p : programs) {
    service.register_program(p.id, p.algo->make_program(p.n));
  }

  std::vector<std::vector<Submission>> per_producer(producers);
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (unsigned t = 0; t < producers; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      auto& submissions = per_producer[t];
      submissions.reserve(jobs_per_producer);
      for (std::size_t i = 0; i < jobs_per_producer; ++i) {
        const std::size_t pick = rng.next_below(programs.size());
        const StressProgram& p = programs[pick];
        std::vector<Word> input = p.algo->make_input(p.n, rng);
        Submission s;
        s.program_index = pick;
        s.input = input;
        s.future = service.submit(p.id, std::move(input));
        submissions.push_back(std::move(s));
      }
    });
  }
  for (auto& t : threads) t.join();

  std::size_t completed = 0, shed = 0, rejected = 0;
  for (auto& submissions : per_producer) {
    for (Submission& s : submissions) {
      ASSERT_TRUE(s.future.valid());
      const JobResult r = s.future.get();  // resolves exactly once by contract
      switch (r.status) {
        case JobStatus::kCompleted: {
          ++completed;
          const StressProgram& p = programs[s.program_index];
          const plan::BulkOutputs direct = plan::run_bulk(p.program, s.input, 1);
          ASSERT_EQ(r.output, direct.flat)
              << "program " << p.id << " output diverged from direct execution";
          break;
        }
        case JobStatus::kShed: ++shed; break;
        case JobStatus::kRejected: ++rejected; break;
        case JobStatus::kFailed:
          FAIL() << "no faults are injected here, so nothing may fail";
          break;
      }
    }
  }
  service.stop();

  const std::size_t total = producers * jobs_per_producer;
  EXPECT_EQ(completed + shed + rejected, total) << "jobs lost or duplicated";
  const MetricsSnapshot snap = service.snapshot();
  EXPECT_EQ(snap.submitted, total);
  EXPECT_EQ(snap.completed, completed);
  EXPECT_EQ(snap.shed, shed);
  EXPECT_EQ(snap.rejected, rejected);
  EXPECT_EQ(snap.queue_depth, 0);
  if (policy == OverflowPolicy::kBlock) {
    // Blocking admission never drops anything.
    EXPECT_EQ(completed, total);
  } else {
    // Dropping policies still complete the lion's share at this load.
    EXPECT_GT(completed, 0u);
  }
}

TEST(ServeStress, BlockPolicyCompletesEveryJob) {
  run_stress(OverflowPolicy::kBlock, /*queue_capacity=*/64, /*producers=*/4,
             /*jobs_per_producer=*/500);
}

TEST(ServeStress, ShedOldestNeverLosesTrackOfJobs) {
  run_stress(OverflowPolicy::kShedOldest, /*queue_capacity=*/16, /*producers=*/4,
             /*jobs_per_producer=*/500);
}

TEST(ServeStress, RejectNeverLosesTrackOfJobs) {
  run_stress(OverflowPolicy::kReject, /*queue_capacity=*/16, /*producers=*/4,
             /*jobs_per_producer=*/500);
}

TEST(ServeStress, ManyProducersHighFanIn) {
  run_stress(OverflowPolicy::kBlock, /*queue_capacity=*/256, /*producers=*/8,
             /*jobs_per_producer=*/250);
}

}  // namespace
