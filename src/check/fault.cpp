#include "check/fault.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <new>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "trace/program.hpp"
#include "trace/step.hpp"

namespace obx::check {

namespace {

/// The tiny program every campaign serves: out[0] = in[0] + in[1],
/// out[1] = in[0] ^ in[1].  Small enough that batches are cheap and faults
/// dominate the schedule.
trace::Program probe_program() {
  using trace::Op;
  using trace::Step;
  std::vector<Step> steps = {
      Step::load(0, 0),
      Step::load(1, 1),
      Step::alu(Op::kAddI, 2, 0, 1),
      Step::store(2, 2),
      Step::alu(Op::kXor, 3, 0, 1),
      Step::store(3, 3),
  };
  return trace::make_replay_program("fault-probe", 4, 2, 2, 2, 4,
                                    std::move(steps));
}

}  // namespace

std::function<void(const serve::Batch&)> FaultPlan::hook() const {
  if (fail_every_batches == 0 && alloc_fail_every_batches == 0) return {};
  const FaultPlan plan = *this;
  auto counter = std::make_shared<std::atomic<std::size_t>>(0);
  return [plan, counter](const serve::Batch& batch) {
    const std::size_t k = counter->fetch_add(1, std::memory_order_relaxed) + 1;
    if (plan.alloc_fail_every_batches != 0 &&
        k % plan.alloc_fail_every_batches == 0) {
      throw std::bad_alloc();
    }
    if (plan.fail_every_batches != 0 && k % plan.fail_every_batches == 0) {
      throw std::runtime_error("injected executor fault on batch " +
                               std::to_string(k) + " (" + batch.program_id + ")");
    }
  };
}

std::string CampaignReport::summary() const {
  std::ostringstream os;
  os << "fault-campaign: submitted=" << submitted << " completed=" << completed
     << " rejected=" << rejected << " shed=" << shed << " failed=" << failed
     << " unresolved=" << unresolved
     << (exactly_once() ? " [exactly-once OK]" : " [EXACTLY-ONCE VIOLATED]");
  return os.str();
}

CampaignReport run_fault_campaign(const CampaignOptions& options) {
  serve::ServiceOptions service = options.service;
  service.before_execute = options.plan.hook();

  CampaignReport report;
  const std::size_t total = options.producers * options.jobs_per_producer;
  std::vector<std::future<serve::JobResult>> futures(total);

  {
    serve::BulkService svc(service);
    svc.register_program("probe", probe_program());

    std::vector<std::thread> producers;
    producers.reserve(options.producers);
    for (std::size_t t = 0; t < options.producers; ++t) {
      producers.emplace_back([&, t] {
        for (std::size_t j = 0; j < options.jobs_per_producer; ++j) {
          std::vector<Word> input = {Word{t}, Word{j}};
          serve::SubmitOptions submit;
          if (options.with_deadlines && j % 3 == 0) {
            submit.deadline = std::chrono::microseconds(50 + 25 * (j % 5));
          }
          futures[t * options.jobs_per_producer + j] =
              svc.submit("probe", std::move(input), submit);
        }
      });
    }
    std::thread closer;
    if (options.close_mid_stream) {
      closer = std::thread([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        svc.stop();
      });
    }
    for (std::thread& p : producers) p.join();
    if (closer.joinable()) closer.join();
    svc.stop();
    report.metrics = svc.snapshot();
  }

  // Audit from the producer side.  stop() has drained everything, so every
  // future must already be ready; the wait_for is a bounded safety net that
  // turns a hang into a countable violation instead of a stuck test.
  for (std::future<serve::JobResult>& f : futures) {
    if (!f.valid()) {
      ++report.unresolved;  // submit never yielded a future: a dropped job
      continue;
    }
    ++report.submitted;
    if (f.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
      ++report.unresolved;
      continue;
    }
    try {
      const serve::JobResult r = f.get();
      switch (r.status) {
        case serve::JobStatus::kCompleted: ++report.completed; break;
        case serve::JobStatus::kRejected: ++report.rejected; break;
        case serve::JobStatus::kShed: ++report.shed; break;
        case serve::JobStatus::kFailed: ++report.failed; break;
      }
    } catch (const std::future_error&) {
      ++report.unresolved;  // broken_promise: the Job died unresolved
    } catch (...) {
      ++report.failed;  // injected (or real) execution failure — resolved
    }
  }
  return report;
}

}  // namespace obx::check
