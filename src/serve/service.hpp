// BulkService: the batching bulk-execution service.
//
//   producers ──▶ quota gate ──▶ AdmissionQueue ──▶ Batcher ──▶ ExecutorPool ──▶ futures
//                 (per-tenant     (bounded MPMC,      (group by    (N workers ×     / callbacks
//                  token bucket)   per-priority        program,     plan::run)
//                                  overflow policy)    flush on
//                                                      size/delay/deadline)
//
// Many producer threads submit independent single-lane jobs; the service
// coalesces them into large-occupancy bulk executions.  Each program id is
// planned once at registration (optimise, compile, arrangement choice); every
// batch for it is one plan::run of that plan.
//
// Multi-tenancy happens at admission: each job carries a tenant id and a
// priority class.  Tenants are charged against per-tenant token-bucket
// quotas before the shared queue is touched, priority classes map onto the
// block / reject / shed-oldest overflow policies, and every outcome is
// accounted per tenant in the metrics registry.
//
// Lifecycle guarantee: every accepted job resolves exactly once —
// kCompleted after execution, kShed if evicted under the shed-oldest policy,
// kRejected if refused at admission (queue or quota).  stop() (and the
// destructor) drains all accepted work before joining the threads; nothing
// is abandoned.  Jobs submitted with a completion callback (try_submit)
// resolve through the callback instead of a future, with execution failures
// flattened to JobStatus::kFailed.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/admission_queue.hpp"
#include "serve/batcher.hpp"
#include "serve/job.hpp"
#include "serve/metrics.hpp"
#include "serve/program_cache.hpp"
#include "serve/tenant.hpp"

namespace obx::serve {

struct ServiceOptions {
  std::size_t queue_capacity = 4096;
  OverflowPolicy policy = OverflowPolicy::kBlock;
  /// Per-priority-class override of `policy` at queue overflow; an unset
  /// entry falls back to `policy`.  Index with static_cast<size_t>(Priority).
  std::array<std::optional<OverflowPolicy>, kPriorityCount> priority_policies{};
  /// Token-bucket quotas charged per tenant before the queue (more can be
  /// installed at runtime with set_tenant_quota).
  std::map<std::string, TenantQuota> tenant_quotas;
  /// Quota applied to tenants without an explicit entry; unset = unlimited.
  std::optional<TenantQuota> default_quota;
  BatcherOptions batcher;
  /// Executor pool size: batches in flight concurrently.  These threads
  /// only pipeline batches (gather inputs, resolve futures); the lane work
  /// itself runs on the shared bulk::CorePool, so executors ×
  /// workers_per_batch cannot oversubscribe the host — every batch's tiles
  /// drain through the same per-core workers.
  unsigned executors = 2;
  /// Parallelism target inside one batch's run, passed to the shared
  /// CorePool per run.  0 (default) = one consumer per pool worker;
  /// 1 = run batches inline on their executor thread (the pre-pool
  /// behaviour).
  unsigned workers_per_batch = 0;
  /// Machine model + optimisation policy for per-program characterisation
  /// (reference_lanes is overridden with batcher.max_batch_lanes).
  PrepareOptions prepare;
  /// Estimate simulated UMM units per executed batch (memoised per program
  /// and occupancy; adds one timing-estimator pass per distinct occupancy).
  bool record_simulated_units = true;
  /// Fault-injection seam (check::FaultPlan): called on the executor thread
  /// right before a batch runs, inside the failure-handling scope — a throw
  /// here resolves every job in the batch with that exception, exactly like
  /// an engine failure.  Empty in production.
  std::function<void(const Batch&)> before_execute;

  OverflowPolicy effective_policy(Priority priority) const {
    const auto& override_ = priority_policies[static_cast<std::size_t>(priority)];
    return override_.value_or(policy);
  }
};

/// Per-submission options (who is asking, how urgent, by when).
struct SubmitOptions {
  std::string tenant = "default";
  Priority priority = Priority::kNormal;
  /// Relative to now; a completed-late job is still delivered, flagged
  /// deadline_missed.
  std::optional<Clock::duration> deadline;
};

class BulkService {
 public:
  /// Outcome of a non-blocking try_submit.  kResolved means the submission
  /// reached a terminal state (accepted into the queue, or rejected with the
  /// callback already invoked); kWouldBlock means nothing happened — the
  /// job's priority maps to kBlock, the queue is full, and the caller should
  /// retry later (the event-loop image of blocking backpressure).
  enum class TrySubmit { kResolved, kWouldBlock };

  explicit BulkService(ServiceOptions options);
  ~BulkService();

  BulkService(const BulkService&) = delete;
  BulkService& operator=(const BulkService&) = delete;

  /// Prepares (optimises + characterises) and registers a program.  Must
  /// happen before any submit() for that id.
  void register_program(const std::string& id, trace::Program program);

  /// Submits one lane of work.  `input` must hold exactly the program's
  /// input_words.  Never blocks except under an effective kBlock policy on
  /// a full queue.
  std::future<JobResult> submit(const std::string& id, std::vector<Word> input,
                                const SubmitOptions& options = {});

  /// Callback-based, never-blocking submission for event-loop callers.
  /// `done` is invoked exactly once with the terminal JobResult — possibly
  /// synchronously (quota/queue rejection) and possibly from an executor
  /// thread — unless kWouldBlock is returned, in which case nothing was
  /// admitted or charged and `done` will never be called.
  TrySubmit try_submit(const std::string& id, std::vector<Word> input,
                       const SubmitOptions& options,
                       std::function<void(JobResult&&)> done);

  /// Installs or replaces a tenant's quota at runtime.
  void set_tenant_quota(const std::string& tenant, TenantQuota quota);

  /// Stops admission, drains every accepted job through execution, joins all
  /// threads.  Idempotent; called by the destructor.
  void stop();

  const Metrics& metrics() const { return metrics_; }
  MetricsSnapshot snapshot() const { return metrics_.snapshot(); }
  const ServiceOptions& options() const { return options_; }
  const ProgramCache& programs() const { return *programs_; }

 private:
  class BatchQueue;

  /// Shared admission path: quota gate, then the queue under the job's
  /// effective policy.  Returns kWouldBlock only when !allow_block (with the
  /// job rolled back into `job`); otherwise the job reached the queue or was
  /// resolved terminally.
  TrySubmit admit(Job&& job, bool allow_block);

  void batcher_loop();
  void executor_loop();
  void dispatch(Batch&& batch);
  void execute(Batch&& batch);
  void resolve_dropped(Job&& job, JobStatus status);

  ServiceOptions options_;
  std::unique_ptr<ProgramCache> programs_;
  std::unique_ptr<AdmissionQueue> queue_;
  std::unique_ptr<BatchQueue> batches_;
  Batcher batcher_;
  Metrics metrics_;
  TenantTable tenants_;
  std::atomic<std::uint64_t> next_job_id_{0};
  std::atomic<bool> stopped_{false};
  std::thread batcher_thread_;
  std::vector<std::thread> executor_threads_;
};

}  // namespace obx::serve
