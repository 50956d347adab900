// Service metrics: lock-free counters and log2-bucketed histograms, global
// and per tenant, with a Prometheus-style text rendering.
//
// The hot paths (submit, dispatch, batch completion) only touch atomics
// (plus one shared-locked map lookup for the tenant row); snapshot() reads
// them without stopping the world, so numbers from a live service are
// approximate in the usual monitoring sense (each individual counter is
// exact, cross-counter consistency is not guaranteed).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

namespace obx::serve {

/// Histogram over non-negative integer samples with power-of-two buckets:
/// bucket k holds samples whose bit width is k (i.e. value in [2^(k-1), 2^k)),
/// bucket 0 holds zeros.  Quantiles are resolved to a bucket upper bound, so
/// they are exact to within a factor of 2 — plenty for latency monitoring.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // bit_width of uint64 is 0..64

  void record(std::uint64_t value);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  std::uint64_t min() const;  ///< 0 when empty; clamped so min() <= max()
  std::uint64_t max() const;  ///< 0 when empty
  /// Upper bound of the bucket containing the q-quantile.  q is clamped to
  /// [0, 1]; NaN reads as 0.  Returns 0 when empty.
  std::uint64_t quantile(double q) const;

  /// Not atomic with respect to concurrent record(): a racing sample can land
  /// partially before and partially after, leaving e.g. min_ at its sentinel
  /// while max_ holds the sample (min() clamps that torn window).  Intended
  /// for quiesced or test use; counters self-heal on subsequent records.
  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

/// Per-tenant accounting row.  Overflow counters record which admission
/// policy fired *on this tenant's submissions* (blocked-and-waited /
/// rejected at the door / shed something to get in); `shed` counts this
/// tenant's own jobs evicted as victims, `throttled` its quota rejections.
struct TenantCounters {
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> deadline_missed{0};
  std::atomic<std::uint64_t> throttled{0};
  std::atomic<std::uint64_t> overflow_block{0};
  std::atomic<std::uint64_t> overflow_reject{0};
  std::atomic<std::uint64_t> overflow_shed{0};
  Histogram queue_delay_us;  ///< submit → dispatch, completed jobs
};

/// Point-in-time copy of one tenant's counters.
struct TenantSnapshot {
  std::string tenant;
  std::uint64_t submitted = 0, completed = 0, rejected = 0, shed = 0, failed = 0;
  std::uint64_t deadline_missed = 0, throttled = 0;
  std::uint64_t overflow_block = 0, overflow_reject = 0, overflow_shed = 0;
  double mean_queue_delay_us = 0, p95_queue_delay_us = 0;
};

/// Point-in-time copy of every counter, for reporting.
struct MetricsSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;  ///< resolved with an exception (execution threw)
  std::uint64_t deadline_missed = 0;
  std::uint64_t throttled = 0;  ///< rejected at the per-tenant quota gate
  std::uint64_t batches = 0;
  std::int64_t queue_depth = 0;

  // Histogram summaries (value domains noted per field).
  double mean_queue_delay_us = 0, p50_queue_delay_us = 0, p95_queue_delay_us = 0;
  double mean_batch_latency_us = 0, p95_batch_latency_us = 0;
  double mean_batch_occupancy = 0, max_batch_occupancy = 0;
  double mean_batch_sim_units = 0;
  std::uint64_t flush_size = 0, flush_delay = 0, flush_deadline = 0, flush_drain = 0;

  /// Per-tenant rows, sorted by tenant id (deterministic rendering), plus a
  /// trailing Metrics::kOverflowTenant aggregate when the cardinality cap
  /// was hit.
  std::vector<TenantSnapshot> tenants;

  /// Shared bulk::CorePool scheduler counters (process-wide and monotonic:
  /// every pool consumer in this process contributes, not just the service).
  /// An imbalance signature — steals growing much faster than tasks, or
  /// parks dwarfing unparks — means batches are too small or tile costs too
  /// skewed for the configured worker count.
  std::uint64_t sched_workers = 0;   ///< pool threads; the submitter is the k-th
  std::uint64_t sched_tasks = 0;     ///< lane-tile tasks executed
  std::uint64_t sched_steals = 0;    ///< tasks run for another thread's region
  std::uint64_t sched_parks = 0;     ///< worker went to sleep
  std::uint64_t sched_unparks = 0;   ///< wakeups signalled by submitters
  std::vector<std::uint64_t> sched_worker_busy_ns;  ///< per pool thread, in tasks

  /// Multi-line human-readable dump (the "text snapshot" of the service).
  std::string to_string() const;
};

class Metrics {
 public:
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> deadline_missed{0};
  std::atomic<std::uint64_t> throttled{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::int64_t> queue_depth{0};
  std::atomic<std::uint64_t> flush_size{0};
  std::atomic<std::uint64_t> flush_delay{0};
  std::atomic<std::uint64_t> flush_deadline{0};
  std::atomic<std::uint64_t> flush_drain{0};

  Histogram queue_delay_us;     ///< submit → dispatch, microseconds
  Histogram batch_latency_us;   ///< dispatch → completion, microseconds
  Histogram batch_occupancy;    ///< lanes per executed batch
  Histogram batch_sim_units;    ///< simulated UMM time units per batch

  /// Cardinality cap: tenant ids arrive on the wire unauthenticated, so an
  /// attacker can mint unlimited distinct ids.  At most this many get their
  /// own row; the rest share the [`kOverflowTenant`] aggregate so memory and
  /// scrape size stay bounded.
  static constexpr std::size_t kMaxTenants = 1024;
  /// Label the shared overflow row renders under.  A real tenant using this
  /// exact id simply merges into the aggregate — harmless, since the row is
  /// monitoring-only and quota enforcement does not key off it.
  static constexpr const char* kOverflowTenant = "__overflow__";

  /// The accounting row for `tenant`, created on first use.  The returned
  /// reference is stable for the lifetime of the Metrics object.  Once
  /// kMaxTenants distinct ids are tracked, unseen ids all map to the shared
  /// overflow row.
  TenantCounters& tenant(const std::string& tenant);

  MetricsSnapshot snapshot() const;

 private:
  mutable std::shared_mutex tenants_mutex_;
  std::map<std::string, std::unique_ptr<TenantCounters>> tenants_;
  /// Aggregate row for tenants past the cap; rendered as kOverflowTenant.
  TenantCounters overflow_;
};

/// Escapes a tenant id (or any string) for use as a Prometheus label value:
/// backslash, double quote and newline get the exposition-format escapes,
/// and every other control byte is replaced with '_' so a hostile tenant
/// name can never corrupt the scrape output.
std::string escape_label_value(const std::string& value);

/// Renders a snapshot in the Prometheus text exposition format (counters
/// and gauges prefixed `obx_serve_`, one `tenant="..."` labelled family per
/// per-tenant counter).  Deterministic: tenants render in sorted order.
std::string render_prometheus(const MetricsSnapshot& snapshot);

}  // namespace obx::serve
