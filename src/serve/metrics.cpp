#include "serve/metrics.hpp"

#include "bulk/core_pool.hpp"

#include <bit>
#include <mutex>
#include <sstream>

namespace obx::serve {

void Histogram::record(std::uint64_t value) {
  const std::size_t bucket = static_cast<std::size_t>(std::bit_width(value));
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

std::uint64_t Histogram::min() const {
  if (count() == 0) return 0;
  // reset() racing record() can leave a torn snapshot where min_ still holds
  // its ~0 sentinel (or a stale floor) while max_ already reflects a sample.
  // Clamp so min() <= max() always holds; the window closes on the next
  // record().  (A lone UINT64_MAX sample also leaves min_ == sentinel — and
  // the clamp returns the right answer there too, since min == max.)
  const std::uint64_t mn = min_.load(std::memory_order_relaxed);
  const std::uint64_t mx = max_.load(std::memory_order_relaxed);
  return mn > mx ? mx : mn;
}

std::uint64_t Histogram::max() const {
  return count() == 0 ? 0 : max_.load(std::memory_order_relaxed);
}

std::uint64_t Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  if (!(q >= 0)) q = 0;  // negated so NaN lands here, not in the cast below
  if (q > 1) q = 1;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t k = 0; k < kBuckets; ++k) {
    seen += buckets_[k].load(std::memory_order_relaxed);
    if (seen >= rank) {
      // Upper bound of bucket k, clamped to the true max.
      const std::uint64_t bound = k == 0 ? 0 : (k >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << k) - 1);
      return std::min(bound, max());
    }
  }
  return max();
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~std::uint64_t{0}, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

TenantCounters& Metrics::tenant(const std::string& tenant) {
  {
    std::shared_lock lock(tenants_mutex_);
    const auto it = tenants_.find(tenant);
    if (it != tenants_.end()) return *it->second;
    if (tenants_.size() >= kMaxTenants) return overflow_;
  }
  std::unique_lock lock(tenants_mutex_);
  const auto it = tenants_.find(tenant);
  if (it != tenants_.end()) return *it->second;
  if (tenants_.size() >= kMaxTenants) return overflow_;
  auto& slot = tenants_[tenant];
  slot = std::make_unique<TenantCounters>();
  return *slot;
}

MetricsSnapshot Metrics::snapshot() const {
  MetricsSnapshot s;
  s.submitted = submitted.load(std::memory_order_relaxed);
  s.completed = completed.load(std::memory_order_relaxed);
  s.rejected = rejected.load(std::memory_order_relaxed);
  s.shed = shed.load(std::memory_order_relaxed);
  s.failed = failed.load(std::memory_order_relaxed);
  s.deadline_missed = deadline_missed.load(std::memory_order_relaxed);
  s.throttled = throttled.load(std::memory_order_relaxed);
  s.batches = batches.load(std::memory_order_relaxed);
  s.queue_depth = queue_depth.load(std::memory_order_relaxed);
  s.flush_size = flush_size.load(std::memory_order_relaxed);
  s.flush_delay = flush_delay.load(std::memory_order_relaxed);
  s.flush_deadline = flush_deadline.load(std::memory_order_relaxed);
  s.flush_drain = flush_drain.load(std::memory_order_relaxed);
  s.mean_queue_delay_us = queue_delay_us.mean();
  s.p50_queue_delay_us = static_cast<double>(queue_delay_us.quantile(0.50));
  s.p95_queue_delay_us = static_cast<double>(queue_delay_us.quantile(0.95));
  s.mean_batch_latency_us = batch_latency_us.mean();
  s.p95_batch_latency_us = static_cast<double>(batch_latency_us.quantile(0.95));
  s.mean_batch_occupancy = batch_occupancy.mean();
  s.max_batch_occupancy = static_cast<double>(batch_occupancy.max());
  s.mean_batch_sim_units = batch_sim_units.mean();
  const auto snap_tenant = [](const std::string& name,
                              const TenantCounters& counters) {
    TenantSnapshot t;
    t.tenant = name;
    t.submitted = counters.submitted.load(std::memory_order_relaxed);
    t.completed = counters.completed.load(std::memory_order_relaxed);
    t.rejected = counters.rejected.load(std::memory_order_relaxed);
    t.shed = counters.shed.load(std::memory_order_relaxed);
    t.failed = counters.failed.load(std::memory_order_relaxed);
    t.deadline_missed = counters.deadline_missed.load(std::memory_order_relaxed);
    t.throttled = counters.throttled.load(std::memory_order_relaxed);
    t.overflow_block = counters.overflow_block.load(std::memory_order_relaxed);
    t.overflow_reject = counters.overflow_reject.load(std::memory_order_relaxed);
    t.overflow_shed = counters.overflow_shed.load(std::memory_order_relaxed);
    t.mean_queue_delay_us = counters.queue_delay_us.mean();
    t.p95_queue_delay_us = static_cast<double>(counters.queue_delay_us.quantile(0.95));
    return t;
  };
  {
    std::shared_lock lock(tenants_mutex_);
    s.tenants.reserve(tenants_.size() + 1);
    for (const auto& [name, counters] : tenants_) {  // std::map: sorted order
      s.tenants.push_back(snap_tenant(name, *counters));
    }
  }
  // The shared past-the-cap row only renders once something landed in it, so
  // the common uncapped case is unchanged.
  TenantSnapshot spill = snap_tenant(kOverflowTenant, overflow_);
  if (spill.submitted || spill.rejected || spill.shed || spill.failed ||
      spill.throttled || spill.overflow_block) {
    s.tenants.push_back(std::move(spill));
  }
  // Scheduler visibility: the pool is process-wide, so these counters cover
  // every executor sharing it (reading them never spawns the workers).
  const bulk::CorePool::CountersSnapshot sched = bulk::CorePool::instance().counters();
  s.sched_workers = sched.worker_busy_ns.size();
  s.sched_tasks = sched.tasks;
  s.sched_steals = sched.steals;
  s.sched_parks = sched.parks;
  s.sched_unparks = sched.unparks;
  s.sched_worker_busy_ns = sched.worker_busy_ns;
  return s;
}

std::string MetricsSnapshot::to_string() const {
  std::ostringstream os;
  os << "serve.metrics:\n"
     << "  jobs        submitted=" << submitted << " completed=" << completed
     << " rejected=" << rejected << " shed=" << shed << " failed=" << failed
     << " deadline_missed=" << deadline_missed << " throttled=" << throttled << "\n"
     << "  queue       depth=" << queue_depth
     << " delay_us mean=" << mean_queue_delay_us << " p50=" << p50_queue_delay_us
     << " p95=" << p95_queue_delay_us << "\n"
     << "  batches     count=" << batches << " occupancy mean=" << mean_batch_occupancy
     << " max=" << max_batch_occupancy << " latency_us mean=" << mean_batch_latency_us
     << " p95=" << p95_batch_latency_us << "\n"
     << "  flushes     size=" << flush_size << " delay=" << flush_delay
     << " deadline=" << flush_deadline << " drain=" << flush_drain << "\n"
     << "  simulated   units/batch mean=" << mean_batch_sim_units << "\n"
     << "  scheduler   workers=" << sched_workers << " tasks=" << sched_tasks
     << " steals=" << sched_steals << " parks=" << sched_parks
     << " unparks=" << sched_unparks << "\n";
  for (const TenantSnapshot& t : tenants) {
    os << "  tenant " << t.tenant << ": submitted=" << t.submitted
       << " completed=" << t.completed << " rejected=" << t.rejected
       << " shed=" << t.shed << " failed=" << t.failed
       << " throttled=" << t.throttled << " overflow(block=" << t.overflow_block
       << " reject=" << t.overflow_reject << " shed=" << t.overflow_shed
       << ") delay_us mean=" << t.mean_queue_delay_us
       << " p95=" << t.p95_queue_delay_us << "\n";
  }
  return os.str();
}

std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default:
        // Any other control byte (including '\r' and DEL) would either be
        // invisible or let a tenant name smuggle format structure into the
        // scrape; a validated placeholder keeps the exposition parseable.
        if (static_cast<unsigned char>(c) < 0x20 || c == '\x7f') {
          out += '_';
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void counter(std::ostringstream& os, const char* name, std::uint64_t value) {
  os << "# TYPE " << name << " counter\n" << name << " " << value << "\n";
}

void gauge(std::ostringstream& os, const char* name, double value) {
  os << "# TYPE " << name << " gauge\n" << name << " " << value << "\n";
}

/// One labelled counter family: emits a `{tenant="..."}` sample per tenant.
void tenant_counter(std::ostringstream& os, const std::string& name,
                    const std::vector<TenantSnapshot>& tenants,
                    std::uint64_t TenantSnapshot::* field) {
  os << "# TYPE " << name << " counter\n";
  for (const TenantSnapshot& t : tenants) {
    os << name << "{tenant=\"" << escape_label_value(t.tenant) << "\"} "
       << t.*field << "\n";
  }
}

}  // namespace

std::string render_prometheus(const MetricsSnapshot& s) {
  std::ostringstream os;
  counter(os, "obx_serve_jobs_submitted_total", s.submitted);
  counter(os, "obx_serve_jobs_completed_total", s.completed);
  counter(os, "obx_serve_jobs_rejected_total", s.rejected);
  counter(os, "obx_serve_jobs_shed_total", s.shed);
  counter(os, "obx_serve_jobs_failed_total", s.failed);
  counter(os, "obx_serve_jobs_deadline_missed_total", s.deadline_missed);
  counter(os, "obx_serve_jobs_throttled_total", s.throttled);
  counter(os, "obx_serve_batches_total", s.batches);
  gauge(os, "obx_serve_queue_depth", static_cast<double>(s.queue_depth));
  gauge(os, "obx_serve_queue_delay_us_mean", s.mean_queue_delay_us);
  gauge(os, "obx_serve_queue_delay_us_p50", s.p50_queue_delay_us);
  gauge(os, "obx_serve_queue_delay_us_p95", s.p95_queue_delay_us);
  gauge(os, "obx_serve_batch_latency_us_mean", s.mean_batch_latency_us);
  gauge(os, "obx_serve_batch_latency_us_p95", s.p95_batch_latency_us);
  gauge(os, "obx_serve_batch_occupancy_mean", s.mean_batch_occupancy);
  gauge(os, "obx_serve_batch_occupancy_max", s.max_batch_occupancy);
  counter(os, "obx_serve_flush_size_total", s.flush_size);
  counter(os, "obx_serve_flush_delay_total", s.flush_delay);
  counter(os, "obx_serve_flush_deadline_total", s.flush_deadline);
  counter(os, "obx_serve_flush_drain_total", s.flush_drain);
  gauge(os, "obx_serve_sched_workers", static_cast<double>(s.sched_workers));
  counter(os, "obx_serve_sched_tasks_total", s.sched_tasks);
  counter(os, "obx_serve_sched_steals_total", s.sched_steals);
  counter(os, "obx_serve_sched_parks_total", s.sched_parks);
  counter(os, "obx_serve_sched_unparks_total", s.sched_unparks);
  if (!s.sched_worker_busy_ns.empty()) {
    os << "# TYPE obx_serve_sched_worker_busy_ns_total counter\n";
    for (std::size_t i = 0; i < s.sched_worker_busy_ns.size(); ++i) {
      os << "obx_serve_sched_worker_busy_ns_total{worker=\"" << i << "\"} "
         << s.sched_worker_busy_ns[i] << "\n";
    }
  }
  if (!s.tenants.empty()) {
    tenant_counter(os, "obx_serve_tenant_submitted_total", s.tenants,
                   &TenantSnapshot::submitted);
    tenant_counter(os, "obx_serve_tenant_completed_total", s.tenants,
                   &TenantSnapshot::completed);
    tenant_counter(os, "obx_serve_tenant_rejected_total", s.tenants,
                   &TenantSnapshot::rejected);
    tenant_counter(os, "obx_serve_tenant_shed_total", s.tenants,
                   &TenantSnapshot::shed);
    tenant_counter(os, "obx_serve_tenant_failed_total", s.tenants,
                   &TenantSnapshot::failed);
    tenant_counter(os, "obx_serve_tenant_deadline_missed_total", s.tenants,
                   &TenantSnapshot::deadline_missed);
    tenant_counter(os, "obx_serve_tenant_throttled_total", s.tenants,
                   &TenantSnapshot::throttled);
    tenant_counter(os, "obx_serve_tenant_overflow_block_total", s.tenants,
                   &TenantSnapshot::overflow_block);
    tenant_counter(os, "obx_serve_tenant_overflow_reject_total", s.tenants,
                   &TenantSnapshot::overflow_reject);
    tenant_counter(os, "obx_serve_tenant_overflow_shed_total", s.tenants,
                   &TenantSnapshot::overflow_shed);
    os << "# TYPE obx_serve_tenant_queue_delay_us_p95 gauge\n";
    for (const TenantSnapshot& t : s.tenants) {
      os << "obx_serve_tenant_queue_delay_us_p95{tenant=\""
         << escape_label_value(t.tenant) << "\"} " << t.p95_queue_delay_us << "\n";
    }
  }
  return os.str();
}

}  // namespace obx::serve
