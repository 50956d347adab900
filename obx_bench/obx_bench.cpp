// obx_bench: the repository's end-to-end benchmark.
//
//   obx_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir bench_results/obx_bench]
//
// One workload per process, so peak RSS and lazy set-up belong to that
// workload alone:
//
//   bulk-registry  all 16 algorithms at fixed sizes, p=2048; one sample is a
//                  pass of 16 plan::run calls.  Compute-bound: where
//                  exec/JIT/planner changes show.
//   serve-mixed    in-process BulkService, four mixed sessions.  Phase A is an
//                  open loop (Poisson 40k jobs/s from one thread, latency
//                  timed from each job's due time); phase B a closed loop
//                  holding 768-1024 jobs outstanding (the throughput).
//   net-loopback   the same sessions behind net::Server on 127.0.0.1, two
//                  client connections pipelined 64 deep, closed loop.
//
// There is no memory-bound workload of its own (say, prefix sums at
// p=4096).  On a shared virtual host the quartiles of its run medians lay
// up to 11-41% apart in every variant tried: lane counts 512-4096, 1-4
// workers, pinned or not, freed memory kept in the heap or returned.  A
// 25% bound cannot absorb that.  bulk-registry's traced run splits each
// pass into allocation/zero-fill, lockstep and gather instead.
//
// Inputs come from --seed; every output is checked against
// algos::Algorithm::reference.  The last stdout line is one JSON object
// {correct, attempted, failed, metrics} holding the end-to-end metrics, or
// with --trace 1 the per-layer metrics.  The traced run records spans around
// each call the benchmark makes into a module's public API (nothing inside
// the library is instrumented) and writes them to trace_<workload>.json.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "algos/algorithm.hpp"
#include "bulk/bulk.hpp"
#include "bulk/host_executor.hpp"
#include "bulk/timing_estimator.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/simd_isa.hpp"
#include "exec/compiled_program.hpp"
#include "exec/jit/jit_program.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "opt/optimizer.hpp"
#include "plan/plan.hpp"
#include "plan/planner.hpp"
#include "serve/service.hpp"

namespace {

using namespace obx;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }
double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }
std::int64_t s_to_ns(double s) { return static_cast<std::int64_t>(s * 1e9); }

// ------------------------------------------------------------------ metrics

struct MetricSpec {
  std::string name;
  std::string unit;
};

// The names and units BENCHMARK.json declares (smoke.py checks they agree).
const std::vector<MetricSpec> kEndToEnd = {
    {"lanes_per_s", "lanes/s"}, {"latency_p50_ms", "ms"}, {"latency_p90_ms", "ms"},
    {"sim_units_per_lane", "units"}, {"setup_s", "s"},   {"peak_rss_mb", "MiB"},
};

struct Entry {
  const char* algo;
  std::size_t n;
};

// Fixed here rather than read from the registry's test_sizes, so the
// workload does not change when the registry does.
const std::vector<Entry> kRegistryEntries = {
    {"prefix-sums", 1024},     {"opt-triangulation", 32}, {"fft", 256},
    {"bitonic-sort", 256},     {"matmul", 16},            {"edit-distance", 32},
    {"tea", 32},               {"convolution", 256},      {"floyd-warshall", 16},
    {"summed-area", 32},       {"odd-even-sort", 64},     {"lu", 16},
    {"horner", 256},           {"oblivious-merge", 100},  {"oblivious-partition", 64},
    {"oblivious-aggregate", 48},
};

std::vector<MetricSpec> per_layer_specs() {
  std::vector<MetricSpec> specs = {
      // Set-up stages, timed on fresh programs (every workload).
      {"plan.build_ms", "ms"},
      {"opt.optimize_ms", "ms"},
      {"opt.steps_removed", "count"},
      {"exec.compile_ms", "ms"},
      {"exec.segments", "count"},
      {"exec.fused_ops", "count"},
      {"exec.jit_emit_ms", "ms"},
      {"exec.jit_code_bytes", "bytes"},
      {"umm.search_ms", "ms"},
      // Bulk runs, per pass (bulk-registry).
      {"bulk.run_ms", "ms"},
      {"bulk.lockstep_ms", "ms"},
      {"bulk.alloc_fill_ms", "ms"},
      {"bulk.gather_ms", "ms"},
      {"bulk.sched_tasks", "count"},
      {"bulk.sched_steals", "count"},
      {"bulk.sched_parks", "count"},
      {"exec.lane_steps", "count"},
      {"exec.bytes_computed", "bytes"},
      {"exec.runs_jit", "count"},
      {"exec.runs_compiled", "count"},
      {"exec.runs_interpreted", "count"},
      {"umm.sim_units", "units"},
  };
  for (const Entry& e : kRegistryEntries) {
    specs.push_back({std::string("exec.lockstep_ms.") + e.algo, "ms"});
  }
  const std::vector<MetricSpec> rest = {
      // Serving (serve-mixed; submit timing from phase B, the rest phase A).
      {"serve.submit_us_p50", "us"},
      {"serve.submit_us_p90", "us"},
      {"serve.queue_delay_us_p50", "us"},
      {"serve.queue_delay_us_p90", "us"},
      {"serve.execute_us_p50", "us"},
      {"serve.execute_us_p90", "us"},
      {"serve.resolve_lag_us_p50", "us"},
      {"serve.resolve_lag_us_p90", "us"},
      {"serve.p99_us", "us"},
      {"serve.batch_occupancy_mean", "lanes"},
      {"serve.batches", "count"},
      {"serve.flush_size", "count"},
      {"serve.flush_delay", "count"},
      {"serve.flush_deadline", "count"},
      {"serve.flush_drain", "count"},
      {"serve.rejected", "count"},
      {"serve.shed", "count"},
      {"serve.failed", "count"},
      {"loadgen.late_us_p99", "us"},
      {"loadgen.late_us_max", "us"},
      // Network front end (net-loopback).
      {"net.rtt_us_p99", "us"},
      {"net.server_latency_us_p50", "us"},
      {"net.server_latency_us_p90", "us"},
      {"net.wire_us_p50", "us"},
      {"net.wire_us_p90", "us"},
      {"net.queue_delay_us_p50", "us"},
      {"net.frames_received", "count"},
      {"net.would_block", "count"},
      {"net.error_responses", "count"},
      {"net.protocol_errors", "count"},
      {"net.ledger_ok", "bool"},
      // Self time per layer, per traced op, and the trace's own health.
      {"self_ms.bench", "ms"},
      {"self_ms.loadgen", "ms"},
      {"self_ms.net", "ms"},
      {"self_ms.serve", "ms"},
      {"self_ms.bulk", "ms"},
      {"self_ms.exec", "ms"},
      {"trace.coverage_min", "ratio"},
      {"trace.coverage_p50", "ratio"},
      {"trace.uncovered_ms_p50", "ms"},
      {"trace.overhead_ms", "ms"},
  };
  specs.insert(specs.end(), rest.begin(), rest.end());
  return specs;
}

/// Everything one run measured.  Metrics are looked up by name when the
/// report is printed; a per-layer metric the workload never reaches prints 0.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> notes;  ///< context, printed and saved

  void set(const std::string& name, double value) { metrics[name] = value; }
  void note(const std::string& name, const std::string& value) { notes[name] = value; }
  void note(const std::string& name, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    notes[name] = buf;
  }
};

/// Nearest-rank quantiles over one sorted copy of the samples.
class Quantiles {
 public:
  explicit Quantiles(std::vector<double> samples) : v_(std::move(samples)) {
    std::sort(v_.begin(), v_.end());
  }
  double at(double q) const {
    if (v_.empty()) return 0;
    const double rank = std::ceil(q * static_cast<double>(v_.size()));
    const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v_[std::min(i, v_.size() - 1)];
  }
  double max() const { return v_.empty() ? 0 : v_.back(); }
  std::size_t size() const { return v_.size(); }

 private:
  std::vector<double> v_;
};

double median(std::vector<double> v) { return Quantiles(std::move(v)).at(0.5); }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------------ tracing

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the span list; -1 for a root
  std::uint64_t request_id = 0;
};

/// One op's spans before they are committed: parents precede children and
/// `parent` indexes this group.
class SpanGroup {
 public:
  int add(std::string name, std::int64_t start, std::int64_t end, int parent = -1) {
    spans_.push_back({std::move(name), start, std::max(start, end), parent, 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Opens a span whose end is set later by close().
  int open(std::string name, int parent = -1) {
    const std::int64_t t = now_ns();
    return add(std::move(name), t, t, parent);
  }
  void close(int span) { spans_[static_cast<std::size_t>(span)].end_ns = now_ns(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// In-memory span store, written out when the run ends.  Thread-safe: the
/// net-loopback connection threads commit concurrently.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  void commit(std::uint64_t request_id, const SpanGroup& group) {
    if (!enabled_) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    if (spans_.size() + group.spans().size() > kMaxSpans) {
      ++dropped_groups_;
      return;
    }
    const auto base = static_cast<std::int64_t>(spans_.size());
    for (const Span& s : group.spans()) {
      Span copy = s;
      copy.parent = s.parent < 0 ? -1 : base + s.parent;
      copy.request_id = request_id;
      spans_.push_back(std::move(copy));
    }
  }

  /// Only call once every committing thread has finished.
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped_groups() const { return dropped_groups_; }

 private:
  static constexpr std::size_t kMaxSpans = std::size_t{1} << 18;

  bool enabled_;
  std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t dropped_groups_ = 0;
};

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

/// Self time per layer over the op trees (roots named in `op_roots`), plus
/// how much of each parent its children cover.
void summarize_trace(const std::vector<Span>& spans, const std::set<std::string>& op_roots,
                     Report& report) {
  const std::size_t count = spans.size();
  std::vector<std::vector<std::size_t>> children(count);
  std::vector<std::size_t> root(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (spans[i].parent < 0) {
      root[i] = i;
    } else {
      const auto p = static_cast<std::size_t>(spans[i].parent);
      children[p].push_back(i);
      root[i] = root[p];
    }
  }
  std::map<std::string, double> self_ns;
  std::vector<double> root_coverage, root_uncovered_ms;
  double coverage_min = 1.0;
  std::size_t ops = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (op_roots.count(spans[root[i]].name) == 0) continue;
    const Span& s = spans[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
    for (const std::size_t c : children[i]) {
      const std::int64_t a = std::max(s.start_ns, spans[c].start_ns);
      const std::int64_t b = std::min(s.end_ns, spans[c].end_ns);
      if (b > a) intervals.emplace_back(a, b);
    }
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0, reach = s.start_ns;
    for (const auto& [a, b] : intervals) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    const std::int64_t duration = s.end_ns - s.start_ns;
    self_ns[layer_of(s.name)] += static_cast<double>(duration - covered);
    if (!children[i].empty() && duration > 0) {
      const double coverage = static_cast<double>(covered) / static_cast<double>(duration);
      coverage_min = std::min(coverage_min, coverage);
      if (root[i] == i) {
        root_coverage.push_back(coverage);
        root_uncovered_ms.push_back(ns_to_ms(duration - covered));
      }
    }
    if (root[i] == i) ++ops;
  }
  if (ops == 0) return;
  for (const auto& [layer, ns] : self_ns) {
    report.set("self_ms." + layer, ns * 1e-6 / static_cast<double>(ops));
  }
  report.set("trace.coverage_min", coverage_min);
  report.set("trace.coverage_p50", median(root_coverage));
  report.set("trace.uncovered_ms_p50", median(root_uncovered_ms));
  report.note("trace.ops", static_cast<double>(ops));
}

void write_trace(const std::filesystem::path& path, const std::string& workload,
                 const Tracer& tracer) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path.string());
  const std::vector<Span>& spans = tracer.spans();
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "{\"workload\": \"%s\", \"dropped_groups\": %llu, \"spans\": [\n",
               workload.c_str(), static_cast<unsigned long long>(tracer.dropped_groups()));
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %lld, \"request_id\": %llu}%s\n",
                 s.name.c_str(), static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin), static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request_id),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path.string());
}

// ------------------------------------------------------------------ set-up

constexpr std::size_t kMinSetups = 7;     ///< cold set-ups before the load starts
constexpr double kSetupBurstS = 0.2;      ///< ...repeated for at least this long
constexpr double kSetupTopUpS = 0.025;    ///< a top-up this long...
constexpr double kTopUpEveryS = 1.0;      ///< ...this often (serving: the segment length)
constexpr int kStageReps = 3;             ///< traced stage breakdowns; per-layer takes the median

/// setup_s: the median over many cold set-ups, each on freshly made
/// programs.  The host's speed drifts over seconds, so the set-ups are spread
/// over the run: a burst before the load and short top-ups at pauses in it.
/// `setup(group, keep)` returns the seconds spent in the timed calls; with
/// keep it leaves its state for the run, otherwise it discards it.
class SetupTimer {
 public:
  using Setup = std::function<double(SpanGroup&, bool keep)>;

  SetupTimer(Setup setup, Tracer& tracer) : setup_(std::move(setup)), tracer_(tracer) {}

  /// The burst before the load; the last set-up's state is kept.
  void burst() {
    const std::int64_t end = now_ns() + s_to_ns(kSetupBurstS);
    while (seconds_.size() + 1 < kMinSetups || now_ns() < end) once(false);
    once(true);
  }

  /// Set-ups for `budget_s` (at least one), discarding their state.
  void top_up(double budget_s) {
    const std::int64_t end = now_ns() + s_to_ns(budget_s);
    do {
      once(false);
    } while (now_ns() < end);
  }

  /// A short top-up if kTopUpEveryS has passed since the last set-up.
  void top_up_if_due() {
    if (now_ns() >= last_ + s_to_ns(kTopUpEveryS)) top_up(kSetupTopUpS);
  }

  double median_s() const { return median(seconds_); }
  std::size_t count() const { return seconds_.size(); }

 private:
  void once(bool keep) {
    SpanGroup group;
    seconds_.push_back(setup_(group, keep));
    tracer_.commit(seconds_.size() - 1, group);
    last_ = now_ns();
  }

  Setup setup_;
  Tracer& tracer_;
  std::vector<double> seconds_;
  std::int64_t last_ = 0;
};

/// Each public stage of Planner::build timed on its own, on a fresh program
/// (so nothing comes from the exec_cache a plan already filled).
void stage_breakdown(const std::vector<Entry>& entries, const plan::PlanOptions& options,
                     Tracer& tracer, Report& report) {
  std::map<std::string, std::vector<double>> ms;
  std::map<std::string, double> counts;
  for (int rep = 0; rep < kStageReps; ++rep) {
    std::map<std::string, double> sum;
    std::map<std::string, double> count;
    SpanGroup group;
    const int root = group.open("bench.stages");
    for (const Entry& e : entries) {
      const algos::Algorithm& algo = algos::find(e.algo);
      std::int64_t t0 = now_ns();
      const auto built = plan::build_plan(algo.make_program(e.n), options);
      std::int64_t t1 = now_ns();
      group.add("plan.build", t0, t1, root);
      sum["plan.build_ms"] += ns_to_ms(t1 - t0);

      trace::Program program = algo.make_program(e.n);
      const trace::StepCounts before = program.profile();
      if (options.optimise && before.total() < options.optimise_step_limit) {
        opt::OptimizeOptions oo;
        oo.max_steps = options.optimise_step_limit;
        t0 = now_ns();
        opt::OptimizeResult r = opt::optimize(program, oo);
        t1 = now_ns();
        group.add("opt.optimize", t0, t1, root);
        sum["opt.optimize_ms"] += ns_to_ms(t1 - t0);
        if (r.after.total() < r.before.total()) {
          count["opt.steps_removed"] += static_cast<double>(r.before.total() - r.after.total());
          program = std::move(r.program);
        }
      }

      t0 = now_ns();
      const auto compiled = exec::CompiledProgram::get_or_compile(
          program, {.max_steps = options.compile_budget_steps});
      t1 = now_ns();
      group.add("exec.compile", t0, t1, root);
      sum["exec.compile_ms"] += ns_to_ms(t1 - t0);
      if (compiled != nullptr) {
        count["exec.segments"] += static_cast<double>(compiled->segments().size());
        count["exec.fused_ops"] += static_cast<double>(compiled->fused_ops());
        t0 = now_ns();
        const auto jitted = exec::JitProgram::get_or_emit(program, compiled, active_simd_isa());
        t1 = now_ns();
        group.add("exec.jit_emit", t0, t1, root);
        sum["exec.jit_emit_ms"] += ns_to_ms(t1 - t0);
        if (jitted != nullptr) {
          count["exec.jit_code_bytes"] += static_cast<double>(jitted->code_bytes());
        }
      }

      const int search = group.open("umm.search", root);
      for (const plan::ArrangementCandidate& c : built->provenance().candidates) {
        t0 = now_ns();
        bulk::simulate_units(program,
                             bulk::make_layout(program, options.reference_lanes,
                                               c.arrangement, c.param),
                             umm::Model::kUmm, options.machine);
        t1 = now_ns();
        group.add("umm.simulate", t0, t1, search);
      }
      group.close(search);
      const Span& s = group.spans()[static_cast<std::size_t>(search)];
      sum["umm.search_ms"] += ns_to_ms(s.end_ns - s.start_ns);
    }
    group.close(root);
    tracer.commit(static_cast<std::uint64_t>(rep), group);
    for (const auto& [name, value] : sum) ms[name].push_back(value);
    counts = count;  // deterministic: identical on every repetition
  }
  for (const auto& [name, values] : ms) report.set(name, median(values));
  for (const auto& [name, value] : counts) report.set(name, value);
}

// ------------------------------------------------------------------ bulk

constexpr std::size_t kRegistryLanes = 2048;
constexpr int kRegistryWarmups = 1;  ///< passes before timing

struct BulkCase {
  const algos::Algorithm* algo = nullptr;
  std::size_t n = 0;
  std::size_t lanes = 0;
  std::shared_ptr<const plan::ExecutionPlan> plan;
  std::vector<Word> inputs;
  std::vector<Word> expected;
  std::vector<Word> outputs;
};

/// One plan::run of one case.  `run_s` etc. are split out only when traced.
struct BulkSample {
  double total_s = 0;
  double run_s = 0;
  double lockstep_s = 0;
  double gather_s = 0;
  bulk::SchedulerStats sched;
  exec::Backend backend = exec::Backend::kInterpreted;
  std::uint64_t lane_steps = 0;
  std::uint64_t memory_words = 0;
};

BulkSample run_case(BulkCase& c, bool traced, std::uint64_t request_id, Tracer& tracer,
                    Report& report) {
  BulkSample sample;
  const std::int64_t t0 = now_ns();
  if (!traced) {
    const bulk::HostRunResult r = plan::run(*c.plan, c.inputs, c.lanes, &c.outputs);
    sample.total_s = ns_to_s(now_ns() - t0);
    sample.lockstep_s = r.seconds;
    sample.sched = r.sched;
    sample.backend = r.backend;
    sample.lane_steps = r.counts.total() * c.lanes;
    sample.memory_words = r.counts.memory() * c.lanes;
  } else {
    // The calls plan::run makes, one span each.
    const bulk::HostBulkExecutor executor(*c.plan, c.lanes);
    const std::int64_t t1 = now_ns();
    const bulk::HostRunResult r = executor.run(c.plan->program(), c.inputs);
    const std::int64_t t2 = now_ns();
    executor.gather_outputs(c.plan->program(), r.memory, c.outputs);
    const std::int64_t t3 = now_ns();
    sample.total_s = ns_to_s(t3 - t0);
    sample.run_s = ns_to_s(t2 - t1);
    sample.lockstep_s = r.seconds;
    sample.gather_s = ns_to_s(t3 - t2);
    sample.sched = r.sched;
    sample.backend = r.backend;
    sample.lane_steps = r.counts.total() * c.lanes;
    sample.memory_words = r.counts.memory() * c.lanes;

    // HostRunResult::seconds is clocked up to the end of run(), so the
    // lockstep span is placed at its tail; what precedes it is allocation
    // and zero-fill (plus scatter on the interpreted engine).
    const std::int64_t lockstep0 = std::max(t1, t2 - s_to_ns(r.seconds));
    SpanGroup group;
    const int root = group.add("bench.sample", t0, t3);
    group.add("bulk.executor", t0, t1, root);
    const int run = group.add("bulk.run", t1, t2, root);
    group.add("bulk.alloc_fill", t1, lockstep0, run);
    group.add("exec.lockstep", lockstep0, t2, run);
    group.add("bulk.gather", t2, t3, root);
    tracer.commit(request_id, group);
  }
  ++report.attempted;
  if (c.outputs != c.expected) {
    ++report.failed;
    report.correct = false;
  }
  return sample;
}

Report run_bulk_registry(std::uint64_t seed, double seconds, Tracer& tracer) {
  Report report;
  const std::vector<Entry>& entries = kRegistryEntries;
  const std::size_t lanes = kRegistryLanes;
  const plan::PlanOptions options{};
  std::vector<BulkCase> cases(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    cases[i].algo = &algos::find(entries[i].algo);
    cases[i].n = entries[i].n;
    cases[i].lanes = lanes;
  }

  SetupTimer setup(
      [&](SpanGroup& group, bool keep) {
        const int root = group.open("bench.setup");
        std::int64_t spent = 0;
        for (BulkCase& c : cases) {
          trace::Program program = c.algo->make_program(c.n);
          const std::int64_t t0 = now_ns();
          auto built = plan::build_plan(std::move(program), options);
          const std::int64_t t1 = now_ns();
          spent += t1 - t0;
          group.add("plan.build", t0, t1, root);
          if (keep) c.plan = std::move(built);
        }
        group.close(root);
        return ns_to_s(spent);
      },
      tracer);
  setup.burst();
  if (tracer.enabled()) stage_breakdown(entries, options, tracer, report);

  TimeUnits units = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    BulkCase& c = cases[i];
    Rng rng(seed * 1000003 + i);
    const std::size_t in_words = c.plan->input_words();
    c.inputs.reserve(lanes * in_words);
    c.expected.reserve(lanes * c.plan->output_words());
    for (std::size_t j = 0; j < lanes; ++j) {
      const std::vector<Word> one = c.algo->make_input(c.n, rng);
      c.inputs.insert(c.inputs.end(), one.begin(), one.end());
      const std::vector<Word> want = c.algo->reference(c.n, one);
      c.expected.insert(c.expected.end(), want.begin(), want.end());
    }
    units += c.plan->units_for_lanes(lanes);
  }
  const double lanes_per_pass = static_cast<double>(lanes * cases.size());
  report.set("sim_units_per_lane", static_cast<double>(units) / lanes_per_pass);

  for (int w = 0; w < kRegistryWarmups; ++w) {
    for (BulkCase& c : cases) run_case(c, false, 0, tracer, report);
  }

  // A traced run alternates traced and untraced passes; the gap between the
  // two medians is the tracing overhead.
  std::vector<double> pass_ms, traced_pass_ms;
  std::map<std::string, std::vector<double>> layer;  // per traced pass
  std::vector<std::vector<double>> lockstep_ms(cases.size());
  const std::int64_t deadline = now_ns() + s_to_ns(seconds);
  for (std::uint64_t pass = 0; now_ns() < deadline; ++pass) {
    const bool traced = tracer.enabled() && pass % 2 == 0;
    std::map<std::string, double> sum;
    double total_ms = 0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      // request_id = pass·64 + case: spans of one pass share the high bits.
      const BulkSample s = run_case(cases[i], traced, pass * 64 + i, tracer, report);
      total_ms += s.total_s * 1e3;
      if (pass == 0) report.note("backend." + cases[i].algo->name, exec::to_string(s.backend));
      if (!traced) continue;
      sum["bulk.run_ms"] += s.run_s * 1e3;
      sum["bulk.lockstep_ms"] += s.lockstep_s * 1e3;
      sum["bulk.alloc_fill_ms"] += (s.run_s - s.lockstep_s) * 1e3;
      sum["bulk.gather_ms"] += s.gather_s * 1e3;
      sum["bulk.sched_tasks"] += static_cast<double>(s.sched.tasks);
      sum["bulk.sched_steals"] += static_cast<double>(s.sched.steals);
      sum["bulk.sched_parks"] += static_cast<double>(s.sched.parks);
      sum["exec.lane_steps"] += static_cast<double>(s.lane_steps);
      // Computed from the program's memory-step count, not measured traffic.
      sum["exec.bytes_computed"] += static_cast<double>(s.memory_words * sizeof(Word));
      sum["exec.runs_jit"] += s.backend == exec::Backend::kJit ? 1 : 0;
      sum["exec.runs_compiled"] += s.backend == exec::Backend::kCompiled ? 1 : 0;
      sum["exec.runs_interpreted"] += s.backend == exec::Backend::kInterpreted ? 1 : 0;
      lockstep_ms[i].push_back(s.lockstep_s * 1e3);
    }
    (traced ? traced_pass_ms : pass_ms).push_back(total_ms);
    for (const auto& [name, value] : sum) layer[name].push_back(value);
    setup.top_up_if_due();
  }

  report.set("setup_s", setup.median_s());
  report.note("setups", static_cast<double>(setup.count()));
  const Quantiles q(pass_ms);
  report.note("samples", static_cast<double>(q.size()));
  report.set("latency_p50_ms", q.at(0.5));
  report.set("latency_p90_ms", q.at(0.9));
  report.set("lanes_per_s", q.at(0.5) > 0 ? lanes_per_pass / (q.at(0.5) * 1e-3) : 0);
  if (tracer.enabled()) {
    for (const auto& [name, values] : layer) report.set(name, median(values));
    for (std::size_t i = 0; i < cases.size(); ++i) {
      report.set("exec.lockstep_ms." + cases[i].algo->name, median(lockstep_ms[i]));
    }
    report.set("umm.sim_units", static_cast<double>(units));
    report.set("trace.overhead_ms", median(traced_pass_ms) - q.at(0.5));
    report.note("traced_samples", static_cast<double>(traced_pass_ms.size()));
  }
  return report;
}

// ------------------------------------------------------------------ serving

struct Session {
  const char* id;
  const char* algo;
  std::size_t n;
};

const std::vector<Session> kSessions = {
    {"prefix-sums/n=256", "prefix-sums", 256},
    {"prefix-sums/n=1024", "prefix-sums", 1024},
    {"bitonic-sort/n=64", "bitonic-sort", 64},
    {"horner/n=256", "horner", 256},
};

constexpr double kOpenLoopRate = 40000;      ///< serve-mixed phase A, jobs/s
constexpr std::int64_t kClosedLoopDepth = 1024;  ///< serve-mixed phase B
/// Phase B's generator sleeps at kClosedLoopDepth outstanding and wakes
/// when completions bring it down to this, then refills in one burst: one
/// wake-up per 256 jobs rather than per job.
constexpr std::int64_t kRefillAt = kClosedLoopDepth * 3 / 4;
constexpr std::size_t kNetConnections = 2;
constexpr std::size_t kNetDepth = 64;
constexpr std::size_t kPoolInputs = 128;     ///< distinct inputs per session
constexpr std::uint64_t kSampleEvery = 16;   ///< traced: 1 job in 16 gets spans
/// Request ids of traced closed-loop jobs start here (open-loop jobs count
/// from 0).
constexpr std::uint64_t kClosedLoopIds = std::uint64_t{1} << 40;

serve::ServiceOptions service_options() {
  serve::ServiceOptions options;
  options.queue_capacity = 4096;
  options.policy = serve::OverflowPolicy::kBlock;
  options.batcher.max_batch_lanes = 512;
  options.batcher.max_batch_delay = std::chrono::milliseconds(1);
  options.executors = 2;
  return options;
}

std::vector<Entry> session_entries() {
  std::vector<Entry> entries;
  for (const Session& s : kSessions) entries.push_back({s.algo, s.n});
  return entries;
}

/// The planning options BulkService derives for its sessions.
plan::PlanOptions session_plan_options() {
  serve::ServiceOptions options = service_options();
  options.prepare.reference_lanes = options.batcher.max_batch_lanes;
  options.prepare.workers = options.workers_per_batch;
  return options.prepare.plan_options();
}

/// Seeded inputs per session, with their reference outputs.
struct InputPool {
  std::vector<std::vector<std::vector<Word>>> inputs;    ///< [session][k]
  std::vector<std::vector<std::vector<Word>>> expected;  ///< [session][k]

  explicit InputPool(std::uint64_t seed) {
    for (std::size_t s = 0; s < kSessions.size(); ++s) {
      const algos::Algorithm& algo = algos::find(kSessions[s].algo);
      Rng rng(seed * 7919 + s);
      inputs.emplace_back();
      expected.emplace_back();
      for (std::size_t k = 0; k < kPoolInputs; ++k) {
        inputs[s].push_back(algo.make_input(kSessions[s].n, rng));
        expected[s].push_back(algo.reference(kSessions[s].n, inputs[s].back()));
      }
    }
  }
};

/// One cold serving set-up: a fresh BulkService with every session
/// registered and, when `server` is given, a net::Server bound to it.
/// Returns the seconds spent in register_program and the server start.
double serving_setup(SpanGroup& group, std::unique_ptr<serve::BulkService>& service,
                     std::unique_ptr<net::Server>* server) {
  if (server != nullptr) server->reset();  // it refers to the old service
  service = std::make_unique<serve::BulkService>(service_options());
  const int root = group.open("bench.setup");
  std::int64_t spent = 0;
  for (const Session& s : kSessions) {
    trace::Program program = algos::find(s.algo).make_program(s.n);
    const std::int64_t t0 = now_ns();
    service->register_program(s.id, std::move(program));
    const std::int64_t t1 = now_ns();
    spent += t1 - t0;
    group.add("serve.register_program", t0, t1, root);
  }
  if (server != nullptr) {
    const std::int64_t t0 = now_ns();
    *server = std::make_unique<net::Server>(*service, net::ServerOptions{});
    const std::int64_t t1 = now_ns();
    spent += t1 - t0;
    group.add("net.server_start", t0, t1, root);
  }
  group.close(root);
  return ns_to_s(spent);
}

/// Outcome counters shared with completion callbacks.
struct Sink {
  std::atomic<std::uint64_t> done{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> mismatched{0};

  void wait_for(std::uint64_t submitted) const {
    while (done.load(std::memory_order_acquire) < submitted) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
};

/// One job's timeline, relative to its due time (ns).  The generator fills
/// due/submit, the completion callback the rest; both finish before the
/// record is read (Sink::done is the release/acquire edge).
struct JobRecord {
  std::int64_t due_ns = 0;
  std::int32_t submit0 = 0;  ///< try_submit entered
  std::int32_t submit1 = 0;  ///< try_submit returned
  std::int32_t callback = 0;
  std::int32_t queue_delay = 0;  ///< JobResult::queue_delay
  std::int32_t latency = 0;      ///< JobResult::latency (enqueue → completion)
  std::uint8_t ok = 0;
};

std::int32_t narrow_ns(std::int64_t ns) {
  return static_cast<std::int32_t>(std::clamp<std::int64_t>(ns, INT32_MIN, INT32_MAX));
}

std::int64_t to_ns(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

/// The service and the state its completion callbacks touch.  Members are
/// destroyed in reverse order, so the service (which drains every accepted
/// job on destruction) goes first, even on an exception path.
struct ServeRig {
  ServeRig(std::uint64_t seed, bool traced) : pool(seed) {
    if (traced) sampled.reserve(std::size_t{1} << 17);
  }

  const InputPool pool;
  Sink sink;
  std::atomic<std::int64_t> outstanding{0};  ///< closed loop only
  std::mutex wake_mutex;
  std::condition_variable wake;
  /// Callbacks hold pointers into these, so they only grow within the
  /// capacity reserved before the first job.
  std::vector<JobRecord> warmup, open;
  std::vector<JobRecord> sampled;  ///< traced closed-loop jobs, 1 in kSampleEvery
  std::uint64_t submitted = 0;
  std::uint64_t would_block = 0;
  std::unique_ptr<serve::BulkService> service;
};

/// Submits input k of session s without blocking; under the block policy a
/// full queue answers kWouldBlock and the job is retried until admitted.
/// The callback checks the output and fills `record` when given.
void submit(ServeRig& rig, std::size_t s, std::size_t k, JobRecord* record, bool closed_loop) {
  const std::vector<Word>& expected = rig.pool.expected[s][k];
  const auto done = [&rig, &expected, record, closed_loop](serve::JobResult&& r) {
    const std::int64_t at = now_ns();
    const bool completed = r.status == serve::JobStatus::kCompleted;
    const bool matches = !completed || r.output == expected;
    if (record != nullptr) {
      record->callback = narrow_ns(at - record->due_ns);
      record->queue_delay = narrow_ns(to_ns(r.queue_delay));
      record->latency = narrow_ns(to_ns(r.latency));
      record->ok = completed && matches ? 1 : 0;
    }
    if (!completed || !matches) rig.sink.failed.fetch_add(1, std::memory_order_relaxed);
    if (!matches) rig.sink.mismatched.fetch_add(1, std::memory_order_relaxed);
    if (closed_loop &&
        rig.outstanding.fetch_sub(1, std::memory_order_acq_rel) == kRefillAt + 1) {
      const std::lock_guard<std::mutex> lock(rig.wake_mutex);
      rig.wake.notify_one();
    }
    rig.sink.done.fetch_add(1, std::memory_order_release);
  };
  while (rig.service->try_submit(kSessions[s].id, rig.pool.inputs[s][k],
                                 serve::SubmitOptions{}, done) ==
         serve::BulkService::TrySubmit::kWouldBlock) {
    ++rig.would_block;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

/// Open loop for `seconds`: Poisson arrivals at kOpenLoopRate, each job timed
/// from its due time, one record per job appended to `records`.  Returns
/// once every job has completed.
void open_loop(ServeRig& rig, double seconds, Rng& rng, std::vector<JobRecord>& records) {
  const std::int64_t start = now_ns();
  const std::int64_t end = start + s_to_ns(seconds);
  double due_s = 0;
  while (records.size() < records.capacity()) {
    due_s += -std::log(1.0 - rng.next_double()) / kOpenLoopRate;
    const std::int64_t due = start + s_to_ns(due_s);
    if (due >= end) break;
    const std::size_t s = rng.next_below(kSessions.size());
    const std::size_t k = rng.next_below(kPoolInputs);
    if (now_ns() < due) {
      std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due)));
    }
    JobRecord& record = records.emplace_back();
    record.due_ns = due;
    const std::int64_t t0 = now_ns();
    submit(rig, s, k, &record, false);
    record.submit0 = narrow_ns(t0 - due);
    record.submit1 = narrow_ns(now_ns() - due);
    ++rig.submitted;
  }
  rig.sink.wait_for(rig.submitted);
}

/// Reserves room for the records of `seconds` of open loop.
void reserve_open_loop(std::vector<JobRecord>& records, double seconds) {
  records.reserve(static_cast<std::size_t>(kOpenLoopRate * seconds * 1.2) + 4096);
}

/// Closed loop for `seconds`, holding kRefillAt..kClosedLoopDepth jobs
/// outstanding; then stops submitting and waits for every job.  Returns the
/// jobs completed per second while it was submitting.
double closed_loop(ServeRig& rig, double seconds, Rng& rng, bool traced,
                   std::vector<double>& submit_us) {
  const std::int64_t start = now_ns();
  const std::int64_t end = start + s_to_ns(seconds);
  const std::uint64_t done0 = rig.sink.done.load();
  std::int64_t now = start;
  for (; now < end; now = now_ns()) {
    if (rig.outstanding.load(std::memory_order_acquire) >= kClosedLoopDepth) {
      std::unique_lock<std::mutex> lock(rig.wake_mutex);
      rig.wake.wait_for(lock, std::chrono::milliseconds(1), [&] {
        return rig.outstanding.load(std::memory_order_acquire) <= kRefillAt;
      });
      continue;
    }
    const std::size_t s = rng.next_below(kSessions.size());
    const std::size_t k = rng.next_below(kPoolInputs);
    JobRecord* record = nullptr;
    if (traced && rig.submitted % kSampleEvery == 0 &&
        rig.sampled.size() < rig.sampled.capacity()) {
      record = &rig.sampled.emplace_back();
    }
    rig.outstanding.fetch_add(1, std::memory_order_acq_rel);
    const std::int64_t t0 = now_ns();
    if (record != nullptr) record->due_ns = t0;
    submit(rig, s, k, record, true);
    const std::int64_t t1 = now_ns();
    if (traced) submit_us.push_back(ns_to_us(t1 - t0));
    if (record != nullptr) record->submit1 = narrow_ns(t1 - t0);
    ++rig.submitted;
  }
  const double rate = static_cast<double>(rig.sink.done.load() - done0) / ns_to_s(now - start);
  rig.sink.wait_for(rig.submitted);
  return rate;
}

/// The spans of one sampled job, reconstructed from its timeline: the
/// boundaries inside the service come from JobResult's durations, anchored
/// at the try_submit call (the service stamps enqueue time inside it).
void commit_job_spans(const JobRecord& r, bool open, std::uint64_t id, Tracer& tracer) {
  const std::int64_t due = r.due_ns;
  const std::int64_t s0 = due + r.submit0;
  const std::int64_t s1 = due + r.submit1;
  const std::int64_t cb = due + r.callback;
  const std::int64_t queued = std::max(s1, s0 + r.queue_delay);
  const std::int64_t finished = std::max(queued, s0 + r.latency);
  SpanGroup group;
  const int root = group.add("serve.job", open ? due : s0, cb);
  if (open) group.add("loadgen.late", due, s0, root);
  group.add("serve.try_submit", s0, s1, root);
  group.add("serve.queue", s1, queued, root);
  group.add("serve.execute", queued, std::min(finished, cb), root);
  group.add("serve.resolve", std::min(finished, cb), cb, root);
  tracer.commit(id, group);
}

Report run_serve_mixed(std::uint64_t seed, double seconds, Tracer& tracer) {
  Report report;
  ServeRig rig(seed, tracer.enabled());
  SetupTimer setup(
      [&](SpanGroup& group, bool keep) {
        std::unique_ptr<serve::BulkService> scratch;
        return serving_setup(group, keep ? rig.service : scratch, nullptr);
      },
      tracer);
  setup.burst();
  if (tracer.enabled()) stage_breakdown(session_entries(), session_plan_options(), tracer, report);

  // Both phases run in segments of kTopUpEveryS with a set-up top-up between
  // them, so set-ups sample the host across the whole run.
  Rng rng(seed);
  const double warmup_s = std::min(1.0, seconds / 10);
  const double open_s = seconds / 2;
  const double closed_s = seconds - open_s;
  reserve_open_loop(rig.warmup, warmup_s);
  open_loop(rig, warmup_s, rng, rig.warmup);
  const serve::Metrics& metrics = rig.service->metrics();
  const double units0 = static_cast<double>(metrics.batch_sim_units.sum());
  const double lanes0 = static_cast<double>(metrics.batch_occupancy.sum());

  // Phase A: open loop.  Its batches are sized by the arrival process, so
  // their simulated units per lane repeat; phase B's depend on timing.
  reserve_open_loop(rig.open, open_s);
  for (double left = open_s; left > 0; left -= kTopUpEveryS) {
    open_loop(rig, std::min(kTopUpEveryS, left), rng, rig.open);
    setup.top_up(kSetupTopUpS);
  }
  const std::vector<JobRecord>& open = rig.open;
  const double units1 = static_cast<double>(metrics.batch_sim_units.sum());
  const double lanes1 = static_cast<double>(metrics.batch_occupancy.sum());
  const std::uint64_t open_jobs = rig.submitted;

  // Phase B: closed loop.  The rate is the median over segments, so a burst
  // of outside load moves it less.
  std::vector<double> submit_us, segment_rates;
  for (double left = closed_s; left > 0; left -= kTopUpEveryS) {
    segment_rates.push_back(
        closed_loop(rig, std::min(kTopUpEveryS, left), rng, tracer.enabled(), submit_us));
    setup.top_up(kSetupTopUpS);
  }
  rig.service->stop();
  const serve::MetricsSnapshot snap = rig.service->snapshot();
  report.set("setup_s", setup.median_s());
  report.note("setups", static_cast<double>(setup.count()));

  report.attempted = rig.submitted;
  report.failed = rig.sink.failed.load();
  report.correct = rig.sink.mismatched.load() == 0;
  report.note("would_block", static_cast<double>(rig.would_block));
  report.note("open_loop_jobs", static_cast<double>(open.size()));
  report.note("closed_loop_jobs", static_cast<double>(rig.submitted - open_jobs));

  std::vector<double> latency_ms, late_us, queue_us, execute_us, lag_us;
  std::vector<double> sampled_ms, unsampled_ms;
  latency_ms.reserve(open.size());
  for (std::size_t i = 0; i < open.size(); ++i) {
    const JobRecord& r = open[i];
    late_us.push_back(ns_to_us(r.submit0));
    if (r.ok == 0) continue;  // a failed job misses every latency limit
    const double ms = ns_to_ms(r.callback);
    latency_ms.push_back(ms);
    if (!tracer.enabled()) continue;
    queue_us.push_back(ns_to_us(r.queue_delay));
    execute_us.push_back(ns_to_us(r.latency - r.queue_delay));
    lag_us.push_back(ns_to_us(r.callback - r.submit0 - r.latency));
    if (i % kSampleEvery == 0) {
      commit_job_spans(r, true, i, tracer);
      sampled_ms.push_back(ms);
    } else {
      unsampled_ms.push_back(ms);
    }
  }
  const Quantiles latency(latency_ms);
  report.note("latency_samples", static_cast<double>(latency.size()));
  report.set("latency_p50_ms", latency.at(0.5));
  report.set("latency_p90_ms", latency.at(0.9));
  report.set("lanes_per_s", median(segment_rates));
  report.set("sim_units_per_lane", lanes1 > lanes0 ? (units1 - units0) / (lanes1 - lanes0) : 0);

  if (tracer.enabled()) {
    for (std::size_t i = 0; i < rig.sampled.size(); ++i) {
      commit_job_spans(rig.sampled[i], false, kClosedLoopIds + i, tracer);
    }
    const Quantiles submit_call(submit_us), queue(queue_us), execute(execute_us), lag(lag_us),
        late(late_us);
    report.set("serve.submit_us_p50", submit_call.at(0.5));
    report.set("serve.submit_us_p90", submit_call.at(0.9));
    report.set("serve.queue_delay_us_p50", queue.at(0.5));
    report.set("serve.queue_delay_us_p90", queue.at(0.9));
    report.set("serve.execute_us_p50", execute.at(0.5));
    report.set("serve.execute_us_p90", execute.at(0.9));
    report.set("serve.resolve_lag_us_p50", lag.at(0.5));
    report.set("serve.resolve_lag_us_p90", lag.at(0.9));
    report.set("serve.p99_us", latency.at(0.99) * 1e3);
    report.set("loadgen.late_us_p99", late.at(0.99));
    report.set("loadgen.late_us_max", late.max());
    report.set("trace.overhead_ms", median(sampled_ms) - median(unsampled_ms));
  }
  report.set("serve.batch_occupancy_mean", snap.mean_batch_occupancy);
  report.set("serve.batches", static_cast<double>(snap.batches));
  report.set("serve.flush_size", static_cast<double>(snap.flush_size));
  report.set("serve.flush_delay", static_cast<double>(snap.flush_delay));
  report.set("serve.flush_deadline", static_cast<double>(snap.flush_deadline));
  report.set("serve.flush_drain", static_cast<double>(snap.flush_drain));
  report.set("serve.rejected", static_cast<double>(snap.rejected));
  report.set("serve.shed", static_cast<double>(snap.shed));
  report.set("serve.failed", static_cast<double>(snap.failed));
  return report;
}

// ------------------------------------------------------------------ network

/// The net load runs in segments: segment 0 warms up, the rest are measured.
/// Between segments every connection drains and the main thread tops up the
/// set-up samples; `gate` holds the connections until it has.
struct NetSchedule {
  explicit NetSchedule(std::size_t count) : segments(count) {}

  const std::size_t segments;
  std::barrier<> gate{static_cast<std::ptrdiff_t>(kNetConnections + 1)};
  std::atomic<std::int64_t> segment_end{0};  ///< published before each release
};

struct ConnOutcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
  std::vector<std::uint64_t> completed;  ///< per segment, answered before its end
  std::vector<double> rtt_us, server_us, wire_us, queue_us;
  std::vector<double> sampled_ms, unsampled_ms;
};

/// One closed-loop connection, kNetDepth requests in flight, following
/// `schedule`.  Requests sent and answered inside a measured segment are the
/// measured ones.
void net_connection(const std::string& host, std::uint16_t port, const InputPool& pool,
                    std::uint64_t seed, std::uint64_t conn, NetSchedule& schedule,
                    Tracer& tracer, ConnOutcome& out) {
  struct InFlight {
    std::uint32_t id;
    std::size_t session, k;
    std::int64_t send0, send1;
    std::uint64_t index;
  };
  Rng rng(seed);
  net::Client client(host, port);
  if (!client.connected()) throw std::runtime_error("connect failed: " + client.error());
  out.completed.assign(schedule.segments, 0);
  std::deque<InFlight> in_flight;
  std::uint64_t index = 0;

  for (std::size_t segment = 0; segment < schedule.segments; ++segment) {
    schedule.gate.arrive_and_wait();  // the main thread published segment_end
    const std::int64_t end = schedule.segment_end.load();
    const bool measured = segment > 0;

    const auto drain_one = [&] {
      const InFlight f = in_flight.front();
      in_flight.pop_front();
      const net::Client::Result r = client.wait(f.id);
      const std::int64_t back = now_ns();
      const bool matches = !r.ok() || r.output == pool.expected[f.session][f.k];
      if (!r.ok() || !matches) ++out.failed;
      if (!matches) ++out.mismatched;
      if (!r.ok() || !matches || back > end) return;
      ++out.completed[segment];
      if (!measured) return;
      const double rtt = ns_to_us(back - f.send0);
      const auto server = static_cast<double>(r.latency_us);
      out.rtt_us.push_back(rtt);
      if (!tracer.enabled()) return;
      out.server_us.push_back(server);
      out.wire_us.push_back(rtt - server);
      out.queue_us.push_back(static_cast<double>(r.queue_delay_us));
      if (f.index % kSampleEvery != 0) {
        out.unsampled_ms.push_back(rtt * 1e-3);
        return;
      }
      out.sampled_ms.push_back(rtt * 1e-3);
      // The server reports durations, not timestamps: its span is placed
      // right after the send returned, and the wire span takes the rest.
      const std::int64_t served =
          std::min(back, f.send1 + static_cast<std::int64_t>(r.latency_us) * 1000);
      SpanGroup group;
      const int root = group.add("net.request", f.send0, back);
      group.add("net.submit_async", f.send0, f.send1, root);
      group.add("serve.latency", f.send1, served, root);
      group.add("net.wire", served, back, root);
      tracer.commit((conn << 40) | f.index, group);
    };

    while (now_ns() < end) {
      if (in_flight.size() >= kNetDepth) {
        drain_one();
        continue;
      }
      const std::size_t s = rng.next_below(kSessions.size());
      const std::size_t k = rng.next_below(kPoolInputs);
      const std::int64_t t0 = now_ns();
      const std::optional<std::uint32_t> id =
          client.submit_async(kSessions[s].id, pool.inputs[s][k]);
      const std::int64_t t1 = now_ns();
      ++out.attempted;
      if (!id) {
        ++out.failed;
        continue;
      }
      in_flight.push_back({*id, s, k, t0, t1, index++});
    }
    while (!in_flight.empty()) drain_one();
    schedule.gate.arrive_and_wait();  // segment drained
  }
}

Report run_net_loopback(std::uint64_t seed, double seconds, Tracer& tracer) {
  Report report;
  const InputPool pool(seed);
  std::unique_ptr<serve::BulkService> service;
  std::unique_ptr<net::Server> server;  // declared last: stops before the service
  SetupTimer setup(
      [&](SpanGroup& group, bool keep) {
        std::unique_ptr<serve::BulkService> scratch_service;
        std::unique_ptr<net::Server> scratch_server;  // destroyed first
        return keep ? serving_setup(group, service, &server)
                    : serving_setup(group, scratch_service, &scratch_server);
      },
      tracer);
  setup.burst();
  if (tracer.enabled()) stage_breakdown(session_entries(), session_plan_options(), tracer, report);

  // Segment 0 warms up; then kTopUpEveryS-long measured segments.
  std::vector<double> lengths = {std::min(1.0, seconds / 10)};
  for (double left = seconds; left > 0; left -= kTopUpEveryS) {
    lengths.push_back(std::min(kTopUpEveryS, left));
  }
  NetSchedule schedule(lengths.size());
  std::vector<ConnOutcome> outcomes(kNetConnections);
  std::vector<std::exception_ptr> errors(kNetConnections + 1);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kNetConnections; ++c) {
      threads.emplace_back([&, c] {
        try {
          net_connection(server->host(), server->port(), pool, seed * 6271 + c, c, schedule,
                         tracer, outcomes[c]);
        } catch (...) {
          errors[c] = std::current_exception();
          schedule.gate.arrive_and_drop();
        }
      });
    }
    try {
      for (const double length : lengths) {
        schedule.segment_end.store(now_ns() + s_to_ns(length));
        schedule.gate.arrive_and_wait();  // release the connections
        schedule.gate.arrive_and_wait();  // every connection drained
        setup.top_up(kSetupTopUpS);
      }
    } catch (...) {
      errors.back() = std::current_exception();
      schedule.segment_end.store(0);  // remaining segments end at once
      schedule.gate.arrive_and_drop();
    }
    for (std::thread& t : threads) t.join();
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  server->stop();
  service->stop();
  const net::ServerStatsSnapshot stats = server->stats();
  report.set("setup_s", setup.median_s());
  report.note("setups", static_cast<double>(setup.count()));

  ConnOutcome all;
  const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  std::vector<double> segment_rates(lengths.size() - 1);
  for (const ConnOutcome& o : outcomes) {
    all.attempted += o.attempted;
    all.failed += o.failed;
    all.mismatched += o.mismatched;
    for (std::size_t i = 1; i < lengths.size(); ++i) {
      segment_rates[i - 1] += static_cast<double>(o.completed[i]) / lengths[i];
    }
    append(all.rtt_us, o.rtt_us);
    append(all.server_us, o.server_us);
    append(all.wire_us, o.wire_us);
    append(all.queue_us, o.queue_us);
    append(all.sampled_ms, o.sampled_ms);
    append(all.unsampled_ms, o.unsampled_ms);
  }
  report.attempted = all.attempted;
  report.failed = all.failed;
  report.correct = all.mismatched == 0;

  const Quantiles rtt(all.rtt_us);
  report.note("latency_samples", static_cast<double>(rtt.size()));
  report.set("latency_p50_ms", rtt.at(0.5) * 1e-3);
  report.set("latency_p90_ms", rtt.at(0.9) * 1e-3);
  report.set("lanes_per_s", median(segment_rates));
  const serve::Metrics& metrics = service->metrics();
  const auto lanes = static_cast<double>(metrics.batch_occupancy.sum());
  report.set("sim_units_per_lane",
             lanes > 0 ? static_cast<double>(metrics.batch_sim_units.sum()) / lanes : 0);

  if (tracer.enabled()) {
    const Quantiles server_lat(all.server_us), wire(all.wire_us), queue(all.queue_us);
    report.set("net.rtt_us_p99", rtt.at(0.99));
    report.set("net.server_latency_us_p50", server_lat.at(0.5));
    report.set("net.server_latency_us_p90", server_lat.at(0.9));
    report.set("net.wire_us_p50", wire.at(0.5));
    report.set("net.wire_us_p90", wire.at(0.9));
    report.set("net.queue_delay_us_p50", queue.at(0.5));
    report.set("trace.overhead_ms", median(all.sampled_ms) - median(all.unsampled_ms));
  }
  report.set("net.frames_received", static_cast<double>(stats.frames_received));
  report.set("net.would_block", static_cast<double>(stats.would_block));
  report.set("net.error_responses", static_cast<double>(stats.error_responses));
  report.set("net.protocol_errors", static_cast<double>(stats.protocol_errors));
  report.set("net.ledger_ok", stats.exactly_once() ? 1 : 0);
  if (!stats.exactly_once()) report.note("ledger", "violated");
  return report;
}

// ------------------------------------------------------------------ output

const std::vector<std::string> kWorkloads = {"bulk-registry", "serve-mixed", "net-loopback"};

std::string format_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
std::string result_json(const Report& report, const std::vector<MetricSpec>& specs) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = report.metrics.find(specs[i].name);
    const double value = it == report.metrics.end() ? 0.0 : it->second;
    out += std::string(i == 0 ? "" : ", ") + "\"" + specs[i].name +
           "\": {\"value\": " + format_number(value) + ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

int run(const cli::Args& args) {
  const std::string workload = args.get("workload", "");
  if (std::find(kWorkloads.begin(), kWorkloads.end(), workload) == kWorkloads.end()) {
    std::fprintf(stderr, "obx_bench: --workload must be one of bulk-registry, serve-mixed, "
                         "net-loopback\n");
    return 2;
  }
  const std::int64_t seed = args.get_int("seed", 1);
  const double seconds = args.get_double("seconds", 35);
  const std::int64_t trace = args.get_int("trace", 0);
  if (seed < 0 || !(seconds > 0) || (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "obx_bench: need --seed >= 0, --seconds > 0, --trace 0|1\n");
    return 2;
  }
  const std::filesystem::path out_dir = args.get("out-dir", "bench_results/obx_bench");
  Tracer tracer(trace == 1);
  const auto useed = static_cast<std::uint64_t>(seed);

  Report report;
  if (workload == "bulk-registry") {
    report = run_bulk_registry(useed, seconds, tracer);
  } else if (workload == "serve-mixed") {
    report = run_serve_mixed(useed, seconds, tracer);
  } else {
    report = run_net_loopback(useed, seconds, tracer);
  }
  report.set("peak_rss_mb", peak_rss_mib());

  std::filesystem::create_directories(out_dir);
  if (tracer.enabled()) {
    summarize_trace(tracer.spans(), {"bench.sample", "serve.job", "net.request"}, report);
    write_trace(out_dir / ("trace_" + workload + ".json"), workload, tracer);
  }

  const std::vector<MetricSpec> specs = tracer.enabled() ? per_layer_specs() : kEndToEnd;
  std::printf("obx_bench %s seed=%lld seconds=%g trace=%lld\n", workload.c_str(),
              static_cast<long long>(seed), seconds, static_cast<long long>(trace));
  for (const auto& [name, value] : report.notes) {
    std::printf("  # %-28s %s\n", name.c_str(), value.c_str());
  }
  std::printf("  %-30s %llu\n", "ops_attempted", static_cast<unsigned long long>(report.attempted));
  std::printf("  %-30s %llu\n", "ops_failed", static_cast<unsigned long long>(report.failed));
  std::printf("  %-30s %s\n", "outputs_correct", report.correct ? "yes" : "NO");
  for (const MetricSpec& m : specs) {
    const auto it = report.metrics.find(m.name);
    std::printf("  %-30s %.6g %s\n", m.name.c_str(),
                it == report.metrics.end() ? 0.0 : it->second, m.unit.c_str());
  }
  // The saved record also names its run, so compare.py can group and pair.
  const std::string json = result_json(report, specs);
  const std::filesystem::path record =
      out_dir / (workload + (tracer.enabled() ? ".traced.json" : ".json"));
  std::FILE* f = std::fopen(record.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + record.string());
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %lld, \"seconds\": %s, \"trace\": %lld, %s\n",
               workload.c_str(), static_cast<long long>(seed), format_number(seconds).c_str(),
               static_cast<long long>(trace), json.c_str() + 1);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + record.string());
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const cli::Args args = cli::Args::parse(argc, argv, {},
                                            {"workload", "seed", "seconds", "trace", "out-dir"});
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obx_bench: %s\n", e.what());
    return 1;
  }
}
