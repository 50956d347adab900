// google-benchmark microbenches: raw throughput of the execution engines.
//
// Results are also written as JSON to bench_results/micro_executors.json
// (override with --benchmark_out=...) so CI can track the perf trajectory.
#include <benchmark/benchmark.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "algos/algorithm.hpp"
#include "algos/bitonic_sort.hpp"
#include "algos/prefix_sums.hpp"
#include "algos/tea_cipher.hpp"
#include "bulk/bulk.hpp"
#include "bulk/core_pool.hpp"
#include "bulk/host_executor.hpp"
#include "bulk/timing_estimator.hpp"
#include "bulk/umm_executor.hpp"
#include "common/rng.hpp"
#include "common/simd_isa.hpp"
#include "exec/backend.hpp"
#include "plan/plan_cache.hpp"
#include "plan/planner.hpp"
#include "trace/step.hpp"
#include "trace/value.hpp"
#include "umm/cost_model.hpp"

namespace {

using namespace obx;

std::vector<Word> make_inputs(std::size_t n, std::size_t p) {
  Rng rng(1);
  std::vector<Word> inputs;
  inputs.reserve(n * p);
  for (std::size_t j = 0; j < p; ++j) {
    const auto one = algos::prefix_sums_random_input(n, rng);
    inputs.insert(inputs.end(), one.begin(), one.end());
  }
  return inputs;
}

void BM_BulkAlu(benchmark::State& state) {
  const std::size_t lanes = static_cast<std::size_t>(state.range(0));
  std::vector<Word> a(lanes, trace::from_f64(1.5)), b(lanes, trace::from_f64(2.5));
  std::vector<Word> c(lanes, 0), dst(lanes, 0);
  for (auto _ : state) {
    trace::bulk_alu(trace::Op::kAddF, dst.data(), a.data(), b.data(), c.data(), lanes);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_BulkAlu)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_HostExecutor(benchmark::State& state) {
  const std::size_t n = 64;
  const std::size_t p = static_cast<std::size_t>(state.range(0));
  const trace::Program program = algos::prefix_sums_program(n);
  const std::vector<Word> inputs = make_inputs(n, p);
  // One-off plans (plan::one_off) run `program` itself on one engine.
  const bulk::HostBulkExecutor exec(*plan::build_plan(program, plan::one_off({.workers = 1})),
                                    p);
  for (auto _ : state) {
    auto run = exec.run(program, inputs);
    benchmark::DoNotOptimize(run.memory.data());
  }
  // lane-steps per second.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p * program.profile().total()));
}
BENCHMARK(BM_HostExecutor)->Arg(1 << 10)->Arg(1 << 14);

void BM_Fig11Backend(benchmark::State& state) {
  // The acceptance workload: Fig. 11 prefix sums at n = 1024, p = 4096 on a
  // single worker, interpreted vs compiled vs jit (first arg).  The second
  // arg picks the path: 0 = the image path, run() (allocation, lockstep and
  // the copy-out of every lane's whole memory, lane-major); 1 = the output
  // path, run_outputs(), which copies only each tile's output rows out and
  // builds no image.  The label reports the backend that actually ran,
  // so on hosts where emission is unsupported the jit row is visibly the
  // compiled fallback rather than a silently mislabelled number.
  const std::size_t n = 1024;
  const std::size_t p = 4096;
  const exec::Backend backend = state.range(0) == 2   ? exec::Backend::kJit
                                : state.range(0) == 1 ? exec::Backend::kCompiled
                                                      : exec::Backend::kInterpreted;
  const bool output_path = state.range(1) != 0;
  const trace::Program program = algos::prefix_sums_program(n);
  const std::vector<Word> inputs = make_inputs(n, p);
  const bulk::HostBulkExecutor executor(
      *plan::build_plan(program, plan::one_off({.backend = backend, .workers = 1})), p);
  exec::Backend resolved = backend;
  std::vector<Word> outputs;
  for (auto _ : state) {
    auto run = output_path ? executor.run_outputs(program, inputs, outputs)
                           : executor.run(program, inputs);
    resolved = run.backend;
    benchmark::DoNotOptimize(run.memory.data());
    benchmark::DoNotOptimize(outputs.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p * program.profile().total()));
  state.SetLabel(to_string(resolved) + (output_path ? "/outputs" : "/image"));
}
BENCHMARK(BM_Fig11Backend)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Unit(benchmark::kMillisecond);

void BM_DispatchOverhead(benchmark::State& state) {
  // Dispatch cost in isolation: prefix sums at n = 64 over a single lane
  // tile (p = 64), so the whole memory image is L1-resident, each fused op
  // does a few vectors of work, and the per-op dispatch — the FusedKind
  // switch plus the opcode switch inside dispatch_op in the compiled
  // engine, versus the patched direct call in the jit — is a first-order
  // cost.  n is kept small so the emitted thunk chain (~28 B per fused op)
  // stays inside L1i; much larger programs turn this into an icache bench
  // instead.  One worker; arg 0 = compiled, arg 1 = jit.  steps_per_s is
  // the headline dispatch-rate counter.
  const std::size_t n = 64;
  const std::size_t p = 64;
  const exec::Backend backend =
      state.range(0) != 0 ? exec::Backend::kJit : exec::Backend::kCompiled;
  const trace::Program program = algos::prefix_sums_program(n);
  const std::vector<Word> inputs = make_inputs(n, p);
  const bulk::HostBulkExecutor executor(
      *plan::build_plan(program, plan::one_off({.backend = backend, .workers = 1})), p);
  exec::Backend resolved = backend;
  for (auto _ : state) {
    auto run = executor.run(program, inputs);
    resolved = run.backend;
    benchmark::DoNotOptimize(run.memory.data());
  }
  state.counters["steps_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(program.profile().total()),
      benchmark::Counter::kIsRate);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p * program.profile().total()));
  state.SetLabel(to_string(resolved));
}
BENCHMARK(BM_DispatchOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_Fig11BackendScaling(benchmark::State& state) {
  // Thread-per-core scaling on the acceptance workload: Fig. 11 prefix sums
  // at n = 1024, p = 4096, compiled backend, with the lane tiles spread over
  // the CorePool.  Arg = worker count (0 = all cores via
  // default_worker_count()); workers = 1 is the inline baseline, so
  // jobs/s(N) / jobs/s(1) is the scheduler's measured speedup.  The rows
  // are timed on the wall clock: the submitter's CPU time leaves out the
  // pool threads' work and its own waits, so a rate divided by it would
  // rise as the submitter does less.  Steal and park totals ride along as
  // counters — a steal-heavy run with low speedup points at tile-grain or
  // wakeup tuning, not memory bandwidth.
  const std::size_t n = 1024;
  const std::size_t p = 4096;
  const unsigned workers = state.range(0) != 0
                               ? static_cast<unsigned>(state.range(0))
                               : bulk::default_worker_count();
  const trace::Program program = algos::prefix_sums_program(n);
  const std::vector<Word> inputs = make_inputs(n, p);
  const bulk::HostBulkExecutor executor(
      *plan::build_plan(program, plan::one_off({.backend = exec::Backend::kCompiled,
                                                .workers = workers})),
      p);
  bulk::SchedulerStats sched;
  for (auto _ : state) {
    auto run = executor.run(program, inputs);
    sched += run.sched;
    benchmark::DoNotOptimize(run.memory.data());
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["tasks"] =
      benchmark::Counter(static_cast<double>(sched.tasks) / iters);
  state.counters["steals"] =
      benchmark::Counter(static_cast<double>(sched.steals) / iters);
  state.counters["parks"] =
      benchmark::Counter(static_cast<double>(sched.parks) / iters);
  state.counters["jobs_per_s"] = benchmark::Counter(
      static_cast<double>(p) * iters, benchmark::Counter::kIsRate);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p * program.profile().total()));
  state.SetLabel("workers=" + std::to_string(workers));
}
BENCHMARK(BM_Fig11BackendScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(0)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SimdVsScalar(benchmark::State& state) {
  // Lane-vectorization headroom on an ALU-dense workload: TEA (32 rounds of
  // shifts/xors/adds per block) on the compiled backend, one worker, with
  // the SIMD tier pinned per run.  One row per tier this CPU/build supports
  // (the arg is the SimdIsa value, the label its name), so the rows show the
  // tiers' order as well as each tier's lane-vectorization speedup over the
  // scalar row.
  const std::size_t blocks = 32;
  const std::size_t p = 4096;
  const auto isa = static_cast<SimdIsa>(state.range(0));
  const trace::Program program = algos::tea_program(blocks);
  Rng rng(3);
  std::vector<Word> inputs;
  for (std::size_t j = 0; j < p; ++j) {
    const auto one = algos::tea_random_input(blocks, rng);
    inputs.insert(inputs.end(), one.begin(), one.end());
  }
  const bulk::HostBulkExecutor executor(
      *plan::build_plan(program, plan::one_off({.backend = exec::Backend::kCompiled,
                                                .workers = 1,
                                                .simd = isa})),
      p);
  for (auto _ : state) {
    auto run = executor.run(program, inputs);
    benchmark::DoNotOptimize(run.memory.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p * program.profile().total()));
  state.SetLabel(to_string(isa));
}
void SupportedSimdTiers(benchmark::internal::Benchmark* b) {
  for (const SimdIsa isa : supported_simd_isas()) b->Arg(static_cast<std::int64_t>(isa));
}
BENCHMARK(BM_SimdVsScalar)->Apply(SupportedSimdTiers)->Unit(benchmark::kMillisecond);

void BM_PlanColdVsWarm(benchmark::State& state) {
  // What the PlanCache buys: cold dispatch re-runs the whole prepare path
  // (optimise attempt, compile drain, row/column simulation, tile resolve)
  // on a fresh program every iteration; warm dispatch is a cache lookup plus
  // the bulk run itself — no re-preparation of any kind.
  const std::size_t n = 64;
  const std::size_t p = 1 << 10;
  const bool warm = state.range(0) != 0;
  const std::vector<Word> inputs = make_inputs(n, p);
  const plan::PlanOptions options;

  plan::PlanCache cache(options);
  if (warm) cache.get_or_build("prefix-sums", algos::prefix_sums_program(n));

  std::vector<Word> outputs;
  for (auto _ : state) {
    std::shared_ptr<const plan::ExecutionPlan> plan;
    if (warm) {
      // The hot serving path: id-only lookup, the program never re-enters.
      plan = cache.lookup("prefix-sums");
    } else {
      // Fresh program => fresh exec_cache slot: nothing is memoised.
      plan = plan::build_plan(algos::prefix_sums_program(n), options);
    }
    auto run = plan::run(*plan, inputs, p, &outputs);
    benchmark::DoNotOptimize(outputs.data());
    benchmark::DoNotOptimize(run.memory.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p));
  state.SetLabel(warm ? "warm-plan" : "cold-plan");
}
BENCHMARK(BM_PlanColdVsWarm)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_UmmSimulator(benchmark::State& state) {
  const std::size_t n = 64;
  const std::size_t p = static_cast<std::size_t>(state.range(0));
  const trace::Program program = algos::prefix_sums_program(n);
  const std::vector<Word> inputs = make_inputs(n, p);
  const umm::MachineConfig cfg{.width = 32, .latency = 100};
  const bulk::UmmBulkExecutor sim(umm::Model::kUmm, cfg,
                                  bulk::Layout::column_wise(p, n));
  for (auto _ : state) {
    auto run = sim.run(program, inputs);
    benchmark::DoNotOptimize(run.time_units);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p * program.memory_steps()));
}
BENCHMARK(BM_UmmSimulator)->Arg(1 << 10)->Arg(1 << 12);

void BM_TimingEstimator(benchmark::State& state) {
  const std::size_t n = 1024;
  const std::size_t p = static_cast<std::size_t>(state.range(0));
  const trace::Program program = algos::prefix_sums_program(n);
  const umm::MachineConfig cfg{.width = 32, .latency = 100};
  const bulk::TimingEstimator est(umm::Model::kUmm, cfg,
                                  bulk::Layout::column_wise(p, n));
  for (auto _ : state) {
    auto r = est.run(program);
    benchmark::DoNotOptimize(r.time_units);
  }
  // Steps estimated per second — independent of p thanks to the fast path.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(program.memory_steps()));
}
BENCHMARK(BM_TimingEstimator)->Arg(1 << 10)->Arg(1 << 22);

// Simulated units of every plannable arrangement for the bitonic sorting
// network under the conflict-heavy shared-tier machine — the planner's
// search space, one row per arrangement.  The units land as counters so the
// CI artifact tracks the conflict-free arrangement's win over time; the
// measured loop is the simulate_units call the search itself pays.
void BM_ArrangementSweep(benchmark::State& state) {
  const std::size_t n = 64;
  const std::size_t p = 1 << 10;
  const trace::Program program = algos::bitonic_sort_program(n);
  const umm::MachineConfig cfg = umm::conflict_heavy_example();

  const std::pair<bulk::Arrangement, std::size_t> sweep[] = {
      {bulk::Arrangement::kColumnWise, 0},
      {bulk::Arrangement::kRowWise, 0},
      {bulk::Arrangement::kBlocked, cfg.width},
      {bulk::Arrangement::kConflictFree, umm::conflict_free_stride(cfg.shared)}};
  const auto& [arr, param] = sweep[static_cast<std::size_t>(state.range(0))];
  const bulk::Layout layout = bulk::make_layout(program, p, arr, param);

  TimeUnits units = 0;
  for (auto _ : state) {
    units = bulk::simulate_units(program, layout, umm::Model::kUmm, cfg);
    benchmark::DoNotOptimize(units);
  }
  state.SetLabel(layout.name());
  state.counters["sim_units"] =
      benchmark::Counter(static_cast<double>(units));
}
BENCHMARK(BM_ArrangementSweep)->DenseRange(0, 3)->Unit(benchmark::kMicrosecond);

void BM_StridedStepCost(benchmark::State& state) {
  const umm::MachineConfig cfg{.width = 32, .latency = 100};
  const umm::StridedStepCost cost(umm::WarpRule::global(umm::Model::kUmm, cfg), cfg.width,
                                  1 << 20, 1);
  Addr base = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cost.stages(base));
    base = (base + 7) & 1023;
  }
}
BENCHMARK(BM_StridedStepCost);

void BM_RunStreaming(benchmark::State& state) {
  // Overhead of batching + callbacks vs the monolithic host run.
  const std::size_t n = 64;
  const std::size_t p = 1 << 12;
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  const trace::Program program = algos::prefix_sums_program(n);
  const std::vector<Word> inputs = make_inputs(n, p);
  const auto plan = plan::build_plan(program, plan::one_off({.workers = 1}));
  std::uint64_t sink = 0;
  for (auto _ : state) {
    plan::run_streaming(
        *plan, p, batch,
        [&](Lane j, std::span<Word> dst) {
          const Word* src = inputs.data() + j * n;
          std::copy(src, src + n, dst.begin());
        },
        [&](Lane, std::span<const Word> out) { sink ^= out[0]; });
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p * program.profile().total()));
}
BENCHMARK(BM_RunStreaming)->Arg(1 << 8)->Arg(1 << 12);

void BM_AlgosSuite(benchmark::State& state) {
  // The whole registry as one serving-shaped scenario sweep: every algorithm
  // at its largest test size <= 64, compiled backend, one worker.  One
  // iteration = one pass over every scenario, so time/iter is
  // "cost of the full workload family" and the counters make the suite's
  // breadth a tracked metric — `algorithms` is the registry size and
  // `scenarios` the number of (algorithm, n) pairs executed; CI's bench-smoke
  // summary surfaces both, so shrinking the registry or the sweep shows up
  // as a perf-dashboard diff, not just a test-count change.
  const std::size_t p = 64;
  struct Scenario {
    const algos::Algorithm* algo;
    trace::Program program;
    std::vector<Word> inputs;
    bulk::HostBulkExecutor executor;
  };
  std::vector<Scenario> scenarios;
  Rng rng(7);
  for (const auto& algo : algos::registry()) {
    std::size_t n = algo.test_sizes.front();
    for (const std::size_t size : algo.test_sizes) {
      if (size <= 64 && size > n) n = size;
    }
    trace::Program program = algo.make_program(n);
    std::vector<Word> inputs;
    inputs.reserve(p * program.input_words);
    for (std::size_t j = 0; j < p; ++j) {
      const auto one = algo.make_input(n, rng);
      inputs.insert(inputs.end(), one.begin(), one.end());
    }
    bulk::HostBulkExecutor executor(
        *plan::build_plan(program,
                          plan::one_off({.backend = exec::Backend::kCompiled, .workers = 1})),
        p);
    scenarios.push_back(Scenario{&algo, std::move(program), std::move(inputs),
                                 std::move(executor)});
  }

  std::int64_t lane_steps = 0;
  for (auto _ : state) {
    for (const auto& scenario : scenarios) {
      auto run = scenario.executor.run(scenario.program, scenario.inputs);
      benchmark::DoNotOptimize(run.memory.data());
    }
  }
  for (const auto& scenario : scenarios) {
    lane_steps += static_cast<std::int64_t>(
        p * scenario.program.profile().total());
  }
  state.counters["algorithms"] =
      benchmark::Counter(static_cast<double>(algos::registry().size()));
  state.counters["scenarios"] =
      benchmark::Counter(static_cast<double>(scenarios.size()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          lane_steps);
  state.SetLabel("algos_suite");
}
BENCHMARK(BM_AlgosSuite)->Unit(benchmark::kMillisecond);

void BM_StepGenerator(benchmark::State& state) {
  // Coroutine streaming overhead per step.
  const std::size_t n = 4096;
  const trace::Program program = algos::prefix_sums_program(n);
  for (auto _ : state) {
    std::uint64_t count = 0;
    auto gen = program.stream();
    trace::Step s;
    while (gen.next(s)) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(program.profile().total()));
}
BENCHMARK(BM_StepGenerator);

}  // namespace

// Custom main: default to machine-readable JSON output so every run leaves a
// trackable artifact, while still honouring an explicit --benchmark_out.
int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // The larger workloads allocate a fresh multi-megabyte memory image per
  // run() call.  glibc serves allocations this size straight from mmap (and
  // trims them back on free), so every iteration would re-fault the whole
  // image and the benches would mostly measure kernel page-fault throughput —
  // identically on every engine.  Keep big blocks on the heap so iterations
  // measure executor cost instead.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024 * 1024);
  mallopt(M_TRIM_THRESHOLD, 256 * 1024 * 1024);
#endif
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  std::string out_flag;
  std::string format_flag;
  if (!has_out) {
    std::filesystem::create_directories("bench_results");
    out_flag = "--benchmark_out=bench_results/micro_executors.json";
    format_flag = "--benchmark_out_format=json";
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  // Recorded in the JSON context block so CI artifacts say which SIMD tier
  // the non-pinned benches actually ran on.
  benchmark::AddCustomContext("simd_isa", obx::to_string(obx::active_simd_isa()));
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
