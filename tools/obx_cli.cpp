// obx_cli — run, time, inspect and optimise the oblivious algorithm library
// from the command line.
//
//   obx_cli list     [--names]
//   obx_cli run      <algorithm> --n 64 --p 256 [--workers K] [--seed S]
//                    (host engines are arrangement-free: --arrangement is
//                    rejected here; plan forces one, time sweeps all four)
//   obx_cli plan     <algorithm> [--n N] [--p P] [--width 32] [--latency 200]
//                    [--group G] [--overlap] [--count-compute]
//                    [--banks 32] [--bank-words W] [--shared-latency L]
//                    [--arrangement row|col|blocked|cf] [--arrangement-param B]
//                    [--no-optimise] [--no-compile]
//                    (print the cached ExecutionPlan: decisions + provenance;
//                    --banks enables the shared/DMM tier)
//   obx_cli time     <algorithm> --n 64 --p 4096 [--width 32] [--latency 200]
//                    [--group G] [--overlap] [--model umm|dmm]
//                    [--banks 32] [--bank-words W] [--shared-latency L]
//                    (simulated units for all four arrangements)
//   obx_cli check    <algorithm> --n 64
//   obx_cli optimize <algorithm> --n 64
//   obx_cli hmm      <algorithm> --n 64 --p 4096 [--sms 14]
//   obx_cli dump     <algorithm> --n 8 [--optimize]   (.obx text to stdout)
//   obx_cli analyze  <algorithm> --n 64 --p 65536     (workload advice)
//   obx_cli serve-bench [--algos a,b] [--n 1024] [--jobs 30000] [--rate 40000]
//                    [--producers 8] [--batch-lanes 512] [--batch-delays-us 0,1000,5000]
//                    [--executors 1] [--policy block|reject|shed] [--queue-cap 2048]
//                    [--deadline-us D] [--snapshot]   (batching service load test;
//                    rate 0 = closed-loop)
//   obx_cli serve    --listen HOST:PORT [--algos a,b] [--n N | --sizes N1,N2]
//                    [--queue-cap C] [--policy block|reject|shed] [--executors E]
//                    [--batch-lanes L] [--batch-delay-us D]
//                    [--quota-rate R] [--quota-burst B] [--duration-s S]
//                    (network front end over the batching service; runs for
//                    --duration-s, or until stdin closes.  --sizes registers
//                    variable-length sessions, one "algo/n=N" id per size)
//   obx_cli bench-net [--algos a,b] [--n N | --sizes N1,N2] [--jobs J]
//                    [--rate R] [--bursty] [--tenants T] [--connections C]
//                    [--pipeline D] [--seed S] [--scrape]
//                    (loopback socket throughput vs the in-process service;
//                    nonzero exit on any exactly-once violation)
//   obx_cli fuzz     [--seed S] [--iters N] [--max-steps M] [--no-shrink]
//                    [--no-faults] [--no-net] | [--replay FILE]
//                    (differential fuzz of the backend/SIMD/tile/worker matrix
//                    against the interpreter, plus serve fault-injection
//                    campaigns, protocol frame fuzz and a network fault
//                    campaign; --replay re-checks a saved reproducer)
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "advisor/characterize.hpp"
#include "algos/algorithm.hpp"
#include "analysis/table.hpp"
#include "bulk/bulk.hpp"
#include "bulk/timing_estimator.hpp"
#include "check/fault.hpp"
#include "check/fuzz.hpp"
#include "check/net_fault.hpp"
#include "common/cli.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "gpusim/virtual_gpu.hpp"
#include "hmm/hmm_estimator.hpp"
#include "net/load_gen.hpp"
#include "net/server.hpp"
#include "opt/optimizer.hpp"
#include "plan/plan_cache.hpp"
#include "plan/planner.hpp"
#include "serve/load_gen.hpp"
#include "serve/service.hpp"
#include "trace/interpreter.hpp"
#include "trace/oblivious_checker.hpp"
#include "trace/serialize.hpp"

namespace {

using namespace obx;

/// Prints the usage text (to stdout when asked for with --help) and returns
/// the exit status.
int usage(int status = 2) {
  std::fprintf(status == 0 ? stdout : stderr,
               "usage: obx_cli <list|run|plan|time|check|optimize|hmm|analyze|dump|"
               "serve-bench|serve|bench-net|fuzz> [<algorithm>] [--n N] [--p P] "
               "[options]\n"
               "run 'obx_cli list' to see the algorithm library.\n");
  return status;
}

const algos::Algorithm& algo_from(const cli::Args& args) {
  OBX_CHECK(args.positional().size() >= 2, "missing <algorithm>; try 'obx_cli list'");
  return algos::find(args.positional()[1]);
}

bulk::Arrangement arrangement_from(const cli::Args& args) {
  const std::string a = args.get("arrangement", "col");
  if (a == "row" || a == "row-wise") return bulk::Arrangement::kRowWise;
  if (a == "blocked" || a == "block") return bulk::Arrangement::kBlocked;
  if (a == "cf" || a == "conflict-free") return bulk::Arrangement::kConflictFree;
  OBX_CHECK(a == "col" || a == "column" || a == "column-wise",
            "unknown arrangement: " + a);
  return bulk::Arrangement::kColumnWise;
}

/// Shared-tier knobs: --banks enables the DMM tier (0 = off, the default);
/// --bank-words and --shared-latency refine it.
void apply_shared_tier(const cli::Args& args, umm::MachineConfig& cfg) {
  cfg.shared.banks = static_cast<std::uint32_t>(args.get_int("banks", 0));
  cfg.shared.bank_words = static_cast<std::uint32_t>(args.get_int("bank-words", 1));
  cfg.shared.latency = static_cast<std::uint32_t>(args.get_int("shared-latency", 1));
}

int cmd_list(const cli::Args& args) {
  if (args.get_bool("names")) {
    // Plain one-per-line mode for scripting (the golden-plan CI loop).
    for (const auto& algo : algos::registry()) std::printf("%s\n", algo.name.c_str());
    return 0;
  }
  analysis::Table table({"algorithm", "description", "t(n) example"});
  for (const auto& algo : algos::registry()) {
    const std::size_t n = algo.test_sizes.back();
    table.add_row({algo.name, algo.description,
                   "t(" + std::to_string(n) + ") = " +
                       std::to_string(algo.memory_steps(n))});
  }
  table.print(std::cout);
  return 0;
}

int cmd_run(const cli::Args& args) {
  const algos::Algorithm& algo = algo_from(args);
  const std::size_t n = static_cast<std::size_t>(args.get_int("n", 64));
  const std::size_t p = static_cast<std::size_t>(args.get_int("p", 64));
  const unsigned workers = static_cast<unsigned>(args.get_int("workers", 1));
  OBX_CHECK(!args.has("arrangement") && !args.has("arrangement-param"),
            "run takes no --arrangement: host engines are arrangement-free "
            "(use 'obx_cli time' or 'obx_cli plan' for the simulated arrangements)");
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));

  const trace::Program program = algo.make_program(n);
  std::vector<Word> inputs;
  inputs.reserve(p * program.input_words);
  for (std::size_t j = 0; j < p; ++j) {
    const auto one = algo.make_input(n, rng);
    inputs.insert(inputs.end(), one.begin(), one.end());
  }
  // run_bulk's one-off plan, built before the clock starts so "host time"
  // is the run alone.
  const std::shared_ptr<const plan::ExecutionPlan> plan =
      plan::build_plan(program, plan::one_off({.workers = workers}));
  std::vector<Word> outputs;
  const auto t0 = std::chrono::steady_clock::now();
  plan::run(*plan, inputs, p, &outputs);
  const auto t1 = std::chrono::steady_clock::now();

  // Verify every lane against the native reference.
  std::size_t failures = 0;
  for (std::size_t j = 0; j < p; ++j) {
    const auto expected = algo.reference(
        n, std::span<const Word>(inputs).subspan(j * program.input_words,
                                                 program.input_words));
    const Word* got = outputs.data() + j * program.output_words;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      if (got[i] != expected[i]) {
        ++failures;
        break;
      }
    }
  }
  std::printf("%s: p=%zu lanes, %zu output words each, host time %s\n",
              program.name.c_str(), p, program.output_words,
              format_seconds(std::chrono::duration<double>(t1 - t0).count()).c_str());
  std::printf("verification vs native reference: %zu/%zu lanes exact\n", p - failures, p);
  return failures == 0 ? 0 : 1;
}

// Builds (or fetches from the process-wide PlanCache) the ExecutionPlan for
// one registry program and prints its decisions, provenance and estimated
// units.  The output is deterministic across hosts — CI diffs it against
// tests/golden/plans/<algorithm>.txt.
int cmd_plan(const cli::Args& args) {
  const algos::Algorithm& algo = algo_from(args);
  const std::size_t n = static_cast<std::size_t>(
      args.get_int("n", static_cast<std::int64_t>(algo.test_sizes.back())));

  plan::PlanOptions options;
  options.machine.width = static_cast<std::uint32_t>(args.get_int("width", 32));
  options.machine.latency = static_cast<std::uint32_t>(args.get_int("latency", 200));
  options.machine.group_words = static_cast<std::uint32_t>(args.get_int("group", 0));
  options.machine.overlap_latency = args.get_bool("overlap");
  options.machine.count_compute = args.get_bool("count-compute");
  apply_shared_tier(args, options.machine);
  options.reference_lanes = static_cast<std::size_t>(args.get_int("p", 256));
  if (args.get_bool("no-optimise")) options.optimise = false;
  if (args.get_bool("no-compile")) options.backend = exec::Backend::kInterpreted;
  if (args.has("arrangement")) options.arrangement = arrangement_from(args);
  options.arrangement_param =
      static_cast<std::size_t>(args.get_int("arrangement-param", 0));

  const std::string id = algo.name + "/n=" + std::to_string(n);
  const std::shared_ptr<const plan::ExecutionPlan> plan =
      plan::PlanCache::process().get_or_build(id, algo.make_program(n), options);
  std::printf("%s", plan->describe().c_str());
  return 0;
}

int cmd_time(const cli::Args& args) {
  const algos::Algorithm& algo = algo_from(args);
  const std::size_t n = static_cast<std::size_t>(args.get_int("n", 64));
  const std::size_t p = static_cast<std::size_t>(args.get_int("p", 4096));
  umm::MachineConfig cfg;
  cfg.width = static_cast<std::uint32_t>(args.get_int("width", 32));
  cfg.latency = static_cast<std::uint32_t>(args.get_int("latency", 200));
  cfg.group_words = static_cast<std::uint32_t>(args.get_int("group", 0));
  cfg.overlap_latency = args.get_bool("overlap");
  cfg.count_compute = args.get_bool("count-compute");
  apply_shared_tier(args, cfg);
  const std::string model_name = args.get("model", "umm");
  const umm::Model model = model_name == "dmm" ? umm::Model::kDmm : umm::Model::kUmm;

  const trace::Program program = algo.make_program(n);
  const gpusim::VirtualGpu gpu(gpusim::gtx_titan());
  analysis::Table table({"arrangement", "time units", "seconds @837MHz"});
  const std::size_t cf_stride = umm::conflict_free_stride(cfg.shared);
  const std::pair<bulk::Arrangement, std::size_t> sweeps[] = {
      {bulk::Arrangement::kRowWise, 0},
      {bulk::Arrangement::kColumnWise, 0},
      {bulk::Arrangement::kBlocked, cfg.width},
      {bulk::Arrangement::kConflictFree, cf_stride}};
  for (const auto& [arr, param] : sweeps) {
    const bulk::Layout layout = bulk::make_layout(program, p, arr, param);
    const TimeUnits units = bulk::simulate_units(program, layout, model, cfg);
    table.add_row({layout.name(), std::to_string(units),
                   format_seconds(gpu.seconds_from_units(units))});
  }
  std::printf("%s on the %s, p=%zu, w=%u, l=%u%s%s:\n", program.name.c_str(),
              model == umm::Model::kUmm ? "UMM" : "DMM", p, cfg.width, cfg.latency,
              cfg.group_words != 0
                  ? (", g=" + std::to_string(cfg.group_words)).c_str()
                  : "",
              cfg.overlap_latency ? ", overlapped" : "");
  table.print(std::cout);
  return 0;
}

int cmd_check(const cli::Args& args) {
  const algos::Algorithm& algo = algo_from(args);
  const std::size_t n = static_cast<std::size_t>(args.get_int("n", 64));
  const trace::Program program = algo.make_program(n);
  const trace::StepCounts counts = program.profile();
  std::printf("%s: %llu loads, %llu stores, %llu alu, %llu imm (t = %llu)\n",
              program.name.c_str(), static_cast<unsigned long long>(counts.loads),
              static_cast<unsigned long long>(counts.stores),
              static_cast<unsigned long long>(counts.alu),
              static_cast<unsigned long long>(counts.imm),
              static_cast<unsigned long long>(counts.memory()));
  const auto report = trace::check_program(program, 3);
  std::printf("declared t(n) formula: %llu  (%s)\n",
              static_cast<unsigned long long>(algo.memory_steps(n)),
              algo.memory_steps(n) == counts.memory() ? "matches" : "MISMATCH");
  std::printf("oblivious: %s%s\n", report.oblivious ? "yes" : "NO",
              report.oblivious ? "" : (" — " + report.detail).c_str());
  return report.oblivious ? 0 : 1;
}

int cmd_optimize(const cli::Args& args) {
  const algos::Algorithm& algo = algo_from(args);
  const std::size_t n = static_cast<std::size_t>(args.get_int("n", 64));
  const opt::OptimizeResult r = opt::optimize(algo.make_program(n));
  std::printf("%s: %llu -> %llu total steps, t %llu -> %llu (%.1f%% fewer memory "
              "steps)\n",
              r.program.name.c_str(),
              static_cast<unsigned long long>(r.before.total()),
              static_cast<unsigned long long>(r.after.total()),
              static_cast<unsigned long long>(r.before.memory()),
              static_cast<unsigned long long>(r.after.memory()),
              100.0 * r.memory_step_reduction());
  for (const auto& rep : r.reports) {
    std::printf("  %-22s -%zu steps\n", rep.pass.c_str(), rep.removed);
  }
  return 0;
}

int cmd_hmm(const cli::Args& args) {
  const algos::Algorithm& algo = algo_from(args);
  const std::size_t n = static_cast<std::size_t>(args.get_int("n", 64));
  const std::size_t p = static_cast<std::size_t>(args.get_int("p", 4096));
  hmm::HmmConfig cfg = hmm::gtx_titan_hmm();
  cfg.num_sms = static_cast<std::uint32_t>(args.get_int("sms", cfg.num_sms));
  const hmm::HmmEstimator est(cfg);
  const trace::Program program = algo.make_program(n);
  if (!est.admissible(program)) {
    std::printf("%s does not fit in shared memory (%zu words > %zu)\n",
                program.name.c_str(), program.memory_words, cfg.shared_capacity_words);
    return 1;
  }
  const hmm::HmmTiming t = est.run(program, p);
  const TimeUnits global = est.global_only(program, p);
  std::printf("%s, p=%zu, %u SMs:\n", program.name.c_str(), p, cfg.num_sms);
  std::printf("  global-only : %llu units\n", static_cast<unsigned long long>(global));
  std::printf("  staged      : %llu units (copy %llu + compute %llu + copy %llu)\n",
              static_cast<unsigned long long>(t.total()),
              static_cast<unsigned long long>(t.copy_in),
              static_cast<unsigned long long>(t.compute),
              static_cast<unsigned long long>(t.copy_out));
  std::printf("  staged win  : %.2fx\n",
              static_cast<double>(global) / static_cast<double>(t.total()));
  return 0;
}

int cmd_analyze(const cli::Args& args) {
  const algos::Algorithm& algo = algo_from(args);
  const std::size_t n = static_cast<std::size_t>(args.get_int("n", 64));
  const std::size_t p = static_cast<std::size_t>(args.get_int("p", 65536));
  umm::MachineConfig cfg = gpusim::gtx_titan().memory;
  cfg.width = static_cast<std::uint32_t>(args.get_int("width", cfg.width));
  cfg.latency = static_cast<std::uint32_t>(args.get_int("latency", cfg.latency));
  const hmm::HmmConfig hier = hmm::gtx_titan_hmm();
  const trace::Program program = algo.make_program(n);
  const advisor::Characterization c = advisor::characterize(program, p, cfg, &hier);
  std::printf("%s on w=%u l=%u:\n%s", program.name.c_str(), cfg.width, cfg.latency,
              c.summary().c_str());
  return 0;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// Load-tests the batching bulk-execution service: fixed arrival pattern,
// sweep of max_batch_delay values.  The table shows the batching win — at a
// fixed rate, a larger delay produces fuller batches (occupancy column) and
// higher sustained jobs/sec, the service-level image of amortising the l·t
// latency floor of Theorem 2 across the lanes of one bulk run.
int cmd_serve_bench(const cli::Args& args) {
  const std::size_t n = static_cast<std::size_t>(args.get_int("n", 1024));
  const std::vector<std::string> algo_names =
      split_csv(args.get("algos", "prefix-sums"));
  std::vector<std::string> delay_strings =
      split_csv(args.get("batch-delays-us", "0,1000,5000"));

  serve::LoadGenOptions load;
  load.jobs = static_cast<std::size_t>(args.get_int("jobs", 30000));
  load.producers = static_cast<unsigned>(args.get_int("producers", 8));
  load.arrival_rate_hz = args.get_double("rate", 40000);
  load.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  if (args.has("deadline-us")) {
    load.deadline = std::chrono::microseconds(args.get_int("deadline-us", 0));
  }

  std::printf("serve-bench: %zu jobs, %u producers, %s arrivals, policy=%s, "
              "batch-lanes=%lld, executors=%lld\n",
              load.jobs, load.producers,
              load.arrival_rate_hz > 0
                  ? (format_fixed(load.arrival_rate_hz, 0) + "/s Poisson").c_str()
                  : "closed-loop",
              args.get("policy", "block").c_str(),
              static_cast<long long>(args.get_int("batch-lanes", 512)),
              static_cast<long long>(args.get_int("executors", 1)));

  analysis::Table table({"delay_us", "jobs/s", "occ mean", "occ max", "p50 us",
                         "p95 us", "batches", "shed", "rejected", "ddl miss",
                         "sim units/batch"});
  for (const std::string& delay_str : delay_strings) {
    serve::ServiceOptions options;
    options.queue_capacity = static_cast<std::size_t>(args.get_int("queue-cap", 2048));
    options.policy = serve::overflow_policy_from(args.get("policy", "block"));
    options.batcher.max_batch_lanes =
        static_cast<std::size_t>(args.get_int("batch-lanes", 512));
    OBX_CHECK(!delay_str.empty() &&
                  delay_str.find_first_not_of("0123456789") == std::string::npos,
              "--batch-delays-us entries must be non-negative integers, got: " + delay_str);
    options.batcher.max_batch_delay = std::chrono::microseconds(std::stoll(delay_str));
    options.executors = static_cast<unsigned>(args.get_int("executors", 1));

    serve::BulkService service(options);
    std::vector<serve::WorkloadItem> workload;
    for (const std::string& name : algo_names) {
      const algos::Algorithm& algo = algos::find(name);
      service.register_program(name, algo.make_program(n));
      workload.push_back(serve::WorkloadItem{
          .program_id = name,
          .make_input = [&algo, n](Rng& rng) { return algo.make_input(n, rng); }});
    }

    const serve::LoadGenReport report = serve::run_load(service, workload, load);
    service.stop();
    const serve::MetricsSnapshot snap = service.snapshot();
    table.add_row({delay_str, format_fixed(report.jobs_per_sec, 0),
                   format_fixed(snap.mean_batch_occupancy, 1),
                   format_fixed(snap.max_batch_occupancy, 0),
                   format_fixed(report.p50_latency_us, 0),
                   format_fixed(report.p95_latency_us, 0),
                   std::to_string(snap.batches), std::to_string(snap.shed),
                   std::to_string(snap.rejected), std::to_string(snap.deadline_missed),
                   format_fixed(snap.mean_batch_sim_units, 0)});
    if (args.get_bool("snapshot")) {
      std::printf("--- delay %s us ---\n%s", delay_str.c_str(),
                  snap.to_string().c_str());
    }
  }
  table.print(std::cout);
  return 0;
}

serve::ServiceOptions service_options_from(const cli::Args& args) {
  serve::ServiceOptions options;
  options.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue-cap", 2048));
  options.policy = serve::overflow_policy_from(args.get("policy", "block"));
  options.batcher.max_batch_lanes =
      static_cast<std::size_t>(args.get_int("batch-lanes", 512));
  options.batcher.max_batch_delay =
      std::chrono::microseconds(args.get_int("batch-delay-us", 1000));
  options.executors = static_cast<unsigned>(args.get_int("executors", 2));
  if (args.has("quota-rate")) {
    serve::TenantQuota quota;
    quota.rate_hz = args.get_double("quota-rate", 0);
    quota.burst = args.get_double("quota-burst", 0);
    options.default_quota = quota;
  }
  return options;
}

// --sizes a,b,c → variable-length sessions: one registered program per
// (algorithm, n).  Absent, --n (or `fallback_n`) keeps one session per
// algorithm under its bare name.
std::vector<std::size_t> sizes_from(const cli::Args& args,
                                    std::int64_t fallback_n) {
  std::vector<std::size_t> sizes;
  for (const std::string& s : split_csv(args.get("sizes", ""))) {
    OBX_CHECK(!s.empty() && s.find_first_not_of("0123456789") == std::string::npos,
              "--sizes entries must be positive integers, got: " + s);
    sizes.push_back(static_cast<std::size_t>(std::stoull(s)));
  }
  if (sizes.empty()) {
    sizes.push_back(static_cast<std::size_t>(args.get_int("n", fallback_n)));
  }
  return sizes;
}

std::vector<serve::WorkloadItem> register_workload(
    serve::BulkService& service, const std::vector<std::string>& algo_names,
    const std::vector<std::size_t>& sizes) {
  // With several sizes, each (algorithm, n) gets its own "name/n=N" session
  // id — distinct ids and the batcher's (program id, input length) group key
  // both guarantee a batch never mixes input lengths.
  std::vector<serve::WorkloadItem> workload;
  for (const std::string& name : algo_names) {
    const algos::Algorithm& algo = algos::find(name);
    for (const std::size_t n : sizes) {
      const std::string id =
          sizes.size() == 1 ? name : name + "/n=" + std::to_string(n);
      service.register_program(id, algo.make_program(n));
      workload.push_back(serve::WorkloadItem{
          .program_id = id,
          .make_input = [&algo, n](Rng& rng) { return algo.make_input(n, rng); }});
    }
  }
  return workload;
}

// Stands up the network front end over the batching service and serves until
// --duration-s elapses (or stdin closes, for interactive use).  Exits nonzero
// if the wire ledger ends unbalanced.
int cmd_serve(const cli::Args& args) {
  const cli::HostPort listen = args.get_host_port("listen", "127.0.0.1:0");
  net::ServerOptions server_options;
  server_options.host = listen.host;
  server_options.port = listen.port;

  serve::BulkService service(service_options_from(args));
  const std::vector<std::size_t> sizes = sizes_from(args, 1024);
  const std::vector<std::string> algo_names =
      split_csv(args.get("algos", "prefix-sums,horner"));
  const std::size_t sessions =
      register_workload(service, algo_names, sizes).size();

  net::Server server(service, server_options);
  std::printf("listening on %s:%u — %zu sessions (%zu algos x %zu sizes), "
              "policy=%s\n",
              server.host().c_str(), server.port(), sessions,
              algo_names.size(), sizes.size(),
              args.get("policy", "block").c_str());
  std::fflush(stdout);

  const std::int64_t duration_s = args.get_int("duration-s", 0);
  if (duration_s > 0) {
    std::this_thread::sleep_for(std::chrono::seconds(duration_s));
  } else {
    while (std::getchar() != EOF) {
    }
  }
  server.stop();
  service.stop();
  const net::ServerStatsSnapshot stats = server.stats();
  std::printf("%s", net::render_server_stats(stats).c_str());
  return stats.exactly_once() ? 0 : 1;
}

// Loopback socket throughput vs the same workload driven in-process: the
// wire adds framing + syscalls, so the gap between the two rows is the cost
// of the network front end itself.  Nonzero exit on any lost or double
// resolution on either path.
int cmd_bench_net(const cli::Args& args) {
  const std::vector<std::size_t> sizes = sizes_from(args, 256);
  const std::vector<std::string> algo_names =
      split_csv(args.get("algos", "prefix-sums"));
  const std::size_t jobs = static_cast<std::size_t>(args.get_int("jobs", 4000));
  const double rate = args.get_double("rate", 0);
  const std::size_t tenant_count =
      static_cast<std::size_t>(args.get_int("tenants", 3));
  const unsigned connections =
      static_cast<unsigned>(args.get_int("connections", 2));

  std::printf("bench-net: %zu jobs, %zu tenants x %u connections, %s\n", jobs,
              tenant_count, connections,
              rate > 0 ? (format_fixed(rate, 0) + "/s arrivals").c_str()
                       : "closed-loop");

  analysis::Table table(
      {"path", "jobs/s", "p50 us", "p95 us", "completed", "rejected", "shed"});
  bool ok = true;

  // Row 1: the same service driven in-process (no sockets, no framing).
  double inproc_jobs_per_sec = 0;
  {
    serve::BulkService service(service_options_from(args));
    const std::vector<serve::WorkloadItem> workload =
        register_workload(service, algo_names, sizes);
    serve::LoadGenOptions load;
    load.jobs = jobs;
    load.producers = static_cast<unsigned>(tenant_count) * connections;
    load.arrival_rate_hz = rate;
    load.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const serve::LoadGenReport report = serve::run_load(service, workload, load);
    service.stop();
    inproc_jobs_per_sec = report.jobs_per_sec;
    table.add_row({"in-process", format_fixed(report.jobs_per_sec, 0),
                   format_fixed(report.p50_latency_us, 0),
                   format_fixed(report.p95_latency_us, 0),
                   std::to_string(report.completed),
                   std::to_string(report.rejected), std::to_string(report.shed)});
  }

  // Row 2: the same workload through net::Server on a loopback socket.
  {
    serve::BulkService service(service_options_from(args));
    const std::vector<serve::WorkloadItem> workload =
        register_workload(service, algo_names, sizes);
    net::Server server(service, net::ServerOptions{});

    static const serve::Priority kRotation[] = {serve::Priority::kHigh,
                                                serve::Priority::kNormal,
                                                serve::Priority::kLow};
    std::vector<net::NetTenantSpec> tenants;
    for (std::size_t t = 0; t < tenant_count; ++t) {
      tenants.push_back(net::NetTenantSpec{
          .name = "tenant-" + std::to_string(t),
          .priority = kRotation[t % 3],
          .weight = 1.0,
          .connections = connections});
    }
    net::NetLoadOptions load;
    load.jobs = jobs;
    load.arrival_rate_hz = rate;
    load.bursty = args.get_bool("bursty");
    load.pipeline_depth = static_cast<std::size_t>(args.get_int("pipeline", 8));
    load.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const net::NetLoadReport report = net::run_net_load(
        server.host(), server.port(), workload, tenants, load);
    server.stop();
    service.stop();
    const net::ServerStatsSnapshot stats = server.stats();
    table.add_row({"loopback", format_fixed(report.jobs_per_sec, 0),
                   format_fixed(report.tenants.empty()
                                    ? 0.0
                                    : report.tenants[0].p50_latency_us, 0),
                   format_fixed(report.tenants.empty()
                                    ? 0.0
                                    : report.tenants[0].p95_latency_us, 0),
                   std::to_string(report.completed),
                   std::to_string(report.rejected), std::to_string(report.shed)});
    if (!report.exactly_once()) {
      std::printf("VIOLATION: load ledger unbalanced: submitted=%zu "
                  "completed=%zu rejected=%zu shed=%zu failed=%zu transport=%zu\n",
                  report.submitted, report.completed, report.rejected,
                  report.shed, report.failed, report.transport_errors);
      ok = false;
    }
    if (report.transport_errors != 0) {
      std::printf("VIOLATION: %zu transport errors on loopback\n",
                  report.transport_errors);
      ok = false;
    }
    if (!stats.exactly_once()) {
      std::printf("VIOLATION: server ledger unbalanced: admitted=%llu "
                  "sent=%llu dropped=%llu\n",
                  static_cast<unsigned long long>(stats.submits_admitted),
                  static_cast<unsigned long long>(stats.responses_sent),
                  static_cast<unsigned long long>(stats.responses_dropped));
      ok = false;
    }
    if (inproc_jobs_per_sec > 0) {
      std::printf("loopback/in-process throughput ratio: %.2f\n",
                  report.jobs_per_sec / inproc_jobs_per_sec);
    }
    if (args.get_bool("scrape")) {
      std::printf("--- metrics scrape ---\n%s", server.scrape_metrics().c_str());
    }
  }
  table.print(std::cout);
  return ok ? 0 : 1;
}

// Differential fuzzing (check::run_fuzz) plus serve fault-injection
// campaigns (check::run_fault_campaign).  Deterministic in --seed; exits
// nonzero on any divergence or lifecycle violation, printing a ready-to-save
// reproducer and a ready-to-paste regression test for each failure.
int cmd_fuzz(const cli::Args& args) {
  if (args.has("replay")) {
    const std::string path = args.get("replay", "");
    std::ifstream in(path);
    OBX_CHECK(in.good(), "cannot open reproducer: " + path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const check::Reproducer repro = check::parse_reproducer(buffer.str());
    const auto divergence = check::replay_reproducer(repro);
    if (divergence.has_value()) {
      std::printf("%s: %s\n", path.c_str(), divergence->to_string().c_str());
      return 1;
    }
    std::printf("reproducer '%s': all configurations agree\n", path.c_str());
    return 0;
  }

  check::FuzzOptions options;
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  options.iters = static_cast<std::size_t>(args.get_int("iters", 500));
  if (args.has("max-steps")) {
    options.gen.max_steps =
        static_cast<std::size_t>(args.get_int("max-steps", 360));
  }
  options.shrink = !args.get_bool("no-shrink");

  const check::FuzzReport report = check::run_fuzz(options);
  std::printf("%s\n", report.summary().c_str());
  for (const check::FuzzFailure& f : report.failures) {
    std::printf("\n=== iteration %llu: %s\n",
                static_cast<unsigned long long>(f.iteration),
                f.divergence.to_string().c_str());
    if (options.shrink) {
      std::printf("shrunk %zu -> %zu steps (%zu predicate calls%s)\n",
                  f.shrink.steps_before, f.shrink.steps_after,
                  f.shrink.predicate_calls,
                  f.shrink.budget_exhausted ? ", budget exhausted" : "");
    }
    std::printf("--- reproducer (save under tests/regressions/) ---\n%s",
                check::write_reproducer(f.reproducer).c_str());
    std::printf("--- regression test ---\n%s",
                check::regression_test_source(
                    f.reproducer, "Shrunk" + std::to_string(f.iteration))
                    .c_str());
  }

  bool faults_ok = true;
  if (!args.get_bool("no-faults")) {
    std::vector<std::pair<std::string, check::CampaignOptions>> campaigns;
    {
      check::CampaignOptions c;
      c.plan.fail_every_batches = 2;
      campaigns.emplace_back("executor-fault", c);
    }
    {
      check::CampaignOptions c;
      c.plan.alloc_fail_every_batches = 3;
      campaigns.emplace_back("alloc-fault", c);
    }
    {
      check::CampaignOptions c;
      c.service.queue_capacity = 4;
      c.service.policy = serve::OverflowPolicy::kShedOldest;
      c.service.executors = 1;
      c.plan.fail_every_batches = 3;
      campaigns.emplace_back("shed-storm", c);
    }
    {
      check::CampaignOptions c;
      c.service.queue_capacity = 4;
      c.service.policy = serve::OverflowPolicy::kReject;
      campaigns.emplace_back("reject-storm", c);
    }
    {
      check::CampaignOptions c;
      c.plan.fail_every_batches = 3;
      c.close_mid_stream = true;
      campaigns.emplace_back("mid-stream-close", c);
    }
    for (const auto& [name, campaign] : campaigns) {
      const check::CampaignReport r = check::run_fault_campaign(campaign);
      std::printf("fault %-16s %s\n", name.c_str(), r.summary().c_str());
      faults_ok = faults_ok && r.exactly_once();
    }
  }

  // Wire-level legs: the protocol codec under mutation, then the whole
  // serving path behind a real socket under abusive peers.
  bool net_ok = true;
  if (!args.get_bool("no-net")) {
    check::FrameFuzzOptions frame_options;
    frame_options.seed = options.seed;
    const check::FrameFuzzReport frames = check::run_frame_fuzz(frame_options);
    std::printf("%s\n", frames.summary().c_str());
    for (const std::string& v : frames.violations) {
      std::printf("  frame violation: %s\n", v.c_str());
    }
    net_ok = frames.ok();

    check::NetCampaignOptions net_options;
    net_options.seed = options.seed;
    net_options.plan.fail_every_batches = 4;
    const check::NetCampaignReport wire =
        check::run_net_fault_campaign(net_options);
    std::printf("%s\n", wire.summary().c_str());
    for (const std::string& v : wire.violations) {
      std::printf("  net violation: %s\n", v.c_str());
    }
    net_ok = net_ok && wire.ok();
  }
  return (report.ok() && faults_ok && net_ok) ? 0 : 1;
}

int cmd_dump(const cli::Args& args) {
  const algos::Algorithm& algo = algo_from(args);
  const std::size_t n = static_cast<std::size_t>(args.get_int("n", 8));
  trace::Program program = algo.make_program(n);
  if (args.get_bool("optimize")) program = opt::optimize(program).program;
  trace::serialize_program(program, std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const cli::Args args = cli::Args::parse(
        argc, argv,
        {"overlap", "count-compute", "optimize", "snapshot", "names",
         "no-optimise", "no-compile", "no-shrink", "no-faults", "no-net",
         "bursty", "scrape", "help"},
        {"n", "p", "width", "latency", "group", "banks", "bank-words",
         "shared-latency", "arrangement-param", "model", "arrangement", "workers",
         "seed", "sms", "algos", "jobs", "rate", "producers", "batch-lanes",
         "batch-delays-us", "batch-delay-us", "executors", "policy", "queue-cap",
         "deadline-us", "iters", "max-steps", "replay", "listen", "duration-s",
         "quota-rate", "quota-burst", "tenants", "connections", "pipeline",
         "sizes"});
    if (args.get_bool("help")) return usage(0);
    if (args.positional().empty()) return usage();
    const std::string& cmd = args.positional()[0];
    if (cmd == "list") return cmd_list(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "plan") return cmd_plan(args);
    if (cmd == "time") return cmd_time(args);
    if (cmd == "check") return cmd_check(args);
    if (cmd == "optimize") return cmd_optimize(args);
    if (cmd == "hmm") return cmd_hmm(args);
    if (cmd == "dump") return cmd_dump(args);
    if (cmd == "analyze") return cmd_analyze(args);
    if (cmd == "serve-bench") return cmd_serve_bench(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "bench-net") return cmd_bench_net(args);
    if (cmd == "fuzz") return cmd_fuzz(args);
    return usage();
  } catch (const cli::UsageError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
