// obx_client — standalone load generator / probe for a running obx server.
//
// Where `obx_cli bench-net` stands up its own loopback server, this binary is
// the other half of a cross-host load test: point it at any obx server (e.g.
// `obx_cli serve --listen 0.0.0.0:9090` on another machine) and drive it.
//
//   obx_client --connect HOST:PORT [--algos a,b] [--n N | --sizes N1,N2]
//              [--jobs J] [--rate R] [--bursty] [--tenants T]
//              [--connections C] [--pipeline D] [--deadline-us U] [--seed S]
//              [--scrape]
//       multi-tenant open- or closed-loop load; prints the per-tenant ledger
//       and exits nonzero on any exactly-once violation or transport error.
//
//   obx_client --connect HOST:PORT --ping [--algos a] [--n N]
//       one job round-trip: prints status + latency; nonzero exit unless the
//       job completed.
//
// Inputs are generated client-side from the shared algorithm registry, so the
// server must have the same programs registered under the same ids (what
// `obx_cli serve` does for --algos/--n).
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "algos/algorithm.hpp"
#include "analysis/table.hpp"
#include "common/cli.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "net/client.hpp"
#include "net/load_gen.hpp"
#include "serve/job.hpp"
#include "serve/load_gen.hpp"

namespace {

using namespace obx;

/// Prints the usage line (to stdout when asked for with --help) and returns
/// the exit status.
int usage(int status = 2) {
  std::fprintf(status == 0 ? stdout : stderr,
               "usage: obx_client --connect HOST:PORT [--ping] [--algos a,b] "
               "[--n N | --sizes N1,N2] "
               "[--jobs J] [--rate R] [--bursty] [--tenants T] "
               "[--connections C] [--pipeline D] [--deadline-us U] [--seed S] "
               "[--scrape]\n");
  return status;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// --sizes a,b,c mirrors `obx_cli serve --sizes`: variable-length sessions,
/// one per (algorithm, n).  Absent, --n keeps one bare-id session per algo.
std::vector<std::size_t> sizes_from(const cli::Args& args,
                                    std::int64_t fallback_n) {
  std::vector<std::size_t> sizes;
  std::string csv = args.get("sizes", "");
  for (const std::string& s : split_csv(csv)) {
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
      std::fprintf(stderr, "--sizes entries must be positive integers: %s\n",
                   s.c_str());
      std::exit(2);
    }
    sizes.push_back(static_cast<std::size_t>(std::stoull(s)));
  }
  if (sizes.empty()) {
    sizes.push_back(static_cast<std::size_t>(args.get_int("n", fallback_n)));
  }
  return sizes;
}

/// The client-side half of register_workload: input generators for program
/// ids the server is assumed to already serve (same id scheme — several
/// sizes address the server's "name/n=N" variable-length sessions).
std::vector<serve::WorkloadItem> make_workload(
    const std::vector<std::string>& algo_names,
    const std::vector<std::size_t>& sizes) {
  std::vector<serve::WorkloadItem> workload;
  for (const std::string& name : algo_names) {
    const algos::Algorithm& algo = algos::find(name);
    for (const std::size_t n : sizes) {
      const std::string id =
          sizes.size() == 1 ? name : name + "/n=" + std::to_string(n);
      workload.push_back(serve::WorkloadItem{
          .program_id = id,
          .make_input = [&algo, n](Rng& rng) { return algo.make_input(n, rng); }});
    }
  }
  return workload;
}

int cmd_ping(const std::string& host, std::uint16_t port, const cli::Args& args) {
  const std::size_t n = static_cast<std::size_t>(args.get_int("n", 256));
  const std::string name = split_csv(args.get("algos", "prefix-sums")).front();
  const algos::Algorithm& algo = algos::find(name);
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));

  net::Client client(host, port);
  if (!client.connected()) {
    std::fprintf(stderr, "connect %s:%u failed: %s\n", host.c_str(), port,
                 client.error().c_str());
    return 1;
  }
  const net::Client::Result r = client.submit(name, algo.make_input(n, rng));
  if (!r.transport_error.empty()) {
    std::fprintf(stderr, "transport error: %s\n", r.transport_error.c_str());
    return 1;
  }
  if (r.error_code.has_value()) {
    std::fprintf(stderr, "server error: %s\n", r.error.c_str());
    return 1;
  }
  std::printf("ping %s:%u %s: status=%s latency=%lluus queue=%lluus "
              "batch-lanes=%u output-words=%zu\n",
              host.c_str(), port, name.c_str(), serve::to_string(r.status),
              static_cast<unsigned long long>(r.latency_us),
              static_cast<unsigned long long>(r.queue_delay_us), r.batch_lanes,
              r.output.size());
  return r.ok() ? 0 : 1;
}

int cmd_load(const std::string& host, std::uint16_t port, const cli::Args& args) {
  const std::vector<serve::WorkloadItem> workload = make_workload(
      split_csv(args.get("algos", "prefix-sums")), sizes_from(args, 256));
  const std::size_t tenant_count =
      static_cast<std::size_t>(args.get_int("tenants", 3));
  const unsigned connections =
      static_cast<unsigned>(args.get_int("connections", 2));

  static const serve::Priority kRotation[] = {serve::Priority::kHigh,
                                              serve::Priority::kNormal,
                                              serve::Priority::kLow};
  std::vector<net::NetTenantSpec> tenants;
  for (std::size_t t = 0; t < tenant_count; ++t) {
    tenants.push_back(net::NetTenantSpec{.name = "tenant-" + std::to_string(t),
                                         .priority = kRotation[t % 3],
                                         .weight = 1.0,
                                         .connections = connections});
  }

  net::NetLoadOptions load;
  load.jobs = static_cast<std::size_t>(args.get_int("jobs", 4000));
  load.arrival_rate_hz = args.get_double("rate", 0);
  load.bursty = args.get_bool("bursty");
  load.pipeline_depth = static_cast<std::size_t>(args.get_int("pipeline", 8));
  load.deadline_us = args.get_int("deadline-us", -1);
  load.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  std::printf("obx_client -> %s:%u: %zu jobs, %zu tenants x %u connections, %s\n",
              host.c_str(), port, load.jobs, tenant_count, connections,
              load.arrival_rate_hz > 0
                  ? (format_fixed(load.arrival_rate_hz, 0) + "/s arrivals").c_str()
                  : "closed-loop");

  const net::NetLoadReport report =
      net::run_net_load(host, port, workload, tenants, load);

  analysis::Table table({"tenant", "submitted", "completed", "rejected", "shed",
                         "failed", "transport", "p50 us", "p95 us"});
  for (const net::NetTenantReport& t : report.tenants) {
    table.add_row({t.tenant, std::to_string(t.submitted),
                   std::to_string(t.completed), std::to_string(t.rejected),
                   std::to_string(t.shed), std::to_string(t.failed),
                   std::to_string(t.transport_errors),
                   format_fixed(t.p50_latency_us, 0),
                   format_fixed(t.p95_latency_us, 0)});
  }
  table.print(std::cout);
  std::printf("total: %zu jobs in %.2fs = %s jobs/s (completed=%zu rejected=%zu "
              "shed=%zu failed=%zu transport=%zu)\n",
              report.submitted, report.wall_seconds,
              format_fixed(report.jobs_per_sec, 0).c_str(), report.completed,
              report.rejected, report.shed, report.failed,
              report.transport_errors);

  bool ok = true;
  if (!report.exactly_once()) {
    std::printf("VIOLATION: ledger unbalanced\n");
    ok = false;
  }
  if (report.transport_errors != 0) {
    std::printf("VIOLATION: %zu transport errors\n", report.transport_errors);
    ok = false;
  }
  if (args.get_bool("scrape")) {
    net::Client scraper(host, port);
    std::printf("--- metrics scrape ---\n%s", scraper.scrape_stats().c_str());
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const cli::Args args = cli::Args::parse(
        argc, argv, {"bursty", "scrape", "ping", "help"},
        {"connect", "algos", "n", "sizes", "jobs", "rate", "tenants",
         "connections", "pipeline", "deadline-us", "seed"});
    if (args.get_bool("help")) return usage(0);
    if (!args.has("connect")) return usage();
    const cli::HostPort target = args.get_host_port("connect", "");
    if (args.get_bool("ping")) return cmd_ping(target.host, target.port, args);
    return cmd_load(target.host, target.port, args);
  } catch (const cli::UsageError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
