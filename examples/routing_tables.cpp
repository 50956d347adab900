// Bulk routing tables: all-pairs shortest paths for a fleet of small
// overlay networks at once.
//
// Each of 256 regions has its own latency graph over 24 nodes; the
// oblivious Floyd-Warshall program is bulk-executed across all regions, and
// the resulting distance matrices answer routing queries.  A few properties
// of shortest-path metrics (triangle inequality, idempotence under a second
// relaxation pass via concat_programs) are checked on the way.
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "algos/floyd_warshall.hpp"
#include "bulk/bulk.hpp"
#include "common/rng.hpp"
#include "trace/interpreter.hpp"
#include "trace/value.hpp"

int main() {
  using namespace obx;
  const std::size_t n = 24;   // nodes per region
  const std::size_t p = 256;  // regions

  const trace::Program program = algos::floyd_warshall_program(n);

  // 1. Build the regional graphs.
  Rng rng(606);
  std::vector<Word> inputs;
  inputs.reserve(p * n * n);
  for (std::size_t r = 0; r < p; ++r) {
    const auto g = algos::floyd_warshall_random_input(n, rng);
    inputs.insert(inputs.end(), g.begin(), g.end());
  }

  // 2. Bulk all-pairs shortest paths.
  const bulk::BulkOutputs tables = bulk::run_bulk(program, inputs, p);

  // 3. Validate metric properties on every region.
  std::size_t reachable_pairs = 0, total_pairs = 0;
  for (std::size_t r = 0; r < p; ++r) {
    const auto d = tables.output(r);
    auto at = [&](std::size_t i, std::size_t j) { return trace::as_f64(d[i * n + j]); };
    for (std::size_t i = 0; i < n; ++i) {
      if (at(i, i) != 0.0) {
        std::printf("region %zu: nonzero self-distance at %zu\n", r, i);
        return 1;
      }
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        ++total_pairs;
        if (std::isfinite(at(i, j))) ++reachable_pairs;
        // Triangle inequality through an arbitrary midpoint.
        const std::size_t k = (i + j) % n;
        if (at(i, j) > at(i, k) + at(k, j) + 1e-9) {
          std::printf("region %zu: triangle violation %zu->%zu via %zu\n", r, i, j, k);
          return 1;
        }
      }
    }
  }
  std::printf("computed routing tables for %zu regions x %zu nodes; %.1f%% of "
              "pairs reachable\n",
              p, n, 100.0 * static_cast<double>(reachable_pairs) /
                        static_cast<double>(total_pairs));

  // 4. Shortest-path matrices are a fixed point: a second oblivious
  //    relaxation pass (program composed with itself via concat_programs)
  //    must not find a shorter route.  Tolerance: re-summing a path in a
  //    different association order can differ in the last ulp.
  const trace::Program twice = trace::concat_programs(program, program);
  const std::span<const Word> region0(inputs.data(), n * n);
  const auto once_run = trace::interpret(program, region0);
  const auto twice_run = trace::interpret(twice, region0);
  double worst = 0.0;
  for (std::size_t i = 0; i < n * n; ++i) {
    const double a = trace::as_f64(once_run.memory[i]);
    const double b = trace::as_f64(twice_run.memory[i]);
    if (std::isfinite(a) || std::isfinite(b)) {
      worst = std::max(worst, std::abs(a - b) / std::max(1.0, std::abs(a)));
    }
  }
  if (worst > 1e-12) {
    std::printf("second relaxation pass moved distances by %.3e!\n", worst);
    return 1;
  }
  std::printf("fixed-point check: a second relaxation pass moves nothing "
              "(max rel diff %.1e)\n", worst);

  // 5. Answer a routing query from the precomputed table.
  const auto d0 = tables.output(7);
  std::printf("sample query, region 7: dist(3 -> 19) = %.3f\n",
              trace::as_f64(d0[3 * n + 19]));
  std::printf("ok\n");
  return 0;
}
