// Optimal polygon triangulation: the paper's dynamic-programming case study,
// run as a small geometry batch job.
//
// A batch of random convex polygons is triangulated at once: chord weights
// are Euclidean lengths, Algorithm OPT is bulk-executed for every polygon,
// and the winning chord set of one polygon is reconstructed from the DP
// table ("a few extra bookkeeping steps", as the paper puts it).
#include <cmath>
#include <cstdio>
#include <numbers>
#include <vector>

#include "algos/opt_triangulation.hpp"
#include "common/rng.hpp"
#include "plan/plan.hpp"
#include "trace/value.hpp"

namespace {

using namespace obx;

struct Point {
  double x, y;
};

/// Random convex n-gon: points on a noisy circle, in angular order.
std::vector<Point> random_convex_polygon(std::size_t n, Rng& rng) {
  std::vector<double> angles(n);
  const double slice = 2.0 * std::numbers::pi / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    angles[i] = slice * (static_cast<double>(i) + 0.5 * rng.next_double());
  }
  std::vector<Point> pts(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts[i] = {std::cos(angles[i]), std::sin(angles[i])};
  }
  return pts;
}

std::vector<double> chord_lengths(const std::vector<Point>& pts) {
  const std::size_t n = pts.size();
  std::vector<double> c(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double dx = pts[i].x - pts[j].x;
      const double dy = pts[i].y - pts[j].y;
      c[i * n + j] = std::sqrt(dx * dx + dy * dy);
    }
  }
  return c;
}

/// Walks the DP table, emitting the chords of one optimal triangulation.
/// Subproblem (i, j) is the subpolygon bounded by chord (i-1, j); that chord
/// is real unless (i-1, j) is the root edge v_0 v_{n-1}.
void reconstruct(std::size_t n, const std::vector<double>& m,
                 const std::vector<double>& c, std::size_t i, std::size_t j,
                 std::vector<std::pair<std::size_t, std::size_t>>& chords) {
  if (j <= i) return;  // leaf: a polygon edge, not a chord
  if (!(i == 1 && j == n - 1)) chords.emplace_back(i - 1, j);
  // Find the split k the DP chose.
  for (std::size_t k = i; k <= j - 1; ++k) {
    const double total = m[i * n + k] + m[(k + 1) * n + j] + c[(i - 1) * n + j];
    if (std::abs(total - m[i * n + j]) < 1e-9) {
      reconstruct(n, m, c, i, k, chords);
      reconstruct(n, m, c, k + 1, j, chords);
      return;
    }
  }
}

}  // namespace

int main() {
  using namespace obx;
  const std::size_t n = 16;   // vertices per polygon
  const std::size_t p = 128;  // polygons in the batch

  // 1. Build the batch of weight matrices.
  Rng rng(42);
  const trace::Program program = algos::opt_program(n);
  std::vector<std::vector<Point>> polygons;
  std::vector<Word> inputs;
  inputs.reserve(p * n * n);
  for (std::size_t q = 0; q < p; ++q) {
    polygons.push_back(random_convex_polygon(n, rng));
    for (double w : chord_lengths(polygons.back())) {
      inputs.push_back(trace::from_f64(w));
    }
  }

  // 2. Bulk-execute Algorithm OPT for all polygons.
  const plan::BulkOutputs tables = plan::run_bulk(program, inputs, p);

  // 3. Verify every polygon against the native DP and summarise.
  double min_weight = 1e300, max_weight = 0.0;
  for (std::size_t q = 0; q < p; ++q) {
    const std::vector<double> c = chord_lengths(polygons[q]);
    const double expected = algos::opt_native(n, c);
    const double got =
        trace::as_f64(tables.output(q)[1 * n + (n - 1)]);  // M[1][n-1]
    if (std::abs(got - expected) > 1e-9) {
      std::printf("polygon %zu: bulk %.9f != native %.9f\n", q, got, expected);
      return 1;
    }
    min_weight = std::min(min_weight, got);
    max_weight = std::max(max_weight, got);
  }
  std::printf("triangulated %zu convex %zu-gons in bulk; optimal weights in "
              "[%.4f, %.4f]\n",
              p, n, min_weight, max_weight);

  // 4. Reconstruct the chord set of the first polygon.
  std::vector<double> m(n * n);
  const auto table = tables.output(0);
  for (std::size_t i = 0; i < n * n; ++i) m[i] = trace::as_f64(table[i]);
  const std::vector<double> c = chord_lengths(polygons[0]);
  std::vector<std::pair<std::size_t, std::size_t>> chords;
  reconstruct(n, m, c, 1, n - 1, chords);
  std::printf("polygon 0 uses %zu chords (a triangulation of an %zu-gon has "
              "%zu):\n  ",
              chords.size(), n, n - 3);
  for (const auto& [a, b] : chords) std::printf("(%zu,%zu) ", a, b);
  std::printf("\n");
  if (chords.size() != n - 3) {
    std::printf("unexpected chord count!\n");
    return 1;
  }
  std::printf("ok\n");
  return 0;
}
