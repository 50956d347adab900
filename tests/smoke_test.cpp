// Build-sanity smoke test: one end-to-end pass through every major module.
#include <gtest/gtest.h>

#include "algos/prefix_sums.hpp"
#include "common/rng.hpp"
#include "plan/plan.hpp"
#include "trace/interpreter.hpp"
#include "umm/cost_model.hpp"

namespace {

using namespace obx;

TEST(Smoke, EndToEndPrefixSums) {
  const std::size_t n = 16;
  const std::size_t p = 8;
  const trace::Program program = algos::prefix_sums_program(n);

  Rng rng(1);
  std::vector<Word> inputs;
  for (std::size_t j = 0; j < p; ++j) {
    const auto one = algos::prefix_sums_random_input(n, rng);
    inputs.insert(inputs.end(), one.begin(), one.end());
  }

  const plan::BulkOutputs outputs = plan::run_bulk(program, inputs, p);
  ASSERT_EQ(outputs.count(), p);

  for (std::size_t j = 0; j < p; ++j) {
    const auto expected = algos::prefix_sums_reference(
        n, std::span<const Word>(inputs).subspan(j * n, n));
    const auto got = outputs.output(j);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(got[i], expected[i]) << "lane " << j;
  }
}

}  // namespace
