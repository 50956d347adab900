// The shared-memory (DMM) tier: bank-conflict counting, the conflict-free
// arrangement's zero-conflict guarantee, and the closed-form StridedStepCost
// under the shared rule against the brute-force oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "algos/prefix_sums.hpp"
#include "bulk/layout.hpp"
#include "bulk/timing_estimator.hpp"
#include "bulk/umm_executor.hpp"
#include "umm/cost_model.hpp"
#include "umm/dmm.hpp"
#include "umm/machine_config.hpp"
#include "umm/warp.hpp"

namespace {

using namespace obx;
using namespace obx::bulk;

// Brute-force conflict profile of one bulk access step: splits the p lanes
// into width-sized warps, maps lane j to layout.global(a, j), and counts
// each warp's bank-conflict rounds directly.
struct StepProfile {
  std::uint64_t rounds = 0;     // Σ per-warp rounds
  std::uint64_t warps = 0;      // warps dispatched
  std::uint64_t max_rounds = 0; // worst single warp
};

StepProfile profile_step(const Layout& layout, Addr a, std::uint32_t width,
                         const umm::SharedTier& tier) {
  StepProfile out;
  const std::size_t p = layout.lanes();
  for (std::size_t warp = 0; warp * width < p; ++warp) {
    std::vector<Addr> addrs;
    for (std::size_t k = 0; k < width && warp * width + k < p; ++k) {
      addrs.push_back(layout.global(a, warp * width + k));
    }
    const std::uint64_t r = umm::dmm_warp_stages(addrs, tier.banks, tier.bank_words);
    out.rounds += r;
    out.max_rounds = std::max(out.max_rounds, r);
    ++out.warps;
  }
  return out;
}

// Worst per-warp rounds over every address of the program memory.
std::uint64_t worst_rounds(const Layout& layout, std::size_t n, std::uint32_t width,
                           const umm::SharedTier& tier) {
  std::uint64_t worst = 0;
  for (Addr a = 0; a < n; ++a) {
    worst = std::max(worst, profile_step(layout, a, width, tier).max_rounds);
  }
  return worst;
}

TEST(BankConflict, ConflictFreeArrangementHasZeroConflicts) {
  // At every bank-row width, the padded stride keeps consecutive lanes on
  // consecutive banks: one round per warp, always.
  const std::size_t n = 24;
  const std::uint32_t width = 32;
  for (const std::uint32_t bank_words : {1u, 2u, 4u, 8u}) {
    const umm::SharedTier tier{.banks = 32, .bank_words = bank_words, .latency = 2};
    const std::size_t stride = umm::conflict_free_stride(tier);
    EXPECT_EQ(stride, bank_words);
    for (const std::size_t p : {32u, 64u, 96u, 256u}) {
      const Layout cf = Layout::conflict_free(p, n, stride);
      EXPECT_EQ(worst_rounds(cf, n, width, tier), 1u)
          << "bank_words=" << bank_words << " p=" << p;
    }
  }
}

TEST(BankConflict, QuantifiesNaiveArrangements) {
  // With bank rows wider than one word, the stride-1 (column-wise) layout
  // lands bank_words consecutive lanes on each bank: exactly bank_words
  // rounds per warp.  Row-wise at an even lane stride folds whole warps onto
  // few banks.  The conflict-free stride removes all of it.
  const std::size_t n = 16;
  const std::size_t p = 64;
  const std::uint32_t width = 32;
  for (const std::uint32_t bank_words : {2u, 4u, 8u}) {
    const umm::SharedTier tier{.banks = 32, .bank_words = bank_words, .latency = 2};
    const Layout col = Layout::column_wise(p, n);
    EXPECT_EQ(worst_rounds(col, n, width, tier), bank_words);

    // Row-wise: lane stride n = 16 words jumps 16/bank_words banks per lane,
    // so a warp revisits each bank width / (banks*bank_words/16) times.
    const Layout row = Layout::row_wise(p, n);
    const std::uint64_t modulus = std::uint64_t{tier.banks} * tier.bank_words;
    const std::uint64_t distinct = modulus / std::gcd<std::uint64_t>(n, modulus);
    EXPECT_EQ(worst_rounds(row, n, width, tier),
              (width + distinct - 1) / distinct);

    const Layout cf = Layout::conflict_free(p, n, umm::conflict_free_stride(tier));
    EXPECT_EQ(worst_rounds(cf, n, width, tier), 1u);
  }
}

TEST(BankConflict, BlockedArrangementProfiles) {
  // Blocked layouts are column-wise inside each block; the brute-force
  // counter quantifies them too (they are not arithmetic progressions, so
  // the strided fast path refuses them — see TimingEstimator::supports).
  const std::size_t n = 16;
  const std::size_t p = 64;
  const std::uint32_t width = 32;
  const umm::SharedTier tier{.banks = 32, .bank_words = 4, .latency = 2};
  const Layout blocked = Layout::blocked(p, n, 32);
  const std::uint64_t w = worst_rounds(blocked, n, width, tier);
  EXPECT_GE(w, 1u);
  EXPECT_LE(w, width);
}

TEST(BankConflict, SharedRuleStridedCostMatchesBruteForce) {
  // The closed-form per-step cost under the shared rule must agree with the
  // brute-force bank counter for every arithmetic-progression layout:
  // strides, ragged tails, odd bases.
  for (const std::uint32_t banks : {8u, 32u}) {
    for (const std::uint32_t bank_words : {1u, 2u, 4u}) {
      const umm::SharedTier tier{.banks = banks, .bank_words = bank_words, .latency = 2};
      for (const std::uint64_t stride : {1u, 2u, 3u, 4u, 7u, 16u, 33u}) {
        for (const std::uint64_t p : {8u, 31u, 32u, 64u, 70u}) {
          const umm::StridedStepCost cost(umm::WarpRule::shared(tier), 16, p, stride);
          for (Addr base = 0; base < 2 * std::uint64_t{banks} * bank_words; base += 3) {
            std::uint64_t rounds = 0;
            std::uint64_t warps = 0;
            for (std::uint64_t warp = 0; warp * 16 < p; ++warp) {
              std::vector<Addr> addrs;
              for (std::uint64_t k = 0; k < 16 && warp * 16 + k < p; ++k) {
                addrs.push_back(base + (warp * 16 + k) * stride);
              }
              rounds += umm::dmm_warp_stages(addrs, banks, bank_words);
              ++warps;
            }
            const umm::StepStages got = cost.stages(base);
            ASSERT_EQ(got.stages, rounds)
                << "banks=" << banks << " bw=" << bank_words << " stride=" << stride
                << " p=" << p << " base=" << base;
            ASSERT_EQ(got.warps, warps);
          }
        }
      }
    }
  }
}

TEST(BankConflict, EstimatorMatchesExactExecutorWithTierOn) {
  // The TimingEstimator fast path and the exact lane-level executor must
  // charge identical units and counters when the shared tier is enabled.
  const std::size_t n = 32;
  const std::size_t p = 96;
  const umm::MachineConfig cfg = umm::conflict_heavy_example();
  const trace::Program program = algos::prefix_sums_program(n);
  const std::vector<Word> zeros(p * program.input_words, Word{0});

  const std::size_t cf = umm::conflict_free_stride(cfg.shared);
  for (const Layout& layout :
       {Layout::row_wise(p, n), Layout::column_wise(p, n),
        Layout::conflict_free(p, n, cf)}) {
    ASSERT_TRUE(TimingEstimator::supports(cfg, layout)) << layout.name();
    const TimingResult fast = TimingEstimator(umm::Model::kUmm, cfg, layout).run(program);
    const UmmRunResult exact = UmmBulkExecutor(umm::Model::kUmm, cfg, layout).run(program, zeros);
    EXPECT_EQ(fast.time_units, exact.time_units) << layout.name();
    EXPECT_EQ(fast.stats, exact.stats) << layout.name();
    EXPECT_GT(fast.stats.shared_rounds_total, 0u) << layout.name();
  }

  // Blocked is outside the fast path with the tier on; simulate_units must
  // route it through the exact executor and agree with a direct run.
  const Layout blocked = Layout::blocked(p, n, 32);
  EXPECT_FALSE(TimingEstimator::supports(cfg, blocked));
  EXPECT_EQ(simulate_units(program, blocked, umm::Model::kUmm, cfg),
            UmmBulkExecutor(umm::Model::kUmm, cfg, blocked).run(program, zeros).time_units);
}

TEST(BankConflict, SharedTierValidation) {
  umm::SharedTier bad{.banks = 32, .bank_words = 0, .latency = 1};
  EXPECT_THROW(bad.validate(), std::logic_error);
  bad = umm::SharedTier{.banks = 32, .bank_words = 1, .latency = 0};
  EXPECT_THROW(bad.validate(), std::logic_error);
  const umm::SharedTier off{};
  off.validate();  // disabled tier is always valid
  EXPECT_EQ(umm::conflict_free_stride(off), 1u);
}

}  // namespace
