// common/: coroutine generator, RNG, formatting, checks, SIMD ISA
// selection, aligned allocation.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/aligned.hpp"
#include "common/check.hpp"
#include "common/format.hpp"
#include "common/generator.hpp"
#include "common/rng.hpp"
#include "common/simd_isa.hpp"
#include "trace/value.hpp"

namespace {

using namespace obx;

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

Generator<int> count_to(int n) {
  for (int i = 0; i < n; ++i) co_yield i;
}

Generator<int> throwing_gen() {
  co_yield 1;
  throw std::runtime_error("boom");
}

TEST(Generator, YieldsInOrder) {
  auto gen = count_to(5);
  std::vector<int> got;
  int v;
  while (gen.next(v)) got.push_back(v);
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_FALSE(gen.next(v));  // exhausted stays exhausted
}

TEST(Generator, RangeForInterface) {
  auto gen = count_to(4);
  int sum = 0;
  for (int v : gen) sum += v;
  EXPECT_EQ(sum, 6);
}

TEST(Generator, EmptyStream) {
  auto gen = count_to(0);
  int v;
  EXPECT_FALSE(gen.next(v));
}

TEST(Generator, PropagatesExceptions) {
  auto gen = throwing_gen();
  int v;
  EXPECT_TRUE(gen.next(v));
  EXPECT_EQ(v, 1);
  EXPECT_THROW(gen.next(v), std::runtime_error);
}

TEST(Generator, MoveTransfersOwnership) {
  auto gen = count_to(3);
  int v;
  ASSERT_TRUE(gen.next(v));
  Generator<int> other = std::move(gen);
  ASSERT_TRUE(other.next(v));
  EXPECT_EQ(v, 1);
  EXPECT_FALSE(gen.valid());
}

TEST(Generator, DefaultConstructedIsEmpty) {
  Generator<int> gen;
  int v;
  EXPECT_FALSE(gen.next(v));
  EXPECT_FALSE(gen.valid());
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(7), 7u);
  }
  EXPECT_THROW(rng.next_below(0), std::logic_error);
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(2);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 1000; ++i) ++seen[rng.next_below(5)];
  for (int count : seen) EXPECT_GT(count, 100);  // roughly uniform
}

TEST(Rng, DoublesInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double(-2.5, 7.5);
    EXPECT_GE(v, -2.5);
    EXPECT_LT(v, 7.5);
  }
}

TEST(Rng, WordVectors) {
  Rng rng(4);
  const auto f = rng.words_f64(100, 0.0, 1.0);
  ASSERT_EQ(f.size(), 100u);
  for (Word w : f) {
    const double v = trace::as_f64(w);
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
  const auto u = rng.words_u64(100, 10);
  for (Word w : u) EXPECT_LT(w, 10u);
}

// ---------------------------------------------------------------------------
// Formatting
// ---------------------------------------------------------------------------

TEST(Format, Counts) {
  EXPECT_EQ(format_count(64), "64");
  EXPECT_EQ(format_count(1024), "1K");
  EXPECT_EQ(format_count(32768), "32K");
  EXPECT_EQ(format_count(4194304), "4M");
  EXPECT_EQ(format_count(1073741824), "1G");
  EXPECT_EQ(format_count(1000), "1000");  // not a binary multiple
  EXPECT_EQ(format_count(1536), "1536");  // 1.5K stays exact
}

TEST(Format, Seconds) {
  EXPECT_EQ(format_seconds(2.5), "2.500 s");
  EXPECT_EQ(format_seconds(0.0679), "67.900 ms");
  EXPECT_EQ(format_seconds(37e-6), "37.000 us");
  EXPECT_EQ(format_seconds(8.09e-9), "8.090 ns");
}

TEST(Format, Units) {
  EXPECT_EQ(format_units(12.0), "12 cycles");
  EXPECT_EQ(format_units(12345.0), "12.345 Kcycles");
  EXPECT_EQ(format_units(3.5e6), "3.500 Mcycles");
  EXPECT_EQ(format_units(2e9), "2.000 Gcycles");
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

TEST(Check, ThrowsWithContext) {
  try {
    OBX_CHECK(false, "the message");
    FAIL() << "should have thrown";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("the message"), std::string::npos);
    EXPECT_NE(what.find("common_test"), std::string::npos);
  }
}

TEST(Check, PassesSilently) { OBX_CHECK(true, "never seen"); }

// ---------------------------------------------------------------------------
// SIMD ISA selection
// ---------------------------------------------------------------------------

TEST(SimdIsa, WidthsAndNames) {
  EXPECT_EQ(simd_width_words(SimdIsa::kScalar), 1u);
  EXPECT_EQ(simd_width_words(SimdIsa::kSse2), 2u);
  EXPECT_EQ(simd_width_words(SimdIsa::kNeon), 2u);
  EXPECT_EQ(simd_width_words(SimdIsa::kAvx2), 4u);
  EXPECT_EQ(simd_width_words(SimdIsa::kAvx512), 8u);
  for (const SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kSse2, SimdIsa::kNeon,
                            SimdIsa::kAvx2, SimdIsa::kAvx512}) {
    EXPECT_EQ(parse_simd_isa(to_string(isa)), isa);
  }
  EXPECT_FALSE(parse_simd_isa("auto").has_value());
  EXPECT_FALSE(parse_simd_isa("").has_value());
  EXPECT_FALSE(parse_simd_isa("avx1024").has_value());
}

TEST(SimdIsa, DetectionIsSupportedAndStable) {
  EXPECT_TRUE(simd_isa_supported(SimdIsa::kScalar));
  const SimdIsa detected = detect_simd_isa();
  EXPECT_TRUE(simd_isa_supported(detected));
  EXPECT_EQ(detect_simd_isa(), detected);
  // The latched active tier is one of the supported tiers (OBX_SIMD
  // overrides clamp to supported ones).
  EXPECT_TRUE(simd_isa_supported(active_simd_isa()));
  EXPECT_EQ(active_simd_isa(), active_simd_isa());
}

TEST(SimdIsa, SupportedTiersRunNarrowestFirst) {
  const std::vector<SimdIsa> tiers = supported_simd_isas();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), SimdIsa::kScalar);
  EXPECT_EQ(tiers.back(), detect_simd_isa());
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    EXPECT_TRUE(simd_isa_supported(tiers[i])) << to_string(tiers[i]);
    if (i > 0) {
      EXPECT_LT(tiers[i - 1], tiers[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Aligned allocation
// ---------------------------------------------------------------------------

TEST(Aligned, VectorStorageIs64ByteAligned) {
  for (const std::size_t n : {1u, 3u, 17u, 1000u}) {
    aligned_vector<Word> v(n, Word{42});
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kSimdAlignBytes, 0u)
        << "n=" << n;
  }
}

TEST(Aligned, ComparesWithPlainVector) {
  const aligned_vector<Word> a{1, 2, 3};
  const std::vector<Word> b{1, 2, 3};
  const std::vector<Word> c{1, 2, 4};
  const std::vector<Word> d{1, 2};
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(b == a);
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == d);
  EXPECT_TRUE(a == aligned_vector<Word>(b.begin(), b.end()));
}

TEST(Aligned, HugePageHintIsBestEffort) {
  // The hint must be harmless whatever the platform, the OBX_THP setting, or
  // the allocation size: above-threshold allocations still work and stay
  // 64-byte aligned, and hinting an arbitrary buffer directly never throws.
  aligned_vector<Word> big((kHugePageHintBytes / sizeof(Word)) + 7, Word{1});
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big.data()) % kSimdAlignBytes, 0u);
  EXPECT_EQ(big.back(), Word{1});
  hint_huge_pages(big.data(), big.size() * sizeof(Word));
  hint_huge_pages(big.data(), 16);  // below threshold: no-op
  // Latched toggle is consistent across calls.
  EXPECT_EQ(huge_page_hint_enabled(), huge_page_hint_enabled());
}

}  // namespace
