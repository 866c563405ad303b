// Tests for the deterministic RNG, Zipf sampler and shuffle.
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <stdexcept>
#include <numeric>
#include <vector>

namespace hcc::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(123);
  Rng b(124);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a() == b());
  EXPECT_LT(equal, 5);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(7);
  Rng child = parent.split();
  // The child must not replay the parent's outputs.
  Rng parent2(7);
  (void)parent2();  // consume the draw that seeded the child
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (child() == parent2());
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformU64RespectsBound) {
  Rng rng(42);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.uniform_u64(bound), bound);
    }
  }
}

TEST(Rng, UniformU64CoversSmallRange) {
  Rng rng(42);
  std::map<std::uint64_t, int> hist;
  for (int i = 0; i < 6000; ++i) ++hist[rng.uniform_u64(6)];
  ASSERT_EQ(hist.size(), 6u);
  for (const auto& [value, count] : hist) {
    EXPECT_GT(count, 800) << "value " << value << " under-represented";
    EXPECT_LT(count, 1200) << "value " << value << " over-represented";
  }
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 7.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 7.5);
  }
}

TEST(Rng, NormalHasExpectedMoments) {
  Rng rng(99);
  const int n = 50000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, NormalWithParamsShiftsAndScales) {
  Rng rng(99);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 0.5);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Zipf, MostPopularIsIndexZero) {
  ZipfSampler zipf(100, 1.0);
  Rng rng(5);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf(rng)];
  EXPECT_EQ(std::max_element(counts.begin(), counts.end()) - counts.begin(),
            0);
  // Zipf(1.0): item 0 should be ~2x item 1 and ~10x item 9.
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[0], 5 * counts[9]);
}

TEST(Zipf, CoversWholeRangeEventually) {
  ZipfSampler zipf(10, 0.5);
  Rng rng(6);
  std::vector<bool> seen(10, false);
  for (int i = 0; i < 5000; ++i) seen[zipf(rng)] = true;
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(Zipf, ZeroExponentIsUniform) {
  ZipfSampler zipf(4, 0.0);
  Rng rng(7);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 8000; ++i) ++counts[zipf(rng)];
  for (int c : counts) {
    EXPECT_GT(c, 1700);
    EXPECT_LT(c, 2300);
  }
}

TEST(Zipf, RejectsEmptyRange) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
}

// The guide table must only narrow the search, never change its answer:
// index(u) is the lower bound of u in the CDF, clamped to n-1.
TEST(Zipf, GuideIndexMatchesLowerBound) {
  for (const std::size_t n : {1u, 2u, 16u, 889u, 24010u}) {
    for (const double s : {0.0, 0.8, 1.0}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " s=" << s);
      const ZipfSampler zipf(n, s);
      ASSERT_EQ(zipf.size(), n);
      std::vector<double> cdf(n);
      double total = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        total += 1.0 / std::pow(static_cast<double>(i + 1), s);
        cdf[i] = total;
      }
      for (auto& c : cdf) c /= total;
      auto reference = [&cdf](double u) {
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
        return std::min<std::size_t>(it - cdf.begin(), cdf.size() - 1);
      };

      std::vector<double> probes{0.0, 1.0 - 0x1.0p-53};
      std::size_t buckets = 1;
      while (buckets < n) buckets *= 2;
      for (std::size_t j = 1; j < buckets; ++j) {
        const double edge = static_cast<double>(j) / static_cast<double>(buckets);
        probes.push_back(edge);
        probes.push_back(std::nextafter(edge, 0.0));
      }
      // Every CDF value and its neighbours are the other place an
      // off-by-one can hide.
      for (const double c : cdf) {
        if (c < 1.0) probes.push_back(c);
        probes.push_back(std::nextafter(c, 0.0));
      }
      Rng rng(n * 31 + static_cast<std::size_t>(s * 10));
      for (int d = 0; d < 100000; ++d) probes.push_back(rng.uniform());

      for (const double u : probes) {
        ASSERT_EQ(zipf.index(u), reference(u)) << "u=" << u;
      }
    }
  }
}

/// The plain one-draw-per-swap Fisher-Yates loop that shuffle() must match.
template <typename T>
void reference_shuffle(std::vector<T>& v, Rng& rng) {
  if (v.size() < 2) return;
  for (std::size_t i = v.size() - 1; i > 0; --i) {
    const std::size_t j = rng.uniform_u64(i + 1);
    std::swap(v[i], v[j]);
  }
}

TEST(Shuffle, MatchesReferenceFisherYates) {
  for (const std::size_t size : {0u, 1u, 2u, 31u, 32u, 33u, 1000u, 100003u}) {
    SCOPED_TRACE(::testing::Message() << "size=" << size);
    std::vector<std::uint32_t> expected(size);
    std::iota(expected.begin(), expected.end(), 0u);
    std::vector<std::uint32_t> actual = expected;
    Rng reference_rng(size + 17);
    Rng rng(size + 17);
    reference_shuffle(expected, reference_rng);
    shuffle(actual, rng);
    EXPECT_EQ(actual, expected);
    EXPECT_EQ(rng(), reference_rng()) << "Rng state after the shuffle";
  }
}

TEST(Shuffle, ProducesPermutation) {
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  Rng rng(3);
  shuffle(v, rng);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Shuffle, ActuallyShuffles) {
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  Rng rng(3);
  shuffle(v, rng);
  int fixed = 0;
  for (int i = 0; i < 100; ++i) fixed += (v[i] == i);
  EXPECT_LT(fixed, 15);
}

TEST(Shuffle, HandlesDegenerateSizes) {
  Rng rng(3);
  std::vector<int> empty;
  shuffle(empty, rng);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  shuffle(one, rng);
  EXPECT_EQ(one[0], 42);
}

TEST(SplitMix, IsDeterministicMixer) {
  std::uint64_t s1 = 10;
  std::uint64_t s2 = 10;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
  // Consecutive outputs from the same state differ.
  const std::uint64_t first = splitmix64(s1);
  const std::uint64_t second = splitmix64(s1);
  EXPECT_NE(first, second);
}

}  // namespace
}  // namespace hcc::util
