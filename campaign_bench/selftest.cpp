// Tests of the benchmark's order statistics and seeded generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "gen.hpp"
#include "stats.hpp"

namespace campaign_bench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, NearestRank) {
  const auto v = one_to(100);
  EXPECT_EQ(percentile(v, 50), 50);
  EXPECT_EQ(percentile(v, 90), 90);
  EXPECT_EQ(percentile(v, 100), 100);
  EXPECT_EQ(percentile(v, 0.5), 1);
  EXPECT_EQ(percentile({7}, 50), 7);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2);  // the lower middle
}

TEST(Percentile, IgnoresInputOrder) {
  auto v = one_to(37);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(percentile(v, 75), 28);
}

TEST(Percentile, EmptyThrows) {
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
}

TEST(Tail, SamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 90), 10u);
  EXPECT_EQ(samples_beyond(99, 90), 9u);
  EXPECT_EQ(samples_beyond(40, 75), 10u);
  EXPECT_EQ(samples_beyond(20, 50), 10u);
  EXPECT_EQ(samples_beyond(5, 100), 0u);
}

TEST(Tail, HighestLevelWithTenBeyond) {
  EXPECT_EQ(tail_level(19), 0.0);
  EXPECT_EQ(tail_level(20), 50.0);
  EXPECT_EQ(tail_level(39), 50.0);
  EXPECT_EQ(tail_level(40), 75.0);
  EXPECT_EQ(tail_level(100000), 75.0);  // capped at p75
}

TEST(Tail, ValueAtThatLevel) {
  EXPECT_EQ(tail(one_to(100)), 75);
  EXPECT_EQ(tail(one_to(30)), 15);
  EXPECT_EQ(tail(one_to(10)), 5);  // too few samples: the median
}

TEST(Generator, SameSeedSameSequence) {
  SplitMix64 a(42), b(42), c(43);
  std::vector<std::uint64_t> va, vb, vc;
  for (int i = 0; i < 64; ++i) {
    va.push_back(a.next());
    vb.push_back(b.next());
    vc.push_back(c.next());
  }
  EXPECT_EQ(va, vb);
  EXPECT_NE(va, vc);
}

TEST(Generator, KnownFirstOutput) {
  // SplitMix64's reference output for seed 0 pins the generator across
  // compilers and platforms.
  SplitMix64 rng(0);
  EXPECT_EQ(rng.next(), 0xe220a8397b1dcdafULL);
}

TEST(Generator, BelowStaysInRange) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(10), 10u);
}

TEST(Generator, PermutationIsDeterministicAndComplete) {
  SplitMix64 a(9), b(9);
  const auto pa = permutation(10, a);
  EXPECT_EQ(pa, permutation(10, b));
  EXPECT_EQ(std::set<std::size_t>(pa.begin(), pa.end()).size(), 10u);
  // Successive draws from one stream give different orders.
  EXPECT_NE(pa, permutation(10, a));
}

TEST(Generator, ShuffledLapsCoverEverySuiteEntry) {
  SplitMix64 a(5), b(5);
  const auto draws = shuffled_laps(10, 25, a);
  EXPECT_EQ(draws, shuffled_laps(10, 25, b));
  ASSERT_EQ(draws.size(), 25u);
  for (std::size_t lap = 0; lap < 2; ++lap) {
    std::set<std::size_t> seen(draws.begin() + lap * 10,
                               draws.begin() + lap * 10 + 10);
    EXPECT_EQ(seen.size(), 10u);
  }
}

}  // namespace
}  // namespace campaign_bench
