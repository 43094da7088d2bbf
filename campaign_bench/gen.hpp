// Seeded input generation for the campaign benchmark. The workload seed
// drives every choice the benchmark makes about its inputs (the order of
// pairs within a campaign, the service soak's submission sequence); the
// program under test only ever sees the generated requests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

namespace campaign_bench {

/// SplitMix64: small, fast, and fully specified, so a seed names the same
/// inputs on every platform and standard library.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, bound); bound must be > 0. Rejection sampling keeps
  /// the draw unbiased.
  std::uint64_t below(std::uint64_t bound) {
    const std::uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
    std::uint64_t x = next();
    while (x >= limit) x = next();
    return x % bound;
  }

 private:
  std::uint64_t state_;
};

/// A uniformly random permutation of 0..n-1 (Fisher-Yates).
inline std::vector<std::size_t> permutation(std::size_t n, SplitMix64& rng) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

/// `count` draws from 0..n-1 made of back-to-back shuffled laps, so every
/// index appears once per lap of n draws: a soak of at least n draws
/// covers the whole suite whatever the seed.
inline std::vector<std::size_t> shuffled_laps(std::size_t n, std::size_t count,
                                              SplitMix64& rng) {
  std::vector<std::size_t> draws;
  draws.reserve(count);
  while (draws.size() < count) {
    for (std::size_t i : permutation(n, rng)) {
      if (draws.size() == count) break;
      draws.push_back(i);
    }
  }
  return draws;
}

}  // namespace campaign_bench
