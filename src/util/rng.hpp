// Deterministic random number generation for HCC-MF.
//
// Everything in this library that needs randomness takes an explicit Rng (or
// a seed) so that experiments, tests and benchmarks are reproducible run to
// run and host to host.  The generator is xoshiro256**, seeded via SplitMix64
// per the reference implementations by Blackman & Vigna (public domain).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace hcc::util {

/// SplitMix64 step: used to expand a single 64-bit seed into generator state.
/// Also usable stand-alone as a cheap hash / stateless mixer.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** PRNG.  Satisfies std::uniform_random_bit_generator, so it can
/// be plugged into <random> distributions, but the members below avoid
/// <random>'s cross-platform nondeterminism.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from one 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    for (auto& word : state_) word = splitmix64(seed);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). Uses Lemire's multiply-shift rejection method;
  /// unbiased and deterministic across platforms.
  std::uint64_t uniform_u64(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Standard normal via Box-Muller (deterministic, no <random>).
  double normal() noexcept;

  /// Normal with the given mean / standard deviation.
  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Derives an independent child generator; useful for giving each worker
  /// thread its own stream derived from one experiment seed.
  Rng split() noexcept { return Rng((*this)()); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Approximate-Zipf sampler over {0, .., n-1} with exponent `s`, built with
/// the usual inverse-CDF table.  Rating datasets have Zipf-ish user/item
/// popularity; the synthetic generators use this to reproduce that skew.
class ZipfSampler {
 public:
  /// Builds the cumulative table and its guide table.  O(n) memory; fine for
  /// the scaled dataset sizes this repo works with.  Throws
  /// std::invalid_argument when n is 0 or does not fit in 32 bits.
  ZipfSampler(std::size_t n, double s);

  /// The inverse CDF at u in [0, 1): the first index whose cumulative weight
  /// is >= u, clamped to n-1 (rounding can leave the last weight below u).
  std::size_t index(double u) const noexcept;

  /// Draws one index, most-popular = 0.
  std::size_t operator()(Rng& rng) const noexcept {
    return index(rng.uniform());
  }

  std::size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  // normalized cumulative weights
  // guide_[j] = first index with cdf_ >= j/G (n if none), for j in [0, G],
  // where G is the smallest power of two >= n.
  std::vector<std::uint32_t> guide_;
};

/// In-place Fisher–Yates shuffle with the deterministic Rng.  Swap targets
/// are drawn a batch ahead so their (random) cache lines can be prefetched;
/// the draws and the swaps keep the plain loop's order, so the permutation
/// and the Rng state afterwards are the same as drawing one at a time.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  constexpr std::size_t kAhead = 32;
  std::array<std::size_t, kAhead> targets{};
  // Swaps positions i-1, i-2, .., 1 with a uniform pick from [0, position].
  for (std::size_t i = v.size(); i > 1;) {
    const std::size_t batch = std::min(kAhead, i - 1);
    for (std::size_t k = 0; k < batch; ++k) {
      targets[k] = rng.uniform_u64(i - k);
      __builtin_prefetch(&v[targets[k]], 1);
    }
    for (std::size_t k = 0; k < batch; ++k) {
      using std::swap;
      swap(v[i - 1 - k], v[targets[k]]);
    }
    i -= batch;
  }
}

}  // namespace hcc::util
