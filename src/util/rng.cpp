#include "util/rng.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>

namespace hcc::util {

std::uint64_t Rng::uniform_u64(std::uint64_t bound) noexcept {
  assert(bound > 0);
  // Lemire 2019: multiply a 64-bit draw by the bound and keep the high word,
  // rejecting the small biased band at the bottom of each residue class.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; re-draw u1 so log() never sees zero.
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  cached_normal_ = radius * std::sin(kTwoPi * u2);
  has_cached_normal_ = true;
  return radius * std::cos(kTwoPi * u2);
}

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  if (n == 0 || n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("ZipfSampler: n must be in [1, 2^32)");
  }
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (auto& c : cdf_) c /= total;

  std::size_t buckets = 1;
  while (buckets < n) buckets *= 2;
  guide_.resize(buckets + 1);
  std::size_t idx = 0;
  for (std::size_t j = 0; j <= buckets; ++j) {
    const double edge = static_cast<double>(j) / static_cast<double>(buckets);
    while (idx < n && cdf_[idx] < edge) ++idx;
    guide_[j] = static_cast<std::uint32_t>(idx);
  }
}

std::size_t ZipfSampler::index(double u) const noexcept {
  assert(u >= 0.0 && u < 1.0);
  // Scaling by the power-of-two bucket count is exact, so j/G <= u <
  // (j+1)/G and the answer lies in [guide_[j], guide_[j+1]].  Searching
  // [guide_[j], guide_[j+1]) suffices: when every entry there is < u, the
  // search ends on guide_[j+1], which is then the answer.
  const std::size_t buckets = guide_.size() - 1;
  const auto j = static_cast<std::size_t>(u * static_cast<double>(buckets));
  const std::size_t n = cdf_.size();
  std::size_t lo = guide_[j];
  std::size_t hi = guide_[j + 1];
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < n ? lo : n - 1;
}

}  // namespace hcc::util
