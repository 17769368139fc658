#include "common/random.h"

#include <cmath>

#include "common/logging.h"

namespace deca {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// Largest inverse-CDF table we materialize for Zipf sampling; beyond this
// the tail is approximated by a uniform draw over the remaining ranks.
constexpr uint64_t kMaxZipfTable = 1u << 22;

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  DECA_DCHECK(bound > 0);
  // Lemire's multiply-shift rejection method.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t lo = static_cast<uint64_t>(m);
  if (lo < bound) {
    uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::NextDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = NextDouble();
  double u2 = NextDouble();
  while (u1 <= 1e-300) u1 = NextDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

ZipfSampler::ZipfSampler(uint64_t n, double s, uint64_t seed)
    : n_(n), rng_(seed) {
  DECA_CHECK(n > 0);
  uint64_t table = n < kMaxZipfTable ? n : kMaxZipfTable;
  exact_ = table == n;
  cdf_.resize(table);
  double sum = 0.0;
  for (uint64_t i = 0; i < table; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  // Estimate the total mass of the full distribution via the integral tail
  // bound so truncated tables still produce roughly correct head frequency.
  double total = sum;
  if (!exact_) {
    if (s == 1.0) {
      total += std::log(static_cast<double>(n) / static_cast<double>(table));
    } else {
      total += (std::pow(static_cast<double>(n), 1.0 - s) -
                std::pow(static_cast<double>(table), 1.0 - s)) /
               (1.0 - s);
    }
  }
  for (auto& c : cdf_) c /= total;
  head_mass_ = sum / total;
}

uint64_t ZipfSampler::Next() {
  double u = rng_.NextDouble();
  if (!exact_ && u >= head_mass_) {
    // Tail: approximate as uniform over the untabulated ranks.
    return cdf_.size() + rng_.NextBounded(n_ - cdf_.size());
  }
  // Binary search the inverse CDF.
  size_t lo = 0;
  size_t hi = cdf_.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < cdf_.size() ? lo : cdf_.size() - 1;
}

}  // namespace deca
