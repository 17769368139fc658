#ifndef DECA_COMMON_RANDOM_H_
#define DECA_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace deca {

/// Deterministic, fast pseudo-random generator (xoshiro256** seeded via
/// splitmix64). All data generators in the repository draw from this so
/// experiments are reproducible across runs and platforms.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Returns the next raw 64-bit value.
  uint64_t Next();

  /// Returns a uniform integer in [0, bound). `bound` must be > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Returns a uniform double in [0, 1).
  double NextDouble();

  /// Returns a uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Returns a standard-normal variate (Box–Muller).
  double NextGaussian();

 private:
  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// Samples integers in [0, n) with a Zipf(s) distribution; used by the
/// word-count text generator to produce skewed key popularity.
class ZipfSampler {
 public:
  /// Builds the inverse-CDF table for `n` distinct items with exponent `s`.
  ZipfSampler(uint64_t n, double s, uint64_t seed);

  /// Draws one sample (a rank in [0, n), rank 0 most popular).
  uint64_t Next();

  uint64_t n() const { return n_; }

 private:
  uint64_t n_;
  Rng rng_;
  std::vector<double> cdf_;  // cumulative probabilities, size n (capped)
  bool exact_;               // true when cdf_ covers all n items
  double head_mass_;         // probability mass covered by cdf_ when !exact_
};

}  // namespace deca

#endif  // DECA_COMMON_RANDOM_H_
