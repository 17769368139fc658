#include "common/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace deca {

void Histogram::Add(double value) {
  samples_.push_back(value);
  sum_ += value;
  sorted_ = false;
}

double Histogram::Mean() const {
  return samples_.empty() ? 0.0 : sum_ / static_cast<double>(samples_.size());
}

double Histogram::Min() const {
  return samples_.empty()
             ? 0.0
             : *std::min_element(samples_.begin(), samples_.end());
}

double Histogram::Max() const {
  return samples_.empty()
             ? 0.0
             : *std::max_element(samples_.begin(), samples_.end());
}

double Histogram::Percentile(double p) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = static_cast<size_t>(std::ceil(rank));
  double frac = rank - static_cast<double>(lo);
  // lo + (hi - lo) * frac is monotone in `p`, and the clamp stops rounding
  // from carrying it past samples_[hi] when neighbours are equal, so
  // p50 <= p99 <= Max() holds exactly (RunReport validation checks it).
  return std::min(samples_[hi],
                  samples_[lo] + (samples_[hi] - samples_[lo]) * frac);
}

}  // namespace deca
