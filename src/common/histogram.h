#ifndef DECA_COMMON_HISTOGRAM_H_
#define DECA_COMMON_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace deca {

/// Running summary statistics with exact percentiles (keeps all samples;
/// intended for per-task / per-GC measurements, not high-frequency events).
class Histogram {
 public:
  void Add(double value);

  size_t count() const { return samples_.size(); }
  double sum() const { return sum_; }
  double Mean() const;
  double Min() const;
  double Max() const;
  /// Percentile by linear interpolation between the two nearest ranks;
  /// `p` in [0, 100]. Non-decreasing in `p` and never above Max().
  double Percentile(double p) const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  double sum_ = 0.0;
};

/// A (time, value) series sampled during a run; backs the paper's
/// object-lifetime figures (live object count / cumulative GC time vs time).
struct TimeSeries {
  std::vector<double> times_ms;
  std::vector<double> values;

  void Add(double t_ms, double v) {
    times_ms.push_back(t_ms);
    values.push_back(v);
  }
  size_t size() const { return times_ms.size(); }
};

}  // namespace deca

#endif  // DECA_COMMON_HISTOGRAM_H_
