#ifndef DECA_JVM_HEAP_PROFILER_H_
#define DECA_JVM_HEAP_PROFILER_H_

#include <cstdint>

#include "common/histogram.h"

namespace deca::jvm {

class Heap;

/// JProfiler-style sampler: records, per sample, the number of allocated
/// instances of a tracked class and the cumulative GC time. Drives the
/// paper's object-lifetime figures (Fig. 8a, Fig. 9a). Sampling walks the
/// heap (O(heap)), so callers sample at coarse intervals (e.g. once per
/// task or per iteration).
class HeapProfiler {
 public:
  /// `class_id` is the tracked class (e.g. Tuple2 or LabeledPoint).
  HeapProfiler(Heap* heap, uint32_t class_id);

  /// Takes one sample at elapsed time `t_ms` since the run started.
  void Sample(double t_ms);

  const TimeSeries& object_counts() const { return object_counts_; }
  const TimeSeries& gc_time_ms() const { return gc_time_ms_; }

 private:
  Heap* heap_;
  uint32_t class_id_;
  TimeSeries object_counts_;
  TimeSeries gc_time_ms_;
};

}  // namespace deca::jvm

#endif  // DECA_JVM_HEAP_PROFILER_H_
