#ifndef DECA_SPARK_METRICS_H_
#define DECA_SPARK_METRICS_H_

#include <cstdint>

#include "common/field_codec.h"

namespace deca::spark {

/// Wall-clock breakdown of one task (paper Figure 11's categories, plus
/// scheduler delay once tasks can wait in an executor queue).
struct TaskMetrics {
  double total_ms = 0;         // from task start; excludes queue_ms
  double queue_ms = 0;         // scheduler delay: submit -> task start
  double gc_ms = 0;            // stop-the-world GC pauses during the task
  double shuffle_read_ms = 0;
  double shuffle_write_ms = 0;
  double ser_ms = 0;           // serialization (cache + shuffle write)
  double deser_ms = 0;         // deserialization (cache + shuffle read)
  double spill_ms = 0;         // cache swap + shuffle spill disk I/O

  // Unified memory-manager plane, sampled from the task's executor when
  // the task finishes. Peaks are high-water marks (folded with max);
  // denied_reservations is the task's own delta (folded with +).
  uint64_t exec_pool_peak_bytes = 0;
  uint64_t storage_pool_peak_bytes = 0;
  uint64_t denied_reservations = 0;

  template <typename F>
  static constexpr void ForEachField(F&& f) {
    using Self = TaskMetrics;
    DECA_SUM(total_ms);
    DECA_SUM(queue_ms);
    DECA_SUM(gc_ms);
    DECA_SUM(shuffle_read_ms);
    DECA_SUM(shuffle_write_ms);
    DECA_SUM(ser_ms);
    DECA_SUM(deser_ms);
    DECA_SUM(spill_ms);
    DECA_MAX(exec_pool_peak_bytes);
    DECA_MAX(storage_pool_peak_bytes);
    DECA_SUM(denied_reservations);
  }

  double compute_ms() const {
    double other = gc_ms + shuffle_read_ms + shuffle_write_ms + ser_ms +
                   deser_ms + spill_ms;
    return total_ms > other ? total_ms - other : 0.0;
  }

  void Accumulate(const TaskMetrics& t) { FoldFields(this, t); }
};

// Tripwire: a new member breaks this binding until it is listed.
inline void CheckTaskMetricsList(TaskMetrics& t) {
  [[maybe_unused]] auto& [m0, m1, m2, m3, m4, m5, m6, m7, m8, m9, m10] = t;
  static_assert(FieldCount<TaskMetrics>() == 11);
}

/// Tier-plane counters of one block store (or summed across a job): per
/// tier resident bytes and hits, tier-transition counts, and the lazy
/// promotion latency percentiles. The byte/hit/transition counters are
/// deterministic simulation results; the percentiles are wall times.
struct TierCounters {
  uint64_t t0_resident_bytes = 0;  // heap blocks (objects/byte[]/pages)
  uint64_t t1_resident_bytes = 0;  // serialized off-heap buffers
  uint64_t t2_resident_bytes = 0;  // swap-file payload bytes
  uint64_t t1_peak_bytes = 0;
  uint64_t t0_hits = 0;
  uint64_t t1_hits = 0;
  uint64_t t2_hits = 0;
  uint64_t misses = 0;
  uint64_t demotes_to_t1 = 0;  // T0 -> T1 compactions
  uint64_t demotes_to_t2 = 0;  // spills to disk (from T0 or T1)
  uint64_t promotes = 0;       // re-admissions (T1 -> T0, T2 -> T1)
  uint64_t admit_rejects = 0;  // lazy serves the admission policy denied
  double promote_p50_ms = 0;
  double promote_p99_ms = 0;

  /// Also the run report's tier.* metrics, named after the members.
  /// Counters sum; latency percentiles take the max, since they do not
  /// compose across executors.
  template <typename F>
  static constexpr void ForEachField(F&& f) {
    using Self = TierCounters;
    DECA_SUM(t0_resident_bytes);
    DECA_SUM(t1_resident_bytes);
    DECA_SUM(t2_resident_bytes);
    DECA_SUM(t1_peak_bytes);
    DECA_SUM(t0_hits);
    DECA_SUM(t1_hits);
    DECA_SUM(t2_hits);
    DECA_SUM(misses);
    DECA_SUM(demotes_to_t1);
    DECA_SUM(demotes_to_t2);
    DECA_SUM(promotes);
    DECA_SUM(admit_rejects);
    DECA_MAX(promote_p50_ms);
    DECA_MAX(promote_p99_ms);
  }
};

// Tripwire: a new member breaks this binding until it is listed.
inline void CheckTierCountersList(TierCounters& t) {
  [[maybe_unused]] auto& [m0, m1, m2, m3, m4, m5, m6, m7, m8, m9, m10, m11,
                          m12, m13] = t;
  static_assert(FieldCount<TierCounters>() == 14);
}

/// Aggregated metrics for a stage or a whole job.
struct JobMetrics {
  double wall_ms = 0;           // end-to-end driver wall clock
  TaskMetrics tasks;            // sum over all tasks
  TaskMetrics slowest_task;     // task with the largest total_ms

  // Fault-tolerance counters. All stay zero when injection is disabled
  // and no real fault occurs.
  uint64_t task_retries = 0;      // task attempts beyond the first
  uint64_t injected_faults = 0;   // faults fired by the injector
  uint64_t executor_wipes = 0;    // simulated executor crash-wipes
  uint64_t recomputed_blocks = 0; // cached blocks rebuilt from lineage

  void ObserveTask(const TaskMetrics& t) {
    tasks.Accumulate(t);
    if (t.total_ms > slowest_task.total_ms) slowest_task = t;
  }
};

}  // namespace deca::spark

#endif  // DECA_SPARK_METRICS_H_
