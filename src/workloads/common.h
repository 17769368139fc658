#ifndef DECA_WORKLOADS_COMMON_H_
#define DECA_WORKLOADS_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "obs/trace.h"
#include "spark/context.h"

namespace deca::workloads {

/// Which system variant executes a workload (paper Section 6's
/// Spark / SparkSer / Deca contenders).
enum class Mode {
  kSpark,     // deserialized object caching, object shuffle buffers
  kSparkSer,  // Kryo-serialized caching (paper's "SparkSer")
  kDeca,      // lifetime-based decomposed pages (cache + shuffle)
};

const char* ModeName(Mode m);

/// Applies a mode to a SparkConfig (cache level + shuffle path).
void ApplyMode(Mode mode, spark::SparkConfig* config);

/// Aborts at job start, naming `workload` and `reason`, when `config`
/// schedules a crash-wipe. For workloads whose cached state has no
/// lineage: a wipe would silently drop data instead of recomputing it.
void RejectCrashWipe(const spark::SparkConfig& config, const char* workload,
                     const char* reason);

/// Common result record every workload reports; bench harnesses format
/// these into the paper's tables and figure series.
struct RunResult {
  Mode mode = Mode::kSpark;
  double exec_ms = 0;        // end-to-end (excluding data loading when the
                             // paper excludes it)
  double load_ms = 0;        // input loading/caching stage
  double shuffle_read_ms = 0;
  double shuffle_write_ms = 0;
  double ser_ms = 0;
  double deser_ms = 0;
  double spill_ms = 0;
  double compute_ms = 0;
  spark::TaskMetrics slowest_task;

  // Fault-tolerance counters (all zero on a fault-free run).
  uint64_t task_retries = 0;
  uint64_t injected_faults = 0;
  uint64_t executor_wipes = 0;
  uint64_t recomputed_blocks = 0;

  /// The executors' snapshots folded (SparkContext::Totals): GC, cache,
  /// memory-manager, tier, pause, native-buffer and wire planes, the same
  /// in every execution mode.
  spark::ExecutorSnapshot totals;
  /// One snapshot per executor, in executor-id order (the per-executor
  /// memory table).
  std::vector<spark::ExecutorSnapshot> executors;

  // Which optional planes ran. The wire plane runs under a network
  // shuffle transport, and always in process mode (the daemons' mesh).
  // The tier plane is the serialized off-heap tier (storage_tiers >= 3);
  // without it only the T0/T2 and hit/miss counters can be non-zero.
  bool net_active = false;
  bool tier_active = false;

  // Control plane (multi-process runs only; dist_active is false and the
  // counters stay zero in-process).
  bool dist_active = false;
  spark::ClusterCounters cluster;

  // Streaming plane (all zero unless the run was a micro-batch stream).
  // Pauses are per-epoch stop-the-world GC + region-reclaim stalls; the
  // footprint samples are the data-plane bytes (native page charges +
  // block store) at epoch boundaries — base at epoch 10, so end vs base
  // is the steady-state drift.
  uint64_t epochs_run = 0;
  uint64_t windows_emitted = 0;
  double epoch_pause_p50_ms = 0;
  double epoch_pause_p99_ms = 0;
  double epoch_reclaim_p99_ms = 0;
  uint64_t epoch_reclaimed_bytes = 0;
  uint64_t footprint_base_bytes = 0;
  uint64_t footprint_end_bytes = 0;
  uint64_t footprint_peak_bytes = 0;

  // Optional lifetime profile (figures 8a / 9a): live tracked-object count
  // and cumulative GC ms sampled over run time.
  TimeSeries object_counts;
  TimeSeries gc_series;

  // Merged structured trace of the run (null unless tracing was enabled).
  std::shared_ptr<obs::TraceLog> trace;
};

/// Fills the metric, snapshot and plane fields of `result` from a
/// finished context.
void FinalizeResult(spark::SparkContext* ctx, RunResult* result);

/// `bytes` in MB (2^20 bytes), as the reports and tables show them.
inline double ToMb(uint64_t bytes) {
  return static_cast<double>(bytes) / (1 << 20);
}

}  // namespace deca::workloads

#endif  // DECA_WORKLOADS_COMMON_H_
