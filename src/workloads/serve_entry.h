#ifndef DECA_WORKLOADS_SERVE_ENTRY_H_
#define DECA_WORKLOADS_SERVE_ENTRY_H_

#include <cstdint>

#include "common/field_codec.h"
#include "workloads/common.h"

namespace deca::workloads {

/// Closed-loop query-serving driver (ROADMAP open item 3): cache a fixed
/// dataset of user records larger than executor memory, then fire stages
/// of small deterministic point queries against it. Built to stress the
/// tiered block store — with DECA_STORAGE_TIER=3 the cold tail of the
/// working set compacts into serialized off-heap buffers (and disk past
/// the T1 cap) instead of thrashing heap blocks to disk, and hot blocks
/// earn their way back up under the admission policy.
struct ServeParams {
  /// Records across all partitions. Each record is a LabeledPoint-shaped
  /// user row: one double key plus `record_doubles` feature values.
  uint64_t num_records = 1 << 16;
  int record_doubles = 16;
  /// Point queries each partition serves per stage.
  int queries_per_task = 256;
  /// Closed-loop rounds; every stage draws a fresh deterministic query
  /// set, so tier residency keeps churning.
  int serve_stages = 8;
  Mode mode = Mode::kSpark;
  uint64_t seed = 42;
  spark::SparkConfig spark;

  /// The job-spec params blob; `spark` travels as the JobSpec's config.
  template <typename F>
  static constexpr void ForEachField(F&& f) {
    using Self = ServeParams;
    DECA_WIRE(num_records);
    DECA_WIRE(record_doubles);
    DECA_WIRE(queries_per_task);
    DECA_WIRE(serve_stages);
    DECA_WIRE(mode);
    DECA_WIRE(seed);
  }
};

struct ServeResult {
  RunResult run;
  /// Fold of the values every query read, in (stage, partition, query)
  /// order — bit-identical across modes, thread counts, tier policies,
  /// and fault injection.
  uint64_t digest = 0;
  uint64_t queries = 0;
  double qps = 0;  // queries / wall second across the serve stages
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
};

/// Records per cached sub-block. Small on purpose: a query touches one
/// sub-block, so the tier state machine moves fine-grained units and a
/// skewed query stream keeps a hot subset resident.
inline constexpr uint32_t kServeSubBlockRecords = 1024;

ServeResult RunServeCache(const ServeParams& params);

}  // namespace deca::workloads

#endif  // DECA_WORKLOADS_SERVE_ENTRY_H_
