#ifndef DECA_OBS_RUN_REPORT_H_
#define DECA_OBS_RUN_REPORT_H_

#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace deca::obs {

/// One named measurement. `exact` partitions the diff rules:
///  - exact metrics are deterministic simulation counters (GC counts,
///    spills, denials, byte peaks) and must match a baseline bit-for-bit;
///  - inexact metrics are wall times and are compared against a relative
///    regression threshold only.
struct ReportMetric {
  std::string name;
  double value = 0;
  bool exact = false;
};

/// Epoch plane of a micro-batch streaming run (schema v2). Absent
/// (`present == false`) for batch runs. The counters are deterministic
/// simulation results and are bit-compared by report_diff; the pause
/// percentiles are wall times and are threshold-compared.
struct EpochAgg {
  bool present = false;
  uint64_t epochs_run = 0;
  uint64_t windows = 0;
  uint64_t reclaimed_bytes = 0;
  double pause_p50_ms = 0;
  double pause_p99_ms = 0;
  double reclaim_p99_ms = 0;
};

/// Storage-tier plane of a run with the serialized off-heap tier enabled
/// (schema v3). Absent (`present == false`) when storage_tiers=2 (the
/// legacy heap→disk store). Resident bytes and hit/demote/promote counters
/// are deterministic simulation results and are bit-compared by
/// report_diff; the promote percentiles are wall times and are
/// threshold-compared.
struct TierAgg {
  bool present = false;
  uint64_t t0_resident_bytes = 0;
  uint64_t t1_resident_bytes = 0;
  uint64_t t2_resident_bytes = 0;
  uint64_t t1_peak_bytes = 0;
  uint64_t t0_hits = 0;
  uint64_t t1_hits = 0;
  uint64_t t2_hits = 0;
  uint64_t misses = 0;
  uint64_t demotes_to_t1 = 0;
  uint64_t demotes_to_t2 = 0;
  uint64_t promotes = 0;
  uint64_t admit_rejects = 0;
  double promote_p50_ms = 0;
  double promote_p99_ms = 0;
};

/// GC pause plane of a run (schema v4). `mark_slices` counts every
/// recorded mark slice (monolithic marks count one each, so at
/// pause_budget_ms=0 it is a deterministic counter; at budget > 0 the
/// slice count is timing-dependent — budgeted runs are gated with
/// report_diff --slo assertions, not baseline diffs). `pause_events`
/// counts mutator-visible stop-the-world pauses. The percentiles are wall
/// times over the pause/slice histograms and are threshold-compared.
struct PauseAgg {
  bool present = false;
  uint64_t mark_slices = 0;
  uint64_t pause_events = 0;
  double pause_p50_ms = 0;
  double pause_p99_ms = 0;
  double pause_max_ms = 0;
  double slice_p50_ms = 0;
  double slice_p99_ms = 0;
  double slice_max_ms = 0;
};

/// Native-buffer counters of a run (schema v5). Absent
/// (`present == false`) for reports written before the counters existed
/// or for standalone-heap runs that never counted a buffer. Every field is
/// deterministic and bit-compared by report_diff.
struct AllocAgg {
  bool present = false;
  uint64_t alloc_calls = 0;
  uint64_t free_calls = 0;
  uint64_t bytes_requested = 0;
};

/// One workload run (one mode / configuration) inside a bench binary.
struct ReportRun {
  std::string label;  // e.g. "LR-large/Deca"
  std::vector<ReportMetric> metrics;
  std::vector<SpanAgg> spans;  // per-(cat,name) trace aggregates
  EpochAgg epochs;             // streaming runs only
  TierAgg tier;                // tiered-store runs only
  PauseAgg pauses;             // GC pause/mark-slice histograms
  AllocAgg alloc;              // native page-allocator counters

  const ReportMetric* Find(std::string_view name) const;
  void Add(std::string_view name, double value, bool exact);
};

/// The machine-readable result of one bench binary execution
/// (`--json-out=` / `DECA_JSON_OUT`). Schema "deca-run-report" v5
/// (v2 added the optional per-run "epochs" aggregate, v3 the optional
/// per-run "tier" aggregate, v4 the optional per-run "pauses" aggregate,
/// v5 the optional per-run "alloc" aggregate; older reports are still
/// parsed).
struct RunReport {
  static constexpr const char* kSchema = "deca-run-report";
  static constexpr int kVersion = 5;
  static constexpr int kMinVersion = 1;

  std::string bench;  // binary name, e.g. "fig11_breakdown"
  std::vector<ReportRun> runs;

  const ReportRun* Find(std::string_view label) const;
};

/// Serializes with enough float precision that FromJson(ToJson(r)) == r.
std::string ToJson(const RunReport& report);

/// Parses a report; false + `err` on malformed input or schema mismatch.
bool FromJson(std::string_view json, RunReport* out, std::string* err);

/// Structural schema check: schema/version match, non-empty bench,
/// unique non-empty run labels, finite metric values, sane span aggs.
bool Validate(const RunReport& report, std::string* err);

/// Deep equality (used by the exporter round-trip test).
bool ReportsEqual(const RunReport& a, const RunReport& b);

struct DiffOptions {
  /// Inexact (time) metrics fail when
  ///   current > baseline * (1 + time_threshold)
  /// and the absolute regression exceeds `time_floor_ms` (noise guard for
  /// sub-millisecond measurements).
  double time_threshold = 0.15;
  double time_floor_ms = 1.0;
  /// Exact metrics compare with this relative epsilon (doubles that went
  /// through decimal text).
  double exact_rel_eps = 1e-9;
  /// Compare exact metrics and deterministic epoch/tier counters only;
  /// skip
  /// wall-time metrics and trace spans entirely. Used to diff a
  /// multi-process run against an in-process baseline: the determinism
  /// contract covers counters, not timings, and executor daemons do not
  /// record worker-side spans.
  bool exact_only = false;
};

struct DiffResult {
  std::vector<std::string> failures;
  bool ok() const { return failures.empty(); }
};

/// Compares `current` against `baseline`. Exact metrics and span counts
/// must match; time metrics and span totals gate on the relative
/// threshold (regressions only — improvements always pass). A run or
/// metric present in the baseline but missing from `current` fails; extra
/// runs/metrics in `current` are allowed (reports may grow).
DiffResult DiffReports(const RunReport& baseline, const RunReport& current,
                       const DiffOptions& opt);

}  // namespace deca::obs

#endif  // DECA_OBS_RUN_REPORT_H_
