#ifndef DECA_OBS_RUN_REPORT_H_
#define DECA_OBS_RUN_REPORT_H_

#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace deca::obs {

/// One named measurement. `exact` partitions the diff rules:
///  - exact metrics are deterministic simulation counters (GC counts,
///    spills, denials, byte peaks) and must equal the baseline value
///    (`==` on the double);
///  - inexact metrics are wall times and are compared against a relative
///    regression threshold only.
/// Every plane (epochs, tiers, pauses, native buffers, ...) is a group of
/// flat metrics sharing a name prefix ("epoch.", "tier.", "pauses.",
/// "alloc."); percentiles are metrics named "<p>_p50_ms", "<p>_p99_ms"
/// and "<p>_max_ms".
struct ReportMetric {
  std::string name;
  double value = 0;
  bool exact = false;
};

/// One workload run (one mode / configuration) inside a bench binary.
struct ReportRun {
  std::string label;  // e.g. "LR-large/Deca"
  std::vector<ReportMetric> metrics;
  std::vector<SpanAgg> spans;  // per-(cat,name) trace aggregates

  const ReportMetric* Find(std::string_view name) const;
  void Add(std::string_view name, double value, bool exact);
};

/// The machine-readable result of one bench binary execution
/// (`--json-out=` / `DECA_JSON_OUT`). Schema "deca-run-report" v5: per
/// run, one flat metric list plus span aggregates. Reports v1-v5 parse;
/// the optional per-run "epochs", "tier", "pauses" and "alloc" blocks that
/// v2-v5 writers added duplicated flat metrics and are ignored.
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

/// Parses a report; false + `err` naming the offending field on malformed
/// input or schema mismatch. A present `metrics`/`spans` member must be
/// an array, every metric needs a numeric `value` and a boolean `exact`,
/// and every span a `count` that is an integer in [0, 2^53] and a numeric
/// `total_ms`; nothing is defaulted.
bool FromJson(std::string_view json, RunReport* out, std::string* err);

/// Structural schema check: non-empty bench, unique non-empty run labels,
/// unique non-empty metric names, finite metric values, sane span aggs.
/// Within a run, percentiles are non-negative and ordered
/// (`<p>_p50_ms <= <p>_p99_ms <= <p>_max_ms` for the ones present), and
/// `alloc.frees <= alloc.allocs`.
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
  /// Compare exact metrics only; skip wall-time metrics and trace spans
  /// entirely. Used to diff a multi-process run against an in-process
  /// baseline: the determinism contract covers counters, not timings, and
  /// executor daemons do not record worker-side spans.
  bool exact_only = false;
};

struct DiffResult {
  std::vector<std::string> failures;
  bool ok() const { return failures.empty(); }
};

/// Compares `current` against `baseline`. Exact metrics and span counts
/// must be equal (`JsonNumber` text reads back bit-identically, so `==`
/// holds across a file round trip); time metrics and span totals gate on the relative
/// threshold (regressions only — improvements always pass). A run or
/// metric present in the baseline but missing from `current` fails; extra
/// runs/metrics in `current` are allowed (reports may grow).
DiffResult DiffReports(const RunReport& baseline, const RunReport& current,
                       const DiffOptions& opt);

}  // namespace deca::obs

#endif  // DECA_OBS_RUN_REPORT_H_
