// Compares two RunReport JSON files (see src/obs/run_report.h) and exits
// nonzero when the current report regresses from the baseline:
//   - exact metrics (deterministic counters, byte peaks) must be equal
//     (`==`; the writer's number text reads back bit-identically),
//   - time metrics may grow by at most --time-threshold (relative) AND
//     --time-floor-ms (absolute slack, so micro-benches don't flap),
//   - span counts are exact, span totals follow the time rule,
//   - with --exact-only, only exact metrics are compared (time metrics
//     and spans skipped) — for diffing a DECA_DIST_MODE=process run
//     against an in-process baseline, where timings and worker-side spans
//     legitimately differ.
//
// SLO assertions: each --slo gate is an absolute ceiling on a flat run
// metric, checked against the CURRENT report (the only file in
// single-report mode). "metric<=value" applies to every run carrying the
// metric; "label:metric<=value" to that run only. A gate whose metric
// appears in no matching run fails — a silently missing latency metric
// must not pass a latency SLO. Unlike baseline diffs, SLO gates also work
// for runs whose counters are legitimately nondeterministic (e.g.
// budgeted mark slices under DECA_PAUSE_BUDGET_MS>0).
//
// Usage:
//   report_diff [--time-threshold=F] [--time-floor-ms=F] [--exact-only]
//               [--slo=SPEC]... BASELINE CURRENT
//   report_diff [--slo=SPEC]... REPORT
//   report_diff --validate REPORT
//
// Exit codes: 0 ok, 1 regression/SLO violation/schema mismatch,
// 2 usage/I/O error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/run_report.h"

namespace {

bool ReadTextFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool LoadReport(const std::string& path, deca::obs::RunReport* report) {
  std::string text;
  if (!ReadTextFile(path, &text)) {
    std::fprintf(stderr, "report_diff: cannot read %s\n", path.c_str());
    return false;
  }
  std::string err;
  if (!deca::obs::FromJson(text, report, &err)) {
    std::fprintf(stderr, "report_diff: %s: %s\n", path.c_str(), err.c_str());
    return false;
  }
  if (!deca::obs::Validate(*report, &err)) {
    std::fprintf(stderr, "report_diff: %s: invalid report: %s\n",
                 path.c_str(), err.c_str());
    return false;
  }
  return true;
}

/// One parsed --slo gate: `metric` must be <= `limit` in every matching
/// run (all runs when `label` is empty).
struct SloSpec {
  std::string label;
  std::string metric;
  double limit = 0;
  std::string text;  // original spec, for messages
};

bool ParseSlo(const std::string& spec, SloSpec* out) {
  size_t le = spec.find("<=");
  if (le == std::string::npos || le == 0) return false;
  std::string lhs = spec.substr(0, le);
  const char* rhs = spec.c_str() + le + 2;
  char* end = nullptr;
  out->limit = std::strtod(rhs, &end);
  if (end == rhs || *end != '\0') return false;
  size_t colon = lhs.find(':');
  if (colon != std::string::npos) {
    out->label = lhs.substr(0, colon);
    out->metric = lhs.substr(colon + 1);
  } else {
    out->metric = lhs;
  }
  out->text = spec;
  return !out->metric.empty();
}

/// Checks every gate against `report`; returns the number of violations
/// (a gate whose metric is absent from every matching run counts as one).
int CheckSlos(const deca::obs::RunReport& report,
              const std::vector<SloSpec>& slos) {
  int violations = 0;
  for (const SloSpec& slo : slos) {
    bool matched = false;
    for (const deca::obs::ReportRun& run : report.runs) {
      if (!slo.label.empty() && run.label != slo.label) continue;
      const deca::obs::ReportMetric* m = run.Find(slo.metric);
      if (m == nullptr) continue;
      matched = true;
      if (m->value <= slo.limit) {
        std::printf("report_diff: SLO ok: %s: %s = %g (<= %g)\n",
                    run.label.c_str(), slo.metric.c_str(), m->value,
                    slo.limit);
      } else {
        std::fprintf(stderr,
                     "report_diff: SLO violated: %s: %s = %g exceeds %g\n",
                     run.label.c_str(), slo.metric.c_str(), m->value,
                     slo.limit);
        ++violations;
      }
    }
    if (!matched) {
      std::fprintf(stderr,
                   "report_diff: SLO '%s': metric '%s' not found in any "
                   "matching run\n",
                   slo.text.c_str(), slo.metric.c_str());
      ++violations;
    }
  }
  return violations;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: report_diff [--time-threshold=F] [--time-floor-ms=F] "
      "[--exact-only] [--slo=[LABEL:]METRIC<=VALUE]... BASELINE CURRENT\n"
      "       report_diff [--slo=[LABEL:]METRIC<=VALUE]... REPORT\n"
      "       report_diff --validate REPORT\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  deca::obs::DiffOptions opt;
  bool validate_only = false;
  std::vector<SloSpec> slos;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--validate") {
      validate_only = true;
    } else if (arg.rfind("--time-threshold=", 0) == 0) {
      opt.time_threshold =
          std::atof(arg.c_str() + std::strlen("--time-threshold="));
    } else if (arg.rfind("--time-floor-ms=", 0) == 0) {
      opt.time_floor_ms =
          std::atof(arg.c_str() + std::strlen("--time-floor-ms="));
    } else if (arg == "--exact-only") {
      opt.exact_only = true;
    } else if (arg.rfind("--slo=", 0) == 0 || arg == "--slo") {
      std::string spec;
      if (arg == "--slo") {
        if (i + 1 >= argc) return Usage();
        spec = argv[++i];
      } else {
        spec = arg.substr(std::strlen("--slo="));
      }
      SloSpec slo;
      if (!ParseSlo(spec, &slo)) {
        std::fprintf(stderr, "report_diff: bad --slo spec '%s'\n",
                     spec.c_str());
        return Usage();
      }
      slos.push_back(std::move(slo));
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "report_diff: unknown flag %s\n", arg.c_str());
      return Usage();
    } else {
      files.push_back(arg);
    }
  }

  if (validate_only) {
    if (files.size() != 1) return Usage();
    deca::obs::RunReport report;
    // LoadReport validates after parsing; exit 1 distinguishes a bad
    // report from usage errors only via the message, matching diff mode.
    if (!LoadReport(files[0], &report)) return 1;
    std::printf("%s: valid %s v%d report, bench '%s', %zu run(s)\n",
                files[0].c_str(), deca::obs::RunReport::kSchema,
                deca::obs::RunReport::kVersion, report.bench.c_str(),
                report.runs.size());
    return 0;
  }

  if (files.size() == 1 && !slos.empty()) {
    // SLO-only mode: absolute ceilings on a single report, no baseline.
    deca::obs::RunReport report;
    if (!LoadReport(files[0], &report)) return 2;
    int violations = CheckSlos(report, slos);
    if (violations > 0) {
      std::fprintf(stderr, "report_diff: %d SLO violation(s)\n", violations);
      return 1;
    }
    std::printf("report_diff: OK — %zu SLO gate(s) hold\n", slos.size());
    return 0;
  }

  if (files.size() != 2) return Usage();
  deca::obs::RunReport baseline;
  deca::obs::RunReport current;
  if (!LoadReport(files[0], &baseline)) return 2;
  if (!LoadReport(files[1], &current)) return 2;

  deca::obs::DiffResult result =
      deca::obs::DiffReports(baseline, current, opt);
  int violations = CheckSlos(current, slos);
  if (result.ok() && violations == 0) {
    std::printf(
        "report_diff: OK — %zu run(s) within thresholds "
        "(time +%.0f%%, floor %.1f ms)",
        baseline.runs.size(), opt.time_threshold * 100.0, opt.time_floor_ms);
    if (!slos.empty()) {
      std::printf(", %zu SLO gate(s) hold", slos.size());
    }
    std::printf("\n");
    return 0;
  }
  if (!result.ok()) {
    std::fprintf(stderr, "report_diff: %zu regression(s):\n",
                 result.failures.size());
    for (const std::string& f : result.failures) {
      std::fprintf(stderr, "  %s\n", f.c_str());
    }
  }
  if (violations > 0) {
    std::fprintf(stderr, "report_diff: %d SLO violation(s)\n", violations);
  }
  return 1;
}
