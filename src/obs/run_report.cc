#include "obs/run_report.h"

#include <array>
#include <cmath>
#include <map>
#include <set>

#include "obs/json.h"

namespace deca::obs {

const ReportMetric* ReportRun::Find(std::string_view name) const {
  for (const ReportMetric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void ReportRun::Add(std::string_view name, double value, bool exact) {
  metrics.push_back({std::string(name), value, exact});
}

const ReportRun* RunReport::Find(std::string_view label) const {
  for (const ReportRun& r : runs) {
    if (r.label == label) return &r;
  }
  return nullptr;
}

std::string ToJson(const RunReport& report) {
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"" + std::string(RunReport::kSchema) + "\",\n";
  out += "  \"version\": " + std::to_string(RunReport::kVersion) + ",\n";
  out += "  \"bench\": \"" + JsonEscape(report.bench) + "\",\n";
  out += "  \"runs\": [";
  for (size_t i = 0; i < report.runs.size(); ++i) {
    const ReportRun& run = report.runs[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"label\": \"" + JsonEscape(run.label) + "\",\n";
    out += "     \"metrics\": [";
    for (size_t m = 0; m < run.metrics.size(); ++m) {
      const ReportMetric& mm = run.metrics[m];
      out += m == 0 ? "\n" : ",\n";
      out += "       {\"name\": \"" + JsonEscape(mm.name) +
             "\", \"value\": " + JsonNumber(mm.value) +
             ", \"exact\": " + (mm.exact ? "true" : "false") + "}";
    }
    out += "\n     ],\n";
    out += "     \"spans\": [";
    for (size_t s = 0; s < run.spans.size(); ++s) {
      const SpanAgg& sp = run.spans[s];
      out += s == 0 ? "\n" : ",\n";
      out += "       {\"cat\": \"" + JsonEscape(sp.cat) + "\", \"name\": \"" +
             JsonEscape(sp.name) +
             "\", \"count\": " + std::to_string(sp.count) +
             ", \"total_ms\": " + JsonNumber(sp.total_ms) + "}";
    }
    out += "\n     ]}";
  }
  out += "\n  ]\n}\n";
  return out;
}

namespace {

/// 2^53: every span count up to here is an exact double.
constexpr double kMaxSpanCount = 9007199254740992.0;

bool IsA(const JsonValue* v, JsonValue::Type t) {
  return v != nullptr && v->is(t);
}

/// True when `v` is a number holding an integer in [lo, hi]. The range test
/// runs on the double, so no out-of-range value reaches an integer cast.
bool IsIntegerIn(const JsonValue* v, double lo, double hi) {
  return IsA(v, JsonValue::Type::kNumber) && v->number >= lo &&
         v->number <= hi && std::floor(v->number) == v->number;
}

/// Splits a percentile metric name "<p>_p50_ms" / "<p>_p99_ms" /
/// "<p>_max_ms" into its prefix and rank (0, 1, 2); false otherwise.
bool SplitPercentile(std::string_view name, std::string_view* prefix,
                     size_t* rank) {
  static constexpr std::array<std::string_view, 3> kSuffixes = {
      "_p50_ms", "_p99_ms", "_max_ms"};
  for (size_t r = 0; r < kSuffixes.size(); ++r) {
    if (name.size() > kSuffixes[r].size() && name.ends_with(kSuffixes[r])) {
      *prefix = name.substr(0, name.size() - kSuffixes[r].size());
      *rank = r;
      return true;
    }
  }
  return false;
}

}  // namespace

bool FromJson(std::string_view json, RunReport* out, std::string* err) {
  using Type = JsonValue::Type;
  auto fail = [err](const std::string& what) {
    if (err != nullptr) *err = what;
    return false;
  };
  JsonValue root;
  if (!ParseJson(json, &root, err)) return false;
  if (!root.is(Type::kObject)) return fail("report root is not an object");
  if (root.Str("schema") != RunReport::kSchema) {
    return fail("schema is not '" + std::string(RunReport::kSchema) + "'");
  }
  if (!IsIntegerIn(root.Find("version"), RunReport::kMinVersion,
                   RunReport::kVersion)) {
    return fail("'version' is not an integer in [" +
                std::to_string(RunReport::kMinVersion) + ", " +
                std::to_string(RunReport::kVersion) + "]");
  }
  out->bench = root.Str("bench");
  out->runs.clear();
  const JsonValue* runs = root.Find("runs");
  if (!IsA(runs, Type::kArray)) return fail("missing 'runs' array");
  for (const JsonValue& jr : runs->arr) {
    if (!jr.is(Type::kObject)) return fail("run entry is not an object");
    ReportRun run;
    run.label = jr.Str("label");
    const std::string where = "run '" + run.label + "': ";
    // Older writers' "epochs"/"tier"/"pauses"/"alloc" blocks repeat flat
    // metrics of the same run and are skipped.
    if (const JsonValue* metrics = jr.Find("metrics"); metrics != nullptr) {
      if (!metrics->is(Type::kArray)) {
        return fail(where + "'metrics' is not an array");
      }
      for (const JsonValue& jm : metrics->arr) {
        ReportMetric m;
        m.name = jm.Str("name");
        const JsonValue* value = jm.Find("value");
        const JsonValue* exact = jm.Find("exact");
        if (!IsA(value, Type::kNumber)) {
          return fail(where + "metric '" + m.name +
                      "': 'value' is not a number");
        }
        if (!IsA(exact, Type::kBool)) {
          return fail(where + "metric '" + m.name +
                      "': 'exact' is not a boolean");
        }
        m.value = value->number;
        m.exact = exact->boolean;
        run.metrics.push_back(std::move(m));
      }
    }
    if (const JsonValue* spans = jr.Find("spans"); spans != nullptr) {
      if (!spans->is(Type::kArray)) {
        return fail(where + "'spans' is not an array");
      }
      for (const JsonValue& js : spans->arr) {
        SpanAgg s;
        s.cat = js.Str("cat");
        s.name = js.Str("name");
        const JsonValue* count = js.Find("count");
        const JsonValue* total = js.Find("total_ms");
        const std::string span = where + "span '" + s.cat + "/" + s.name;
        if (!IsIntegerIn(count, 0, kMaxSpanCount)) {
          return fail(span + "': 'count' is not an integer in [0, 2^53]");
        }
        if (!IsA(total, Type::kNumber)) {
          return fail(span + "': 'total_ms' is not a number");
        }
        s.count = static_cast<uint64_t>(count->number);
        s.total_ms = total->number;
        run.spans.push_back(std::move(s));
      }
    }
    out->runs.push_back(std::move(run));
  }
  return true;
}

bool Validate(const RunReport& report, std::string* err) {
  auto fail = [err](const std::string& what) {
    if (err != nullptr) *err = what;
    return false;
  };
  if (report.bench.empty()) return fail("empty bench name");
  if (report.runs.empty()) return fail("report has no runs");
  std::set<std::string> labels;
  for (const ReportRun& run : report.runs) {
    if (run.label.empty()) return fail("run with empty label");
    if (!labels.insert(run.label).second) {
      return fail("duplicate run label '" + run.label + "'");
    }
    std::set<std::string> names;
    // Percentile metrics by prefix, indexed by rank (p50, p99, max).
    std::map<std::string_view, std::array<const ReportMetric*, 3>> ranked;
    for (const ReportMetric& m : run.metrics) {
      if (m.name.empty()) return fail("metric with empty name in '" +
                                      run.label + "'");
      if (!names.insert(m.name).second) {
        return fail("duplicate metric '" + m.name + "' in '" + run.label +
                    "'");
      }
      if (!std::isfinite(m.value)) {
        return fail("non-finite metric '" + m.name + "' in '" + run.label +
                    "'");
      }
      std::string_view prefix;
      size_t rank = 0;
      if (SplitPercentile(m.name, &prefix, &rank)) {
        if (m.value < 0) {
          return fail("negative percentile '" + m.name + "' in '" +
                      run.label + "'");
        }
        ranked[prefix][rank] = &m;
      }
    }
    for (const auto& [prefix, ranks] : ranked) {
      const ReportMetric* lower = nullptr;
      for (const ReportMetric* m : ranks) {
        if (m == nullptr) continue;
        if (lower != nullptr && lower->value > m->value) {
          return fail("percentile '" + lower->name + "' > '" + m->name +
                      "' in '" + run.label + "'");
        }
        lower = m;
      }
    }
    const ReportMetric* allocs = run.Find("alloc.allocs");
    const ReportMetric* frees = run.Find("alloc.frees");
    if (allocs != nullptr && frees != nullptr &&
        frees->value > allocs->value) {
      return fail("alloc.frees > alloc.allocs in '" + run.label + "'");
    }
    for (const SpanAgg& s : run.spans) {
      if (s.cat.empty() || s.name.empty()) {
        return fail("span aggregate with empty cat/name in '" + run.label +
                    "'");
      }
      if (!std::isfinite(s.total_ms) || s.total_ms < 0) {
        return fail("bad span total_ms for '" + s.name + "' in '" +
                    run.label + "'");
      }
    }
  }
  return true;
}

bool ReportsEqual(const RunReport& a, const RunReport& b) {
  if (a.bench != b.bench || a.runs.size() != b.runs.size()) return false;
  for (size_t i = 0; i < a.runs.size(); ++i) {
    const ReportRun& ra = a.runs[i];
    const ReportRun& rb = b.runs[i];
    if (ra.label != rb.label || ra.metrics.size() != rb.metrics.size() ||
        ra.spans.size() != rb.spans.size()) {
      return false;
    }
    for (size_t m = 0; m < ra.metrics.size(); ++m) {
      if (ra.metrics[m].name != rb.metrics[m].name ||
          ra.metrics[m].value != rb.metrics[m].value ||
          ra.metrics[m].exact != rb.metrics[m].exact) {
        return false;
      }
    }
    for (size_t s = 0; s < ra.spans.size(); ++s) {
      if (ra.spans[s].cat != rb.spans[s].cat ||
          ra.spans[s].name != rb.spans[s].name ||
          ra.spans[s].count != rb.spans[s].count ||
          ra.spans[s].total_ms != rb.spans[s].total_ms) {
        return false;
      }
    }
  }
  return true;
}

DiffResult DiffReports(const RunReport& baseline, const RunReport& current,
                       const DiffOptions& opt) {
  DiffResult result;
  auto fail = [&result](std::string what) {
    result.failures.push_back(std::move(what));
  };
  if (baseline.bench != current.bench) {
    fail("bench mismatch: baseline '" + baseline.bench + "' vs current '" +
         current.bench + "'");
    return result;
  }
  for (const ReportRun& base_run : baseline.runs) {
    const ReportRun* cur_run = current.Find(base_run.label);
    if (cur_run == nullptr) {
      fail("run '" + base_run.label + "' missing from current report");
      continue;
    }
    for (const ReportMetric& bm : base_run.metrics) {
      if (opt.exact_only && !bm.exact) continue;
      const ReportMetric* cm = cur_run->Find(bm.name);
      if (cm == nullptr) {
        fail(base_run.label + ": metric '" + bm.name +
             "' missing from current report");
        continue;
      }
      if (bm.exact) {
        if (cm->value != bm.value) {
          fail(base_run.label + ": exact metric '" + bm.name + "' changed " +
               JsonNumber(bm.value) + " -> " + JsonNumber(cm->value));
        }
      } else {
        double limit = bm.value * (1.0 + opt.time_threshold);
        if (cm->value > limit && cm->value - bm.value > opt.time_floor_ms) {
          fail(base_run.label + ": time metric '" + bm.name + "' regressed " +
               JsonNumber(bm.value) + " -> " + JsonNumber(cm->value) +
               " ms (allowed +" +
               JsonNumber(opt.time_threshold * 100.0) + "%)");
        }
      }
    }
    for (const SpanAgg& bs : base_run.spans) {
      if (opt.exact_only) break;
      const SpanAgg* cs = nullptr;
      for (const SpanAgg& s : cur_run->spans) {
        if (s.cat == bs.cat && s.name == bs.name) {
          cs = &s;
          break;
        }
      }
      if (cs == nullptr) {
        fail(base_run.label + ": span '" + bs.cat + "/" + bs.name +
             "' missing from current report");
        continue;
      }
      if (cs->count != bs.count) {
        fail(base_run.label + ": span '" + bs.cat + "/" + bs.name +
             "' count changed " + std::to_string(bs.count) + " -> " +
             std::to_string(cs->count));
      }
      double limit = bs.total_ms * (1.0 + opt.time_threshold);
      if (cs->total_ms > limit &&
          cs->total_ms - bs.total_ms > opt.time_floor_ms) {
        fail(base_run.label + ": span '" + bs.cat + "/" + bs.name +
             "' total_ms regressed " + JsonNumber(bs.total_ms) + " -> " +
             JsonNumber(cs->total_ms));
      }
    }
  }
  return result;
}

}  // namespace deca::obs
