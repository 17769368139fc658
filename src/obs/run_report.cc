#include "obs/run_report.h"

#include <algorithm>
#include <cmath>
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
    out += "\n     ]";
    if (run.epochs.present) {
      const EpochAgg& e = run.epochs;
      out += ",\n     \"epochs\": {\"epochs_run\": " +
             std::to_string(e.epochs_run) +
             ", \"windows\": " + std::to_string(e.windows) +
             ", \"reclaimed_bytes\": " + std::to_string(e.reclaimed_bytes) +
             ", \"pause_p50_ms\": " + JsonNumber(e.pause_p50_ms) +
             ", \"pause_p99_ms\": " + JsonNumber(e.pause_p99_ms) +
             ", \"reclaim_p99_ms\": " + JsonNumber(e.reclaim_p99_ms) + "}";
    }
    if (run.tier.present) {
      const TierAgg& t = run.tier;
      out += ",\n     \"tier\": {\"t0_resident_bytes\": " +
             std::to_string(t.t0_resident_bytes) +
             ", \"t1_resident_bytes\": " +
             std::to_string(t.t1_resident_bytes) +
             ", \"t2_resident_bytes\": " +
             std::to_string(t.t2_resident_bytes) +
             ", \"t1_peak_bytes\": " + std::to_string(t.t1_peak_bytes) +
             ", \"t0_hits\": " + std::to_string(t.t0_hits) +
             ", \"t1_hits\": " + std::to_string(t.t1_hits) +
             ", \"t2_hits\": " + std::to_string(t.t2_hits) +
             ", \"misses\": " + std::to_string(t.misses) +
             ", \"demotes_to_t1\": " + std::to_string(t.demotes_to_t1) +
             ", \"demotes_to_t2\": " + std::to_string(t.demotes_to_t2) +
             ", \"promotes\": " + std::to_string(t.promotes) +
             ", \"admit_rejects\": " + std::to_string(t.admit_rejects) +
             ", \"promote_p50_ms\": " + JsonNumber(t.promote_p50_ms) +
             ", \"promote_p99_ms\": " + JsonNumber(t.promote_p99_ms) + "}";
    }
    if (run.pauses.present) {
      const PauseAgg& p = run.pauses;
      out += ",\n     \"pauses\": {\"mark_slices\": " +
             std::to_string(p.mark_slices) +
             ", \"pause_events\": " + std::to_string(p.pause_events) +
             ", \"pause_p50_ms\": " + JsonNumber(p.pause_p50_ms) +
             ", \"pause_p99_ms\": " + JsonNumber(p.pause_p99_ms) +
             ", \"pause_max_ms\": " + JsonNumber(p.pause_max_ms) +
             ", \"slice_p50_ms\": " + JsonNumber(p.slice_p50_ms) +
             ", \"slice_p99_ms\": " + JsonNumber(p.slice_p99_ms) +
             ", \"slice_max_ms\": " + JsonNumber(p.slice_max_ms) + "}";
    }
    if (run.alloc.present) {
      const AllocAgg& a = run.alloc;
      out += ",\n     \"alloc\": {\"alloc_calls\": " +
             std::to_string(a.alloc_calls) +
             ", \"free_calls\": " + std::to_string(a.free_calls) +
             ", \"bytes_requested\": " + std::to_string(a.bytes_requested) +
             "}";
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

bool FromJson(std::string_view json, RunReport* out, std::string* err) {
  JsonValue root;
  if (!ParseJson(json, &root, err)) return false;
  if (!root.is(JsonValue::Type::kObject)) {
    if (err != nullptr) *err = "report root is not an object";
    return false;
  }
  if (root.Str("schema") != RunReport::kSchema) {
    if (err != nullptr) *err = "schema is not '" +
                               std::string(RunReport::kSchema) + "'";
    return false;
  }
  int version = static_cast<int>(root.Num("version", -1));
  if (version < RunReport::kMinVersion || version > RunReport::kVersion) {
    if (err != nullptr) *err = "unsupported report version";
    return false;
  }
  out->bench = root.Str("bench");
  out->runs.clear();
  const JsonValue* runs = root.Find("runs");
  if (runs == nullptr || !runs->is(JsonValue::Type::kArray)) {
    if (err != nullptr) *err = "missing 'runs' array";
    return false;
  }
  for (const JsonValue& jr : runs->arr) {
    if (!jr.is(JsonValue::Type::kObject)) {
      if (err != nullptr) *err = "run entry is not an object";
      return false;
    }
    ReportRun run;
    run.label = jr.Str("label");
    if (const JsonValue* metrics = jr.Find("metrics");
        metrics != nullptr && metrics->is(JsonValue::Type::kArray)) {
      for (const JsonValue& jm : metrics->arr) {
        ReportMetric m;
        m.name = jm.Str("name");
        m.value = jm.Num("value");
        m.exact = jm.Bool("exact");
        run.metrics.push_back(std::move(m));
      }
    }
    if (const JsonValue* spans = jr.Find("spans");
        spans != nullptr && spans->is(JsonValue::Type::kArray)) {
      for (const JsonValue& js : spans->arr) {
        SpanAgg s;
        s.cat = js.Str("cat");
        s.name = js.Str("name");
        s.count = static_cast<uint64_t>(js.Num("count"));
        s.total_ms = js.Num("total_ms");
        run.spans.push_back(std::move(s));
      }
    }
    if (const JsonValue* epochs = jr.Find("epochs");
        epochs != nullptr && epochs->is(JsonValue::Type::kObject)) {
      run.epochs.present = true;
      run.epochs.epochs_run =
          static_cast<uint64_t>(epochs->Num("epochs_run"));
      run.epochs.windows = static_cast<uint64_t>(epochs->Num("windows"));
      run.epochs.reclaimed_bytes =
          static_cast<uint64_t>(epochs->Num("reclaimed_bytes"));
      run.epochs.pause_p50_ms = epochs->Num("pause_p50_ms");
      run.epochs.pause_p99_ms = epochs->Num("pause_p99_ms");
      run.epochs.reclaim_p99_ms = epochs->Num("reclaim_p99_ms");
    }
    if (const JsonValue* tier = jr.Find("tier");
        tier != nullptr && tier->is(JsonValue::Type::kObject)) {
      run.tier.present = true;
      run.tier.t0_resident_bytes =
          static_cast<uint64_t>(tier->Num("t0_resident_bytes"));
      run.tier.t1_resident_bytes =
          static_cast<uint64_t>(tier->Num("t1_resident_bytes"));
      run.tier.t2_resident_bytes =
          static_cast<uint64_t>(tier->Num("t2_resident_bytes"));
      run.tier.t1_peak_bytes =
          static_cast<uint64_t>(tier->Num("t1_peak_bytes"));
      run.tier.t0_hits = static_cast<uint64_t>(tier->Num("t0_hits"));
      run.tier.t1_hits = static_cast<uint64_t>(tier->Num("t1_hits"));
      run.tier.t2_hits = static_cast<uint64_t>(tier->Num("t2_hits"));
      run.tier.misses = static_cast<uint64_t>(tier->Num("misses"));
      run.tier.demotes_to_t1 =
          static_cast<uint64_t>(tier->Num("demotes_to_t1"));
      run.tier.demotes_to_t2 =
          static_cast<uint64_t>(tier->Num("demotes_to_t2"));
      run.tier.promotes = static_cast<uint64_t>(tier->Num("promotes"));
      run.tier.admit_rejects =
          static_cast<uint64_t>(tier->Num("admit_rejects"));
      run.tier.promote_p50_ms = tier->Num("promote_p50_ms");
      run.tier.promote_p99_ms = tier->Num("promote_p99_ms");
    }
    if (const JsonValue* pauses = jr.Find("pauses");
        pauses != nullptr && pauses->is(JsonValue::Type::kObject)) {
      run.pauses.present = true;
      run.pauses.mark_slices =
          static_cast<uint64_t>(pauses->Num("mark_slices"));
      run.pauses.pause_events =
          static_cast<uint64_t>(pauses->Num("pause_events"));
      run.pauses.pause_p50_ms = pauses->Num("pause_p50_ms");
      run.pauses.pause_p99_ms = pauses->Num("pause_p99_ms");
      run.pauses.pause_max_ms = pauses->Num("pause_max_ms");
      run.pauses.slice_p50_ms = pauses->Num("slice_p50_ms");
      run.pauses.slice_p99_ms = pauses->Num("slice_p99_ms");
      run.pauses.slice_max_ms = pauses->Num("slice_max_ms");
    }
    if (const JsonValue* alloc = jr.Find("alloc");
        alloc != nullptr && alloc->is(JsonValue::Type::kObject)) {
      run.alloc.present = true;
      run.alloc.alloc_calls =
          static_cast<uint64_t>(alloc->Num("alloc_calls"));
      run.alloc.free_calls = static_cast<uint64_t>(alloc->Num("free_calls"));
      run.alloc.bytes_requested =
          static_cast<uint64_t>(alloc->Num("bytes_requested"));
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
    if (run.epochs.present) {
      const EpochAgg& e = run.epochs;
      if (!std::isfinite(e.pause_p50_ms) || e.pause_p50_ms < 0 ||
          !std::isfinite(e.pause_p99_ms) || e.pause_p99_ms < 0 ||
          !std::isfinite(e.reclaim_p99_ms) || e.reclaim_p99_ms < 0) {
        return fail("bad epoch pause aggregate in '" + run.label + "'");
      }
      if (e.pause_p50_ms > e.pause_p99_ms) {
        return fail("epoch pause p50 > p99 in '" + run.label + "'");
      }
    }
    if (run.tier.present) {
      const TierAgg& t = run.tier;
      if (!std::isfinite(t.promote_p50_ms) || t.promote_p50_ms < 0 ||
          !std::isfinite(t.promote_p99_ms) || t.promote_p99_ms < 0) {
        return fail("bad tier promote aggregate in '" + run.label + "'");
      }
      if (t.promote_p50_ms > t.promote_p99_ms) {
        return fail("tier promote p50 > p99 in '" + run.label + "'");
      }
    }
    if (run.pauses.present) {
      const PauseAgg& p = run.pauses;
      for (double v : {p.pause_p50_ms, p.pause_p99_ms, p.pause_max_ms,
                       p.slice_p50_ms, p.slice_p99_ms, p.slice_max_ms}) {
        if (!std::isfinite(v) || v < 0) {
          return fail("bad pause aggregate in '" + run.label + "'");
        }
      }
      if (p.pause_p50_ms > p.pause_p99_ms ||
          p.pause_p99_ms > p.pause_max_ms ||
          p.slice_p50_ms > p.slice_p99_ms ||
          p.slice_p99_ms > p.slice_max_ms) {
        return fail("pause percentiles out of order in '" + run.label +
                    "'");
      }
    }
    if (run.alloc.present) {
      if (run.alloc.free_calls > run.alloc.alloc_calls) {
        return fail("alloc free_calls > alloc_calls in '" + run.label +
                    "'");
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
    const EpochAgg& ea = ra.epochs;
    const EpochAgg& eb = rb.epochs;
    if (ea.present != eb.present || ea.epochs_run != eb.epochs_run ||
        ea.windows != eb.windows ||
        ea.reclaimed_bytes != eb.reclaimed_bytes ||
        ea.pause_p50_ms != eb.pause_p50_ms ||
        ea.pause_p99_ms != eb.pause_p99_ms ||
        ea.reclaim_p99_ms != eb.reclaim_p99_ms) {
      return false;
    }
    const TierAgg& ta = ra.tier;
    const TierAgg& tb = rb.tier;
    if (ta.present != tb.present ||
        ta.t0_resident_bytes != tb.t0_resident_bytes ||
        ta.t1_resident_bytes != tb.t1_resident_bytes ||
        ta.t2_resident_bytes != tb.t2_resident_bytes ||
        ta.t1_peak_bytes != tb.t1_peak_bytes ||
        ta.t0_hits != tb.t0_hits || ta.t1_hits != tb.t1_hits ||
        ta.t2_hits != tb.t2_hits || ta.misses != tb.misses ||
        ta.demotes_to_t1 != tb.demotes_to_t1 ||
        ta.demotes_to_t2 != tb.demotes_to_t2 ||
        ta.promotes != tb.promotes ||
        ta.admit_rejects != tb.admit_rejects ||
        ta.promote_p50_ms != tb.promote_p50_ms ||
        ta.promote_p99_ms != tb.promote_p99_ms) {
      return false;
    }
    const PauseAgg& pa = ra.pauses;
    const PauseAgg& pb = rb.pauses;
    if (pa.present != pb.present || pa.mark_slices != pb.mark_slices ||
        pa.pause_events != pb.pause_events ||
        pa.pause_p50_ms != pb.pause_p50_ms ||
        pa.pause_p99_ms != pb.pause_p99_ms ||
        pa.pause_max_ms != pb.pause_max_ms ||
        pa.slice_p50_ms != pb.slice_p50_ms ||
        pa.slice_p99_ms != pb.slice_p99_ms ||
        pa.slice_max_ms != pb.slice_max_ms) {
      return false;
    }
    const AllocAgg& aa = ra.alloc;
    const AllocAgg& ab = rb.alloc;
    if (aa.present != ab.present || aa.alloc_calls != ab.alloc_calls ||
        aa.free_calls != ab.free_calls ||
        aa.bytes_requested != ab.bytes_requested) {
      return false;
    }
  }
  return true;
}

namespace {

bool ExactEqual(double base, double cur, double rel_eps) {
  double scale = std::max({1.0, std::fabs(base), std::fabs(cur)});
  return std::fabs(base - cur) <= rel_eps * scale;
}

}  // namespace

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
        if (!ExactEqual(bm.value, cm->value, opt.exact_rel_eps)) {
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
    if (base_run.epochs.present) {
      const EpochAgg& be = base_run.epochs;
      const EpochAgg& ce = cur_run->epochs;
      if (!ce.present) {
        fail(base_run.label + ": epoch aggregates missing from current "
             "report");
        continue;
      }
      // Deterministic epoch counters: bit-compare.
      auto counter = [&](const char* name, uint64_t bv, uint64_t cv) {
        if (bv != cv) {
          fail(base_run.label + ": epoch counter '" + std::string(name) +
               "' changed " + std::to_string(bv) + " -> " +
               std::to_string(cv));
        }
      };
      counter("epochs_run", be.epochs_run, ce.epochs_run);
      counter("windows", be.windows, ce.windows);
      counter("reclaimed_bytes", be.reclaimed_bytes, ce.reclaimed_bytes);
      // Pause percentiles are wall times: regression threshold only.
      auto pause = [&](const char* name, double bv, double cv) {
        if (cv > bv * (1.0 + opt.time_threshold) &&
            cv - bv > opt.time_floor_ms) {
          fail(base_run.label + ": epoch pause '" + std::string(name) +
               "' regressed " + JsonNumber(bv) + " -> " + JsonNumber(cv) +
               " ms");
        }
      };
      if (!opt.exact_only) {
        pause("pause_p50_ms", be.pause_p50_ms, ce.pause_p50_ms);
        pause("pause_p99_ms", be.pause_p99_ms, ce.pause_p99_ms);
        pause("reclaim_p99_ms", be.reclaim_p99_ms, ce.reclaim_p99_ms);
      }
    }
    if (base_run.tier.present) {
      const TierAgg& bt = base_run.tier;
      const TierAgg& ct = cur_run->tier;
      if (!ct.present) {
        fail(base_run.label + ": tier aggregates missing from current "
             "report");
        continue;
      }
      // Deterministic tier counters: bit-compare.
      auto counter = [&](const char* name, uint64_t bv, uint64_t cv) {
        if (bv != cv) {
          fail(base_run.label + ": tier counter '" + std::string(name) +
               "' changed " + std::to_string(bv) + " -> " +
               std::to_string(cv));
        }
      };
      counter("t0_resident_bytes", bt.t0_resident_bytes,
              ct.t0_resident_bytes);
      counter("t1_resident_bytes", bt.t1_resident_bytes,
              ct.t1_resident_bytes);
      counter("t2_resident_bytes", bt.t2_resident_bytes,
              ct.t2_resident_bytes);
      counter("t1_peak_bytes", bt.t1_peak_bytes, ct.t1_peak_bytes);
      counter("t0_hits", bt.t0_hits, ct.t0_hits);
      counter("t1_hits", bt.t1_hits, ct.t1_hits);
      counter("t2_hits", bt.t2_hits, ct.t2_hits);
      counter("misses", bt.misses, ct.misses);
      counter("demotes_to_t1", bt.demotes_to_t1, ct.demotes_to_t1);
      counter("demotes_to_t2", bt.demotes_to_t2, ct.demotes_to_t2);
      counter("promotes", bt.promotes, ct.promotes);
      counter("admit_rejects", bt.admit_rejects, ct.admit_rejects);
      // Promote percentiles are wall times: regression threshold only.
      auto promote = [&](const char* name, double bv, double cv) {
        if (cv > bv * (1.0 + opt.time_threshold) &&
            cv - bv > opt.time_floor_ms) {
          fail(base_run.label + ": tier promote '" + std::string(name) +
               "' regressed " + JsonNumber(bv) + " -> " + JsonNumber(cv) +
               " ms");
        }
      };
      if (!opt.exact_only) {
        promote("promote_p50_ms", bt.promote_p50_ms, ct.promote_p50_ms);
        promote("promote_p99_ms", bt.promote_p99_ms, ct.promote_p99_ms);
      }
    }
    if (base_run.pauses.present) {
      const PauseAgg& bp = base_run.pauses;
      const PauseAgg& cp = cur_run->pauses;
      if (!cp.present) {
        fail(base_run.label + ": pause aggregates missing from current "
             "report");
        continue;
      }
      // Slice/pause event counts are deterministic at pause_budget_ms=0
      // (one slice per mark): bit-compare. Budgeted runs must not be
      // diffed against unbudgeted baselines (use --slo instead).
      auto counter = [&](const char* name, uint64_t bv, uint64_t cv) {
        if (bv != cv) {
          fail(base_run.label + ": pause counter '" + std::string(name) +
               "' changed " + std::to_string(bv) + " -> " +
               std::to_string(cv));
        }
      };
      counter("mark_slices", bp.mark_slices, cp.mark_slices);
      counter("pause_events", bp.pause_events, cp.pause_events);
      // Percentiles are wall times: regression threshold only.
      auto pause_time = [&](const char* name, double bv, double cv) {
        if (cv > bv * (1.0 + opt.time_threshold) &&
            cv - bv > opt.time_floor_ms) {
          fail(base_run.label + ": pause time '" + std::string(name) +
               "' regressed " + JsonNumber(bv) + " -> " + JsonNumber(cv) +
               " ms");
        }
      };
      if (!opt.exact_only) {
        pause_time("pause_p50_ms", bp.pause_p50_ms, cp.pause_p50_ms);
        pause_time("pause_p99_ms", bp.pause_p99_ms, cp.pause_p99_ms);
        pause_time("pause_max_ms", bp.pause_max_ms, cp.pause_max_ms);
        pause_time("slice_p50_ms", bp.slice_p50_ms, cp.slice_p50_ms);
        pause_time("slice_p99_ms", bp.slice_p99_ms, cp.slice_p99_ms);
        pause_time("slice_max_ms", bp.slice_max_ms, cp.slice_max_ms);
      }
    }
    if (base_run.alloc.present) {
      const AllocAgg& ba = base_run.alloc;
      const AllocAgg& ca = cur_run->alloc;
      if (!ca.present) {
        fail(base_run.label + ": alloc aggregates missing from current "
             "report");
        continue;
      }
      // The counters are part of the determinism contract (identical
      // across threads and dist modes).
      auto counter = [&](const char* name, uint64_t bv, uint64_t cv) {
        if (bv != cv) {
          fail(base_run.label + ": alloc counter '" + std::string(name) +
               "' changed " + std::to_string(bv) + " -> " +
               std::to_string(cv));
        }
      };
      counter("alloc_calls", ba.alloc_calls, ca.alloc_calls);
      counter("free_calls", ba.free_calls, ca.free_calls);
      counter("bytes_requested", ba.bytes_requested, ca.bytes_requested);
    }
  }
  return result;
}

}  // namespace deca::obs
