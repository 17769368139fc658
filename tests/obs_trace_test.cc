// Tracing + run-report subsystem tests (src/obs): ring-buffer overflow
// semantics, canonical ordering and span nesting on a real workload, the
// parallel == sequential trace-content contract, report JSON round-trip,
// and the regression-diff rules the CI bench gate relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "obs/run_report.h"
#include "obs/trace.h"
#include "workloads/lr.h"
#include "workloads/wordcount.h"

namespace deca {
namespace {

using obs::CanonicalLess;
using obs::Cat;
using obs::DiffOptions;
using obs::DiffReports;
using obs::ReportRun;
using obs::RunReport;
using obs::SameContent;
using obs::TraceEvent;
using obs::TraceLog;
using obs::TraceRecorder;

// ---------------------------------------------------------------------------
// TraceRecorder ring semantics.

TEST(TraceRecorderTest, RecordsIdentityAndSequence) {
  TraceRecorder rec(/*executor=*/3, /*capacity=*/16);
  rec.BeginWindow(/*stage=*/2, /*partition=*/5, /*attempt=*/1);
  rec.Record(Cat::kTask, "a", 100, 10, 1.0, 2.0, 3.0);
  rec.Record(Cat::kGc, "b", 200, -1);

  std::vector<TraceEvent> out;
  rec.Drain(&out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_STREQ(out[0].name, "a");
  EXPECT_EQ(out[0].stage, 2);
  EXPECT_EQ(out[0].partition, 5);
  EXPECT_EQ(out[0].attempt, 1);
  EXPECT_EQ(out[0].executor, 3);
  EXPECT_EQ(out[0].seq, 0u);
  EXPECT_FALSE(out[0].instant());
  EXPECT_EQ(out[1].seq, 1u);
  EXPECT_TRUE(out[1].instant());
  EXPECT_EQ(rec.pending(), 0u);

  // A new window resets the sequence counter.
  rec.BeginWindow(2, 6, 0);
  rec.Record(Cat::kTask, "c", 300, -1);
  out.clear();
  rec.Drain(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].seq, 0u);
  EXPECT_EQ(out[0].partition, 6);
}

TEST(TraceRecorderTest, FullRingDropsOldestAndCounts) {
  constexpr uint32_t kCap = 8;
  TraceRecorder rec(/*executor=*/0, kCap);
  rec.BeginWindow(0, 0, 0);
  for (int i = 0; i < 20; ++i) {
    rec.Record(Cat::kTask, "e", i, -1, /*arg0=*/i);
  }
  EXPECT_EQ(rec.dropped_events(), 20u - kCap);
  EXPECT_EQ(rec.pending(), kCap);

  std::vector<TraceEvent> out;
  rec.Drain(&out);
  ASSERT_EQ(out.size(), kCap);
  // The survivors are the newest kCap events, oldest-first.
  for (uint32_t i = 0; i < kCap; ++i) {
    EXPECT_DOUBLE_EQ(out[i].arg0, 20.0 - kCap + i);
    EXPECT_EQ(out[i].seq, 20u - kCap + i);
  }
  // Drop counter is cumulative and unaffected by draining.
  EXPECT_EQ(rec.dropped_events(), 20u - kCap);
}

TEST(TraceRecorderTest, DisabledHooksAreNoOps) {
  // No recorder installed: Instant/ScopedSpan must be safe no-ops.
  obs::ScopedRecorder off(nullptr);
  EXPECT_EQ(obs::Current(), nullptr);
  obs::Instant(Cat::kMemory, "deny", 1.0);
  {
    obs::ScopedSpan span(Cat::kTask, "task");
    span.set_args(1, 2);
    span.set_time_arg(3);
  }
  EXPECT_EQ(obs::Current(), nullptr);
}

// ---------------------------------------------------------------------------
// Real-workload traces: structure, ordering, determinism.

workloads::MlParams TracedLr(int num_worker_threads) {
  workloads::MlParams p;
  p.num_points = 40'000;
  p.iterations = 3;
  p.mode = workloads::Mode::kSpark;
  p.spark.num_executors = 2;
  p.spark.partitions_per_executor = 2;
  p.spark.heap.heap_bytes = 32u << 20;
  p.spark.storage_fraction = 0.9;
  p.spark.num_worker_threads = num_worker_threads;
  p.spark.trace_enabled = true;
  return p;
}

TEST(WorkloadTraceTest, LogIsCanonicallyOrderedWithExpectedStructure) {
  workloads::LrResult r =
      workloads::RunLogisticRegression(TracedLr(/*num_worker_threads=*/0));
  ASSERT_NE(r.run.trace, nullptr);
  const TraceLog& log = *r.run.trace;
  ASSERT_FALSE(log.events.empty());
  EXPECT_EQ(log.dropped_events, 0u);
  EXPECT_EQ(log.num_executors, 2);

  // Canonically ordered, and the (stage, partition, attempt, seq) key is
  // unique across the whole log.
  for (size_t i = 1; i < log.events.size(); ++i) {
    const TraceEvent& a = log.events[i - 1];
    const TraceEvent& b = log.events[i];
    EXPECT_FALSE(CanonicalLess(b, a)) << "events out of order at " << i;
    bool same_key = a.stage == b.stage && a.partition == b.partition &&
                    a.attempt == b.attempt && a.seq == b.seq;
    EXPECT_FALSE(same_key) << "duplicate canonical key at " << i;
  }

  uint64_t stage_spans = 0;
  uint64_t task_spans = 0;
  uint64_t dispatches = 0;
  for (const TraceEvent& ev : log.events) {
    if (ev.cat == Cat::kStage && !ev.instant()) {
      ++stage_spans;
      // Driver window identity.
      EXPECT_EQ(ev.partition, -1);
      EXPECT_EQ(ev.attempt, -1);
      EXPECT_EQ(ev.executor, -1);
    }
    if (ev.cat == Cat::kTask && std::string(ev.name) == "task") {
      ++task_spans;
      EXPECT_GE(ev.partition, 0);
      EXPECT_GE(ev.attempt, 0);
      EXPECT_GE(ev.executor, 0);
      EXPECT_GE(ev.dur_ns, 0);
      // Each task span nests inside its stage's window: a stage span with
      // the same stage id exists.
      bool found = false;
      for (const TraceEvent& s : log.events) {
        if (s.cat == Cat::kStage && !s.instant() && s.stage == ev.stage) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "task span without stage span, stage "
                         << ev.stage;
    }
    if (ev.cat == Cat::kSched && std::string(ev.name) == "dispatch") {
      ++dispatches;
    }
  }
  EXPECT_GT(stage_spans, 0u);
  EXPECT_GT(task_spans, 0u);
  // One dispatch instant per task attempt.
  EXPECT_EQ(dispatches, task_spans);
}

TEST(WorkloadTraceTest, ParallelTraceContentMatchesSequential) {
  workloads::LrResult seq =
      workloads::RunLogisticRegression(TracedLr(/*num_worker_threads=*/0));
  workloads::LrResult par =
      workloads::RunLogisticRegression(TracedLr(/*num_worker_threads=*/2));
  ASSERT_NE(seq.run.trace, nullptr);
  ASSERT_NE(par.run.trace, nullptr);
  ASSERT_EQ(seq.run.trace->events.size(), par.run.trace->events.size());
  for (size_t i = 0; i < seq.run.trace->events.size(); ++i) {
    EXPECT_TRUE(
        SameContent(seq.run.trace->events[i], par.run.trace->events[i]))
        << "content diverges at event " << i << " ("
        << seq.run.trace->events[i].name << " vs "
        << par.run.trace->events[i].name << ")";
  }
  // And so do the aggregates' deterministic halves.
  auto sa = seq.run.trace->Aggregate();
  auto pa = par.run.trace->Aggregate();
  ASSERT_EQ(sa.size(), pa.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].cat, pa[i].cat);
    EXPECT_EQ(sa[i].name, pa[i].name);
    EXPECT_EQ(sa[i].count, pa[i].count);
  }
}

TEST(WorkloadTraceTest, TracingDoesNotPerturbSimulation) {
  workloads::MlParams off = TracedLr(0);
  off.spark.trace_enabled = false;
  workloads::LrResult a = workloads::RunLogisticRegression(off);
  workloads::LrResult b = workloads::RunLogisticRegression(TracedLr(0));
  EXPECT_EQ(a.run.trace, nullptr);
  EXPECT_EQ(a.run.totals.minor_gcs, b.run.totals.minor_gcs);
  EXPECT_EQ(a.run.totals.full_gcs, b.run.totals.full_gcs);
  ASSERT_EQ(a.weights.size(), b.weights.size());
  for (size_t i = 0; i < a.weights.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.weights[i], b.weights[i]);
  }
}

// ---------------------------------------------------------------------------
// RunReport JSON round-trip and diffing.

RunReport SampleReport() {
  RunReport rep;
  rep.bench = "sample_bench";
  ReportRun run;
  run.label = "WC/Deca";
  run.Add("minor_gcs", 17, /*exact=*/true);
  run.Add("exec_pool_peak_bytes", 123456789.0, true);
  run.Add("exec_ms", 42.125, /*exact=*/false);
  run.Add("gc_ms", 7.0625, false);
  // Values that stress float round-tripping.
  run.Add("tricky", 0.1 + 0.2, false);
  obs::SpanAgg agg;
  agg.cat = "task";
  agg.name = "task";
  agg.count = 8;
  agg.total_ms = 39.5;
  run.spans.push_back(agg);
  run.Add("epoch.epochs_run", 240, true);
  run.Add("epoch.windows", 60, true);
  run.Add("epoch.reclaimed_bytes", 987654321, true);
  run.Add("epoch.pause_p50_ms", 0.5, false);
  run.Add("epoch.pause_p99_ms", 2.25, false);
  run.Add("epoch.reclaim_p99_ms", 1.125, false);
  rep.runs.push_back(run);

  ReportRun run2;
  run2.label = "WC/Spark";
  run2.Add("minor_gcs", 210, true);
  run2.Add("exec_ms", 99.5, false);
  rep.runs.push_back(run2);
  return rep;
}

// Run 0's metric `name`, which the test put there.
double& Value(RunReport* rep, std::string_view name) {
  for (obs::ReportMetric& m : rep->runs[0].metrics) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "no metric " << name;
  static double missing = 0;
  return missing;
}

// Validate's verdict on SampleReport() with run 0's `name` set to `value`
// (the metric is added when absent).
bool ValidWith(std::string_view name, double value, std::string* err) {
  RunReport rep = SampleReport();
  if (rep.runs[0].Find(name) == nullptr) {
    rep.runs[0].Add(name, value, false);
  } else {
    Value(&rep, name) = value;
  }
  return Validate(rep, err);
}

// A one-run report whose run object has the given extra members.
std::string OneRunJson(std::string_view run_members,
                       std::string_view version = "5") {
  return std::string(R"({"schema": "deca-run-report", "version": )") +
         std::string(version) + R"(, "bench": "b", "runs": [{"label": "r")" +
         std::string(run_members) + "}]}";
}

// FromJson must reject `json` with an error that names `field`.
void ExpectRejected(const std::string& json, const std::string& field) {
  RunReport out;
  std::string err;
  EXPECT_FALSE(FromJson(json, &out, &err)) << json;
  EXPECT_NE(err.find(field), std::string::npos) << err;
}

constexpr std::string_view kGoodSpan =
    R"(, "spans": [{"cat": "c", "name": "s", "count": 3, "total_ms": 1.5}])";

TEST(RunReportTest, JsonRoundTripPreservesEverything) {
  RunReport rep = SampleReport();
  std::string err;
  ASSERT_TRUE(Validate(rep, &err)) << err;
  std::string json = ToJson(rep);
  RunReport back;
  ASSERT_TRUE(FromJson(json, &back, &err)) << err;
  EXPECT_TRUE(ReportsEqual(rep, back));
  // Stability: a second round trip emits identical text.
  EXPECT_EQ(json, ToJson(back));
}

TEST(RunReportTest, FromJsonRejectsGarbageAndWrongSchema) {
  RunReport out;
  std::string err;
  EXPECT_FALSE(FromJson("not json", &out, &err));
  EXPECT_FALSE(FromJson("{}", &out, &err));
  EXPECT_FALSE(FromJson(
      R"({"schema":"other","version":1,"bench":"x","runs":[]})", &out,
      &err));
}

TEST(RunReportTest, FromJsonAcceptsWellFormedEntriesAndOldBlocks) {
  // The control for the rejection cases below, plus a v4 run carrying a
  // per-plane block that older writers emitted: the block is ignored.
  RunReport out;
  std::string err;
  ASSERT_TRUE(FromJson(
      OneRunJson(R"(, "metrics": [{"name": "m", "value": 7, "exact": true}])" +
                     std::string(kGoodSpan) +
                     R"(, "alloc": {"alloc_calls": 2, "free_calls": 0})",
                 "4"),
      &out, &err))
      << err;
  ASSERT_EQ(out.runs.size(), 1u);
  ASSERT_EQ(out.runs[0].metrics.size(), 1u);
  EXPECT_EQ(out.runs[0].metrics[0].value, 7);
  EXPECT_TRUE(out.runs[0].metrics[0].exact);
  ASSERT_EQ(out.runs[0].spans.size(), 1u);
  EXPECT_EQ(out.runs[0].spans[0].count, 3u);
  EXPECT_EQ(out.runs[0].spans[0].total_ms, 1.5);
}

TEST(RunReportTest, FromJsonRejectsNonNumericMetricValue) {
  for (const char* value : {"null", R"("7")", "true", "[]"}) {
    ExpectRejected(OneRunJson(std::string(R"(, "metrics": [{"name": "m", )") +
                              R"("value": )" + value + R"(, "exact": true}])"),
                   "'value'");
  }
  ExpectRejected(OneRunJson(R"(, "metrics": [{"name": "m", "exact": true}])"),
                 "'value'");
}

TEST(RunReportTest, FromJsonRejectsNonBooleanExact) {
  // A missing flag must not turn an exact counter into a time metric.
  ExpectRejected(OneRunJson(R"(, "metrics": [{"name": "m", "value": 7}])"),
                 "'exact'");
  for (const char* exact : {"1", R"("true")", "null"}) {
    ExpectRejected(OneRunJson(std::string(R"(, "metrics": [{"name": "m", )") +
                              R"("value": 7, "exact": )" + exact + "}]"),
                   "'exact'");
  }
}

TEST(RunReportTest, FromJsonRejectsSpanCountOutsideIntegerRange) {
  for (const char* count :
       {"-1", "1.5", "9007199254740994", "1e300", R"("3")", "null"}) {
    ExpectRejected(
        OneRunJson(std::string(R"(, "spans": [{"cat": "c", "name": "s", )") +
                   R"("count": )" + count + R"(, "total_ms": 1.5}])"),
        "'count'");
  }
  // 2^53 itself is the largest count accepted.
  RunReport out;
  std::string err;
  EXPECT_TRUE(FromJson(OneRunJson(R"(, "spans": [{"cat": "c", "name": "s", )"
                                  R"("count": 9007199254740992, )"
                                  R"("total_ms": 1.5}])"),
                       &out, &err))
      << err;
}

TEST(RunReportTest, FromJsonRejectsNonNumericSpanTotal) {
  for (const char* total : {"null", R"("1.5")", "false"}) {
    ExpectRejected(
        OneRunJson(std::string(R"(, "spans": [{"cat": "c", "name": "s", )") +
                   R"("count": 3, "total_ms": )" + total + "}]"),
        "'total_ms'");
  }
}

TEST(RunReportTest, FromJsonRejectsNonArrayMetricsOrSpans) {
  for (const char* member : {R"({})", R"("x")", "7", "null"}) {
    ExpectRejected(OneRunJson(std::string(R"(, "metrics": )") + member),
                   "'metrics'");
    ExpectRejected(OneRunJson(std::string(R"(, "spans": )") + member),
                   "'spans'");
  }
}

TEST(RunReportTest, FromJsonRejectsVersionOutsideIntegerRange) {
  for (const char* version :
       {"0", "6", "-1", "4.5", "1e300", "-1e300", R"("5")", "null"}) {
    ExpectRejected(OneRunJson(kGoodSpan, version), "'version'");
  }
  ExpectRejected(
      R"({"schema": "deca-run-report", "bench": "b", "runs": []})",
      "'version'");
}

TEST(RunReportTest, ValidateRejectsNegativePercentile) {
  std::string err;
  EXPECT_TRUE(ValidWith("epoch.pause_p50_ms", 0, &err)) << err;
  EXPECT_FALSE(ValidWith("epoch.pause_p50_ms", -0.5, &err));
  EXPECT_NE(err.find("epoch.pause_p50_ms"), std::string::npos) << err;
  EXPECT_FALSE(ValidWith("serve.latency_max_ms", -1, &err));
  EXPECT_NE(err.find("serve.latency_max_ms"), std::string::npos) << err;
}

TEST(RunReportTest, ValidateRejectsPercentilesOutOfOrder) {
  std::string err;
  // epoch.pause p50 = 0.5, p99 = 2.25 in SampleReport.
  EXPECT_TRUE(ValidWith("epoch.pause_p50_ms", 2.25, &err)) << err;
  EXPECT_FALSE(ValidWith("epoch.pause_p50_ms", 2.5, &err));
  EXPECT_NE(err.find("epoch.pause_p50_ms"), std::string::npos) << err;
  EXPECT_TRUE(ValidWith("epoch.pause_max_ms", 2.25, &err)) << err;
  EXPECT_FALSE(ValidWith("epoch.pause_max_ms", 2.0, &err));
  EXPECT_NE(err.find("epoch.pause_max_ms"), std::string::npos) << err;
  // Only metrics sharing a prefix are ordered against each other.
  EXPECT_TRUE(ValidWith("tier.promote_p50_ms", 99.0, &err)) << err;
  // p50 <= max is checked when p99 is absent.
  RunReport rep = SampleReport();
  rep.runs[0].Add("serve.latency_p50_ms", 3, false);
  rep.runs[0].Add("serve.latency_max_ms", 2, false);
  EXPECT_FALSE(Validate(rep, &err));
  EXPECT_NE(err.find("serve.latency_p50_ms"), std::string::npos) << err;
}

TEST(RunReportTest, ValidateRejectsMoreFreesThanAllocs) {
  RunReport rep = SampleReport();
  rep.runs[0].Add("alloc.allocs", 2, true);
  rep.runs[0].Add("alloc.frees", 2, true);
  std::string err;
  EXPECT_TRUE(Validate(rep, &err)) << err;
  Value(&rep, "alloc.frees") = 3;
  EXPECT_FALSE(Validate(rep, &err));
  EXPECT_NE(err.find("alloc.frees"), std::string::npos) << err;
}

TEST(RunReportTest, WorkloadReportValidatesAndRoundTrips) {
  // End-to-end: a real traced run, packed the way bench_util does.
  workloads::LrResult r = workloads::RunLogisticRegression(TracedLr(0));
  RunReport rep;
  rep.bench = "obs_trace_test";
  ReportRun run;
  run.label = "LR/Spark";
  run.Add("minor_gcs", static_cast<double>(r.run.totals.minor_gcs), true);
  run.Add("full_gcs", static_cast<double>(r.run.totals.full_gcs), true);
  run.Add("exec_ms", r.run.exec_ms, false);
  run.Add("gc_ms", r.run.totals.gc_pause_ms, false);
  run.spans = r.run.trace->Aggregate();
  rep.runs.push_back(run);

  std::string err;
  ASSERT_TRUE(Validate(rep, &err)) << err;
  RunReport back;
  ASSERT_TRUE(FromJson(ToJson(rep), &back, &err)) << err;
  EXPECT_TRUE(ReportsEqual(rep, back));
}

TEST(RunReportDiffTest, IdenticalReportsPass) {
  RunReport rep = SampleReport();
  EXPECT_TRUE(DiffReports(rep, rep, DiffOptions{}).ok());
}

TEST(RunReportDiffTest, ExactCounterMismatchFails) {
  RunReport base = SampleReport();
  RunReport cur = base;
  cur.runs[0].metrics[0].value += 1;  // minor_gcs 17 -> 18
  DiffOptions opt;
  auto d = DiffReports(base, cur, opt);
  ASSERT_FALSE(d.ok());
  EXPECT_NE(d.failures[0].find("minor_gcs"), std::string::npos);
}

TEST(RunReportDiffTest, TimeThresholdGatesRegressionsOnly) {
  RunReport base = SampleReport();
  DiffOptions opt;  // +15%, 1 ms floor

  RunReport worse = base;
  worse.runs[0].Find("exec_ms");
  for (auto& m : worse.runs[0].metrics) {
    if (m.name == "exec_ms") m.value *= 1.20;  // 42.1 -> 50.6: fails
  }
  EXPECT_FALSE(DiffReports(base, worse, opt).ok());

  RunReport mild = base;
  for (auto& m : mild.runs[0].metrics) {
    if (m.name == "exec_ms") m.value *= 1.10;  // within threshold
  }
  EXPECT_TRUE(DiffReports(base, mild, opt).ok());

  RunReport better = base;
  for (auto& m : better.runs[0].metrics) {
    if (m.name == "exec_ms") m.value *= 0.5;  // improvements always pass
  }
  EXPECT_TRUE(DiffReports(base, better, opt).ok());

  // The absolute floor suppresses sub-ms noise: +20% of 7.06 ms ≈ 1.4 ms
  // fails, but +20% of a 0.1 ms metric would not.
  RunReport tiny_base = base;
  RunReport tiny_cur = base;
  for (auto& m : tiny_base.runs[0].metrics) {
    if (m.name == "gc_ms") m.value = 0.1;
  }
  for (auto& m : tiny_cur.runs[0].metrics) {
    if (m.name == "gc_ms") m.value = 0.12;
  }
  EXPECT_TRUE(DiffReports(tiny_base, tiny_cur, opt).ok());
}

TEST(RunReportDiffTest, MissingRunOrMetricFailsExtrasPass) {
  RunReport base = SampleReport();

  RunReport missing_run = base;
  missing_run.runs.pop_back();
  EXPECT_FALSE(DiffReports(base, missing_run, DiffOptions{}).ok());

  RunReport missing_metric = base;
  missing_metric.runs[0].metrics.erase(
      missing_metric.runs[0].metrics.begin());
  EXPECT_FALSE(DiffReports(base, missing_metric, DiffOptions{}).ok());

  // Reports may grow: extra runs/metrics in `current` are fine.
  RunReport grown = base;
  ReportRun extra;
  extra.label = "WC/SparkSer";
  extra.Add("exec_ms", 1.0, false);
  grown.runs.push_back(extra);
  grown.runs[0].Add("new_metric", 3.0, true);
  EXPECT_TRUE(DiffReports(base, grown, DiffOptions{}).ok());
}

TEST(RunReportDiffTest, ExactMetricsCompareBitForBit) {
  // A large exact counter (a 32-bit digest half) moving by 3 is a change,
  // also after both reports went through JSON text.
  RunReport base = SampleReport();
  base.runs[0].Add("stream.digest_hi", 3695188925.0, true);
  RunReport cur = base;
  Value(&cur, "stream.digest_hi") = 3695188928.0;
  RunReport base_back;
  RunReport cur_back;
  std::string err;
  ASSERT_TRUE(FromJson(ToJson(base), &base_back, &err)) << err;
  ASSERT_TRUE(FromJson(ToJson(cur), &cur_back, &err)) << err;
  EXPECT_TRUE(DiffReports(base, base_back, DiffOptions{}).ok());
  for (const RunReport* c : {&cur, &cur_back}) {
    auto d = DiffReports(base_back, *c, DiffOptions{});
    ASSERT_FALSE(d.ok());
    EXPECT_NE(d.failures[0].find("stream.digest_hi"), std::string::npos);
  }
}

TEST(RunReportDiffTest, EpochCountersExactPausesThresholded) {
  RunReport base = SampleReport();

  // Epoch counters are deterministic: any drift fails.
  RunReport bad_windows = base;
  Value(&bad_windows, "epoch.windows") += 1;
  auto d = DiffReports(base, bad_windows, DiffOptions{});
  ASSERT_FALSE(d.ok());
  EXPECT_NE(d.failures[0].find("windows"), std::string::npos);

  RunReport bad_bytes = base;
  Value(&bad_bytes, "epoch.reclaimed_bytes") -= 1;
  EXPECT_FALSE(DiffReports(base, bad_bytes, DiffOptions{}).ok());

  // Pauses are wall times: gated by threshold + floor, regressions only.
  RunReport slow = base;
  Value(&slow, "epoch.pause_p99_ms") = 5.0;  // 2.25 -> 5.0 fails
  EXPECT_FALSE(DiffReports(base, slow, DiffOptions{}).ok());

  RunReport mild = base;
  Value(&mild, "epoch.pause_p99_ms") *= 1.05;  // within threshold/floor
  EXPECT_TRUE(DiffReports(base, mild, DiffOptions{}).ok());

  RunReport better = base;
  Value(&better, "epoch.pause_p99_ms") *= 0.5;
  EXPECT_TRUE(DiffReports(base, better, DiffOptions{}).ok());

  // A baseline with an epoch plane requires one in `current`.
  RunReport stripped = base;
  std::erase_if(stripped.runs[0].metrics, [](const obs::ReportMetric& m) {
    return m.name.starts_with("epoch.");
  });
  EXPECT_FALSE(DiffReports(base, stripped, DiffOptions{}).ok());
  // The reverse (baseline batch, current streaming) is growth: allowed.
  EXPECT_TRUE(DiffReports(stripped, base, DiffOptions{}).ok());
}

TEST(RunReportDiffTest, SpanCountsExactTotalsThresholded) {
  RunReport base = SampleReport();

  RunReport bad_count = base;
  bad_count.runs[0].spans[0].count += 1;
  EXPECT_FALSE(DiffReports(base, bad_count, DiffOptions{}).ok());

  RunReport slow_spans = base;
  slow_spans.runs[0].spans[0].total_ms *= 1.5;
  EXPECT_FALSE(DiffReports(base, slow_spans, DiffOptions{}).ok());

  RunReport mild_spans = base;
  mild_spans.runs[0].spans[0].total_ms *= 1.05;
  EXPECT_TRUE(DiffReports(base, mild_spans, DiffOptions{}).ok());
}

}  // namespace
}  // namespace deca
