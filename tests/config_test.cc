// The SparkConfig field list (spark::ForEachSparkField) is the one
// declaration of every setting that crosses the job-spec wire and of
// every DECA_* knob. These tests check what is generated from it: the
// job-spec codec round-trips every listed field, the bench env parser
// accepts the documented spellings and exits naming the variable on
// anything else, and EXPERIMENTS.md's knob table names exactly the
// variables the parser accepts. The run report is generated the same way
// from the executor snapshot's list (spark::ExecutorSnapshot), and is
// checked against that list and against the metrics it named before.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "cluster/job_spec.h"
#include "spark/config.h"

namespace deca {
namespace {

// A value of `v`'s type that differs from `v`.
template <typename T>
T Bumped(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return !v;
  } else if constexpr (std::is_enum_v<T>) {
    // Every listed enum field defaults to a value that has a successor.
    return static_cast<T>(static_cast<int>(v) + 1);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return v + "/x";
  } else {
    return static_cast<T>(v + 3);
  }
}

// Every listed field of `c` as "path=value", in list order.
std::vector<std::string> Fields(const spark::SparkConfig& c) {
  std::vector<std::string> out;
  spark::ForEachSparkField(
      c, [&out](const char* path, auto, uint64_t, const auto& v) {
        std::ostringstream s;
        s << path << '=' << std::setprecision(17);
        if constexpr (std::is_enum_v<std::decay_t<decltype(v)>>) {
          s << static_cast<int>(v);
        } else {
          s << v;
        }
        out.push_back(s.str());
      });
  return out;
}

TEST(SparkConfigCodecTest, EveryListedFieldRoundTrips) {
  spark::SparkConfig sent;
  spark::ForEachSparkField(
      sent, [](const char*, auto, uint64_t, auto& v) { v = Bumped(v); });
  ByteWriter w;
  Put(&w, sent);
  ByteReader r(w.data(), w.size());
  spark::SparkConfig decoded;
  Get(&r, &decoded);
  const std::vector<std::string> got = Fields(decoded);
  EXPECT_TRUE(r.AtEnd());

  const std::vector<std::string> defaults = Fields(spark::SparkConfig{});
  const std::vector<std::string> want = Fields(sent);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_NE(want[i], defaults[i]) << "field not moved off its default";
    EXPECT_EQ(got[i], want[i]);
  }
}

// Sets an environment variable for the enclosing scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    setenv(name, value, 1);
  }
  ~ScopedEnv() { unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

TEST(BenchEnvTest, DocumentedSpellingsParse) {
  ScopedEnv transport("DECA_SHUFFLE_TRANSPORT", "network");
  ScopedEnv dist("DECA_DIST_MODE", "local");
  ScopedEnv wipe("DECA_CRASH_WIPE_STAGE", "-1");
  ScopedEnv tiers("DECA_STORAGE_TIER", "3");
  ScopedEnv admit("DECA_ADMIT_POLICY", "never");
  ScopedEnv heap("DECA_HEAP_MB", "8");
  ScopedEnv prob("DECA_FAULT_TASK_PROB", "0.25");
  ScopedEnv trace("DECA_TRACE", "1");
  spark::SparkConfig cfg = bench::DefaultSpark();
  EXPECT_EQ(cfg.shuffle_transport, spark::ShuffleTransport::kLoopback);
  EXPECT_EQ(cfg.dist_mode, spark::DistMode::kInProcess);
  EXPECT_EQ(cfg.fault.crash_wipe_stage, -1);
  EXPECT_EQ(cfg.storage_tiers, 3);
  EXPECT_EQ(cfg.admit_policy, spark::AdmitPolicy::kNever);
  EXPECT_EQ(cfg.heap.heap_bytes, size_t{8} << 20);
  EXPECT_EQ(cfg.fault.task_failure_prob, 0.25);
  EXPECT_TRUE(cfg.trace_enabled);
}

// Runs DefaultSpark and DefaultStreamOptions with one more variable set;
// meant for a death-test child, so the parent's environment is untouched.
void ParseWith(const char* name, const char* value) {
  setenv(name, value, 1);
  bench::DefaultSpark();
  bench::DefaultStreamOptions(4, 2);
  std::exit(0);
}

TEST(BenchEnvDeathTest, MalformedValueExitsNamingTheVariable) {
  const auto failed = testing::ExitedWithCode(2);
  EXPECT_EXIT(ParseWith("DECA_STORAGE_TIER", "three"), failed,
              "DECA_STORAGE_TIER=three");
  EXPECT_EXIT(ParseWith("DECA_HEAP_MB", "64MB"), failed, "DECA_HEAP_MB=64MB");
  EXPECT_EXIT(ParseWith("DECA_FAULT_SEED", "-1"), failed, "DECA_FAULT_SEED");
  EXPECT_EXIT(ParseWith("DECA_TRACE_RING", "4294967296"), failed,
              "DECA_TRACE_RING");
  EXPECT_EXIT(ParseWith("DECA_TRACE", "yes"), failed, "DECA_TRACE=yes");
  EXPECT_EXIT(ParseWith("DECA_STREAM_WINDOW", "0"), failed,
              "DECA_STREAM_WINDOW=0");
}

TEST(BenchEnvDeathTest, UnknownEnumNameExitsNamingTheVariable) {
  EXPECT_EXIT(ParseWith("DECA_SHUFFLE_TRANSPORT", "lopback"),
              testing::ExitedWithCode(2), "DECA_SHUFFLE_TRANSPORT=lopback");
  EXPECT_EXIT(ParseWith("DECA_ADMIT_POLICY", "sometimes"),
              testing::ExitedWithCode(2), "DECA_ADMIT_POLICY=sometimes");
}

TEST(BenchEnvDeathTest, UnknownVariableExitsNamingIt) {
  EXPECT_EXIT(ParseWith("DECA_STORAGE_TIERS", "3"),
              testing::ExitedWithCode(2), "DECA_STORAGE_TIERS=3");
  EXPECT_EXIT(ParseWith("DECA_ARENA", "1"), testing::ExitedWithCode(2),
              "DECA_ARENA=1");
  // Retired knobs: a script that still sets one exits naming it.
  EXPECT_EXIT(ParseWith("DECA_LIFETIME_SOURCE", "static"),
              testing::ExitedWithCode(2), "DECA_LIFETIME_SOURCE=static");
  EXPECT_EXIT(ParseWith("DECA_PROFILE_SAMPLE_BYTES", "512"),
              testing::ExitedWithCode(2), "DECA_PROFILE_SAMPLE_BYTES=512");
  EXPECT_EXIT(ParseWith("DECA_PROFILE_SEED", "1"),
              testing::ExitedWithCode(2), "DECA_PROFILE_SEED=1");
  EXPECT_EXIT(ParseWith("DECA_NET_LATENCY_US", "50"),
              testing::ExitedWithCode(2), "DECA_NET_LATENCY_US=50");
  EXPECT_EXIT(ParseWith("DECA_NET_BANDWIDTH_MBPS", "100"),
              testing::ExitedWithCode(2), "DECA_NET_BANDWIDTH_MBPS=100");
}

// EXPERIMENTS.md's "Environment knobs" table is the knob documentation:
// its rows name exactly the variables the bench parser accepts.
TEST(BenchEnvTest, ExperimentsKnobTableMatchesTheParser) {
  std::ifstream doc(std::string(DECA_SOURCE_DIR) + "/EXPERIMENTS.md");
  ASSERT_TRUE(doc.is_open());
  const std::string row = "| `DECA_";
  std::set<std::string> documented;
  std::string line;
  while (std::getline(doc, line)) {
    if (line.rfind(row, 0) != 0) continue;
    size_t end = line.find('`', 3);
    ASSERT_NE(end, std::string::npos) << line;
    EXPECT_TRUE(documented.insert(line.substr(3, end - 3)).second) << line;
  }
  const std::vector<std::string> known = bench::KnownEnvNames();
  const std::set<std::string> parsed(known.begin(), known.end());
  EXPECT_EQ(parsed.size(), known.size()) << "a knob is listed twice";
  EXPECT_EQ(documented, parsed);
}

// Moves every number in `v`'s list off its default, each to its own value.
template <typename T>
void SetLeaves(T* v, int* n) {
  T::ForEachField([&](const char*, auto member, auto...) {
    auto& m = v->*member;
    using M = std::remove_cvref_t<decltype(m)>;
    if constexpr (Listed<M>) {
      SetLeaves(&m, n);
    } else if constexpr (std::is_arithmetic_v<M>) {
      m = static_cast<M>(++*n);
    }
  });
}

// Every metric the report named, and whether it was exact, before it was
// generated from the snapshot list, with every optional plane active.
constexpr std::pair<const char*, bool> kEarlierMetrics[] = {
    {"minor_gcs", true},
    {"full_gcs", true},
    {"cached_mb", true},
    {"swapped_mb", true},
    {"task_retries", true},
    {"injected_faults", true},
    {"executor_wipes", true},
    {"recomputed_blocks", true},
    {"pressure_evictions", true},
    {"oom_recoveries", true},
    {"denied_reservations", true},
    {"exec_pool_peak_bytes", true},
    {"storage_pool_peak_bytes", true},
    {"borrowed_peak_bytes", true},
    {"slowest.pool_peak_bytes", false},
    {"exec_ms", false},
    {"load_ms", false},
    {"gc_ms", false},
    {"concurrent_gc_ms", false},
    {"shuffle_read_ms", false},
    {"shuffle_write_ms", false},
    {"ser_ms", false},
    {"deser_ms", false},
    {"spill_ms", false},
    {"compute_ms", false},
    {"slowest.total_ms", false},
    {"slowest.compute_ms", false},
    {"slowest.gc_ms", false},
    {"slowest.queue_ms", false},
    {"net.wire_bytes", true},
    {"net.payload_bytes", true},
    {"net.messages", true},
    {"net.index_requests", true},
    {"net.slice_requests", true},
    {"net.records_encoded", true},
    {"net.records_decoded", true},
    {"net.fetch_retries", true},
    {"net.injected_fetch_failures", true},
    {"net.flow_stalls", true},
    {"net.virtual_wire_us", true},
    {"net.encode_ms", false},
    {"net.decode_ms", false},
    {"cluster.executors_spawned", true},
    {"cluster.executors_killed", true},
    {"cluster.executors_respawned", true},
    {"cluster.executors_declared_dead", true},
    {"cluster.stage_quarantines", true},
    {"cluster.heartbeats_sent", false},
    {"cluster.heartbeat_misses", false},
    {"cluster.reconnect_probes", false},
    {"cluster.rpc_messages", false},
    {"tier.t0_resident_bytes", true},
    {"tier.t1_resident_bytes", true},
    {"tier.t2_resident_bytes", true},
    {"tier.t1_peak_bytes", true},
    {"tier.t0_hits", true},
    {"tier.t1_hits", true},
    {"tier.t2_hits", true},
    {"tier.misses", true},
    {"tier.demotes_to_t1", true},
    {"tier.demotes_to_t2", true},
    {"tier.promotes", true},
    {"tier.admit_rejects", true},
    {"tier.promote_p50_ms", false},
    {"tier.promote_p99_ms", false},
    {"epoch.epochs_run", true},
    {"epoch.windows", true},
    {"epoch.reclaimed_bytes", true},
    {"epoch.footprint_base_bytes", true},
    {"epoch.footprint_end_bytes", true},
    {"epoch.footprint_peak_bytes", true},
    {"epoch.pause_p50_ms", false},
    {"epoch.pause_p99_ms", false},
    {"epoch.reclaim_p99_ms", false},
    {"pauses.mark_slices", true},
    {"pauses.events", true},
    {"pauses.pause_p50_ms", false},
    {"pauses.pause_p99_ms", false},
    {"pauses.pause_max_ms", false},
    {"pauses.slice_p50_ms", false},
    {"pauses.slice_p99_ms", false},
    {"pauses.slice_max_ms", false},
    {"alloc.allocs", true},
    {"alloc.frees", true},
    {"alloc.bytes_requested", true},
    {"trace.dropped_events", true},
};

// A report of a run whose every snapshot leaf moved off its default has
// one metric per listed leaf, under its path or its spark::kReportNames
// name, exact iff the leaf is integral, and every earlier metric.
TEST(BenchReportTest, EverySnapshotLeafAndEarlierMetricIsReported) {
  workloads::RunResult r;
  int n = 0;
  SetLeaves(&r.totals, &n);
  r.net_active = true;
  r.tier_active = true;
  r.dist_active = true;
  r.epochs_run = 1;
  r.trace = std::make_shared<obs::TraceLog>();
  bench::BenchReport report("config_test", 0, nullptr);
  report.AddRun("run", r);
  ASSERT_EQ(report.report().runs.size(), 1u);
  const obs::ReportRun& run = report.report().runs[0];

  std::set<std::string> names;
  int leaves = 0;
  ForEachLeaf(r.totals, [&](const std::string& path, auto v) {
    ++leaves;
    std::string name = path;
    double unit = 1;
    for (const spark::ReportName& rn : spark::kReportNames) {
      if (path == rn.leaf) {
        name = rn.metric;
        unit = rn.unit;
      }
    }
    names.insert(name);
    const obs::ReportMetric* m = run.Find(name);
    ASSERT_NE(m, nullptr) << path;
    EXPECT_EQ(m->exact, std::is_integral_v<decltype(v)>) << path;
    EXPECT_EQ(m->value, static_cast<double>(v) / unit) << path;
  });
  EXPECT_EQ(leaves, n);
  EXPECT_EQ(names.size(), static_cast<size_t>(leaves)) << "a name twice";

  for (const auto& [name, exact] : kEarlierMetrics) {
    const obs::ReportMetric* m = run.Find(name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_EQ(m->exact, exact) << name;
  }
}

}  // namespace
}  // namespace deca
