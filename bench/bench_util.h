#ifndef DECA_BENCH_BENCH_UTIL_H_
#define DECA_BENCH_BENCH_UTIL_H_

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/table_printer.h"
#include "obs/chrome_trace.h"
#include "obs/run_report.h"
#include "stream/stream_context.h"
#include "workloads/common.h"

namespace deca::bench {

/// DECA_* variables the harness reads itself; with the field list's knobs
/// (spark::ForEachSparkField) they are all that EXPERIMENTS.md documents.
inline constexpr const char* kScaleEnv = "DECA_SCALE";
inline constexpr const char* kStreamEpochsEnv = "DECA_STREAM_EPOCHS";
inline constexpr const char* kStreamWindowEnv = "DECA_STREAM_WINDOW";
inline constexpr const char* kStreamSlideEnv = "DECA_STREAM_SLIDE";
inline constexpr const char* kJsonOutEnv = "DECA_JSON_OUT";
inline constexpr const char* kTraceOutEnv = "DECA_TRACE_OUT";

/// Every DECA_* name a bench accepts; any other one is an error.
inline std::vector<std::string> KnownEnvNames() {
  std::vector<std::string> names = {kScaleEnv,        kStreamEpochsEnv,
                                    kStreamWindowEnv, kStreamSlideEnv,
                                    kJsonOutEnv,      kTraceOutEnv};
  const spark::SparkConfig defaults;
  spark::ForEachSparkField(
      defaults, [&names](const char*, auto env, uint64_t, const auto&) {
        if constexpr (!std::is_null_pointer_v<decltype(env)>) {
          names.emplace_back(env);
        }
      });
  return names;
}

/// Exits with status 2 after naming the offending `NAME=value`.
[[noreturn]] inline void EnvError(const std::string& assignment,
                                  const std::string& why) {
  std::fprintf(stderr, "%s: %s\n", assignment.c_str(), why.c_str());
  std::exit(2);
}

/// Parses `s` as one whole value of `*out`'s type, scaled by `unit`;
/// false, leaving `*out` alone, when it is not one.
template <typename T>
bool ParseKnob(std::string_view s, uint64_t unit, T* out) {
  if constexpr (std::is_same_v<T, std::string>) {
    *out = s;
    return true;
  } else if constexpr (std::is_same_v<T, bool>) {
    if (s != "0" && s != "1") return false;
    *out = s == "1";
    return true;
  } else if constexpr (std::is_enum_v<T>) {
    // EXPERIMENTS.md documents "network" as the loopback transport's alias.
    if (std::is_same_v<T, spark::ShuffleTransport> && s == "network") {
      s = "loopback";
    }
    for (int i = 0;; ++i) {
      const char* name = spark::EnumName(static_cast<T>(i));
      if (std::strcmp(name, "?") == 0) return false;
      if (s == name) {
        *out = static_cast<T>(i);
        return true;
      }
    }
  } else {
    T v{};
    const T scale = static_cast<T>(unit);
    auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc() || end != s.data() + s.size() ||
        v > std::numeric_limits<T>::max() / scale) {
      return false;
    }
    *out = v * scale;
    return true;
  }
}

/// A field's value as its DECA_* knob spells it (the inverse of ParseKnob).
template <typename T>
std::string FormatKnob(const T& v, uint64_t unit) {
  if constexpr (std::is_same_v<T, std::string>) {
    return v;
  } else if constexpr (std::is_same_v<T, bool>) {
    return v ? "1" : "0";
  } else if constexpr (std::is_enum_v<T>) {
    return spark::EnumName(v);
  } else {
    char buf[32];
    auto end = std::to_chars(buf, buf + sizeof(buf), v / static_cast<T>(unit));
    return std::string(buf, end.ptr);
  }
}

/// Rejects any DECA_* variable no bench reads, then sets each field of the
/// list whose knob is set. A value ParseKnob refuses exits naming it.
inline void ApplyEnv(spark::SparkConfig* cfg) {
  const std::vector<std::string> known = KnownEnvNames();
  for (char** e = environ; *e != nullptr; ++e) {
    std::string_view name(*e, std::strcspn(*e, "="));
    if (name.rfind("DECA_", 0) == 0 &&
        std::find(known.begin(), known.end(), name) == known.end()) {
      EnvError(*e, "no such knob (EXPERIMENTS.md lists them)");
    }
  }
  spark::ForEachSparkField(
      *cfg, [](const char* path, auto env, uint64_t unit, auto& v) {
        if constexpr (!std::is_null_pointer_v<decltype(env)>) {
          const char* s = std::getenv(env);
          if (s != nullptr && !ParseKnob(s, unit, &v)) {
            EnvError(std::string(env) + "=" + s,
                     std::string("not a value of ") + path);
          }
        }
      });
}

/// A harness DECA_* integer: `def` when unset. A value that is not a whole
/// int, or is below `min_value`, exits naming the variable.
inline int EnvAtLeast(const char* name, int def, int min_value) {
  const char* s = std::getenv(name);
  int v = def;
  if (s != nullptr && (!ParseKnob(s, 1, &v) || v < min_value)) {
    EnvError(std::string(name) + "=" + s,
             "not an integer >= " + std::to_string(min_value));
  }
  return v;
}

/// Uniform workload down-scale divisor (DECA_SCALE, default 1). CI's
/// bench-smoke job sets it so the figure benches finish in seconds; the
/// committed baselines are generated at the same scale, so deterministic
/// counters still compare exactly.
inline uint64_t Scaled(uint64_t n) {
  static const uint64_t scale =
      static_cast<uint64_t>(EnvAtLeast(kScaleEnv, 1, 1));
  return std::max<uint64_t>(1, n / scale);
}

/// Process-wide "a machine-readable report/trace was requested" flag, set
/// by BenchReport before the first DefaultSpark call so every context the
/// bench creates records trace events.
inline bool& TraceRequested() {
  static bool v = false;
  return v;
}

/// Prints, once per process, one line of DECA_* assignments that
/// reproduces every knob (set or default) behind a bench log's numbers.
inline void PrintConfigOnce(const spark::SparkConfig& cfg) {
  static bool printed = false;
  if (printed) return;
  printed = true;
  std::string line = "config:";
  spark::ForEachSparkField(
      cfg, [&line](const char*, auto env, uint64_t unit, const auto& v) {
        if constexpr (!std::is_null_pointer_v<decltype(env)>) {
          line += std::string(" ") + env + "=" + FormatKnob(v, unit);
        }
      });
  std::printf("%s\n", line.c_str());
}

/// Prints the effective stream plan once per process (the stream benches'
/// companion of the config banner).
inline void PrintEffectiveStreamConfigOnce(const stream::StreamOptions& o) {
  static bool printed = false;
  if (printed) return;
  printed = true;
  std::printf("stream: epochs=%d window=%d slide=%d (%s)\n", o.epochs,
              o.window, o.effective_slide(),
              o.effective_slide() < o.window ? "sliding" : "tumbling");
}

/// Default executor sizing used across the reproduction benches: two
/// executors with 64 MB heaps stand in for the paper's five 30 GB workers
/// (a ~1000x uniform down-scale; all reported effects are ratios), with
/// the DECA_* knobs (EXPERIMENTS.md, "Environment knobs") applied on top.
inline spark::SparkConfig DefaultSpark(size_t heap_mb = 64) {
  spark::SparkConfig cfg;
  cfg.heap.heap_bytes = heap_mb << 20;
  cfg.memory_fraction = 0.75;
  cfg.spill_dir = "/tmp/deca_bench_spill";
  ApplyEnv(&cfg);
  // A report or trace file (BenchReport) turns tracing on too.
  cfg.trace_enabled = cfg.trace_enabled || TraceRequested();
  PrintConfigOnce(cfg);
  return cfg;
}

/// Windowing plan of the stream benches, which DECA_STREAM_EPOCHS,
/// DECA_STREAM_WINDOW and DECA_STREAM_SLIDE override. Scaling note: epochs deliberately do NOT shrink with DECA_SCALE — a
/// steady-state drift measurement needs its epoch count; per-epoch record
/// volume is what Scaled() shrinks.
inline stream::StreamOptions DefaultStreamOptions(int epochs_def,
                                                  int window_def,
                                                  int slide_def = 0) {
  stream::StreamOptions opts;
  opts.epochs = EnvAtLeast(kStreamEpochsEnv, epochs_def, 1);
  opts.window = EnvAtLeast(kStreamWindowEnv, window_def, 1);
  opts.slide = EnvAtLeast(kStreamSlideEnv, slide_def, 0);
  PrintEffectiveStreamConfigOnce(opts);
  return opts;
}

/// Machine-readable run reporting for bench binaries.
///
/// Construct first thing in main (before any DefaultSpark call):
///   BenchReport report("fig11_breakdown", argc, argv);
///   ...
///   report.AddRun("LR-small/Spark", r.run);
///
/// Output targets (either enables tracing for the whole process):
///   --json-out=PATH  / DECA_JSON_OUT=PATH   compact RunReport JSON
///   --trace-out=PATH / DECA_TRACE_OUT=PATH  Chrome trace_event JSON of
///                                           the last added run's trace
/// Files are written in the destructor (i.e. at the end of main).
/// Deterministic counters are marked exact; wall times are not, so
/// report_diff compares them with a relative threshold only.
class BenchReport {
 public:
  BenchReport(const std::string& bench, int argc, char** argv) {
    report_.bench = bench;
    const char* env_json = std::getenv(kJsonOutEnv);
    const char* env_trace = std::getenv(kTraceOutEnv);
    if (env_json != nullptr) json_path_ = env_json;
    if (env_trace != nullptr) trace_path_ = env_trace;
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--json-out=", 0) == 0) {
        json_path_ = arg.substr(std::string("--json-out=").size());
      } else if (arg.rfind("--trace-out=", 0) == 0) {
        trace_path_ = arg.substr(std::string("--trace-out=").size());
      }
    }
    if (!json_path_.empty() || !trace_path_.empty()) TraceRequested() = true;
  }

  ~BenchReport() { Write(); }

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  bool enabled() const { return !json_path_.empty() || !trace_path_.empty(); }

  /// Adds one run to the report. Exact metrics are deterministic counters
  /// and byte peaks; *_ms metrics are wall times.
  void AddRun(const std::string& label, const workloads::RunResult& r) {
    obs::ReportRun run;
    run.label = label;
    auto exact = [&run](const char* name, double v) {
      run.Add(name, v, /*exact=*/true);
    };
    auto time = [&run](const char* name, double v) {
      run.Add(name, v, /*exact=*/false);
    };
    exact("minor_gcs", static_cast<double>(r.minor_gcs));
    exact("full_gcs", static_cast<double>(r.full_gcs));
    exact("cached_mb", r.cached_mb);
    exact("swapped_mb", r.swapped_mb);
    exact("task_retries", static_cast<double>(r.task_retries));
    exact("injected_faults", static_cast<double>(r.injected_faults));
    exact("executor_wipes", static_cast<double>(r.executor_wipes));
    exact("recomputed_blocks", static_cast<double>(r.recomputed_blocks));
    exact("pressure_evictions", static_cast<double>(r.pressure_evictions));
    exact("oom_recoveries", static_cast<double>(r.oom_recoveries));
    exact("denied_reservations", static_cast<double>(r.denied_reservations));
    uint64_t exec_peak = 0;
    uint64_t storage_peak = 0;
    uint64_t borrowed_peak = 0;
    for (const memory::MemoryStats& m : r.executor_memory) {
      exec_peak += m.exec_peak;
      storage_peak += m.storage_peak;
      borrowed_peak += m.borrowed_peak;
    }
    exact("exec_pool_peak_bytes", static_cast<double>(exec_peak));
    exact("storage_pool_peak_bytes", static_cast<double>(storage_peak));
    exact("borrowed_peak_bytes", static_cast<double>(borrowed_peak));
    // The slowest task is selected by wall time, so which task's peak this
    // is varies across machines — threshold-compared, not exact.
    time("slowest.pool_peak_bytes",
         static_cast<double>(r.slowest_task.exec_pool_peak_bytes +
                             r.slowest_task.storage_pool_peak_bytes));
    time("exec_ms", r.exec_ms);
    time("load_ms", r.load_ms);
    time("gc_ms", r.gc_ms);
    time("concurrent_gc_ms", r.concurrent_gc_ms);
    time("shuffle_read_ms", r.shuffle_read_ms);
    time("shuffle_write_ms", r.shuffle_write_ms);
    time("ser_ms", r.ser_ms);
    time("deser_ms", r.deser_ms);
    time("spill_ms", r.spill_ms);
    time("compute_ms", r.compute_ms);
    time("slowest.total_ms", r.slowest_task.total_ms);
    time("slowest.compute_ms", r.slowest_task.compute_ms());
    time("slowest.gc_ms", r.slowest_task.gc_ms);
    time("slowest.queue_ms", r.slowest_task.queue_ms);
    if (r.net_active) {
      // Wire plane, present only under a network shuffle transport. New
      // metrics on the current side are "extra" to report_diff, so these
      // runs still diff cleanly against local-shuffle baselines.
      exact("net.wire_bytes", static_cast<double>(r.net.wire_bytes));
      exact("net.payload_bytes", static_cast<double>(r.net.payload_bytes));
      exact("net.messages", static_cast<double>(r.net.messages));
      exact("net.index_requests", static_cast<double>(r.net.index_requests));
      exact("net.slice_requests", static_cast<double>(r.net.slice_requests));
      exact("net.records_encoded",
            static_cast<double>(r.net.records_encoded));
      exact("net.records_decoded",
            static_cast<double>(r.net.records_decoded));
      exact("net.fetch_retries", static_cast<double>(r.net.fetch_retries));
      exact("net.injected_fetch_failures",
            static_cast<double>(r.net.injected_fetch_failures));
      exact("net.flow_stalls", static_cast<double>(r.net.flow_stalls));
      exact("net.virtual_wire_us",
            static_cast<double>(r.net.virtual_wire_us));
      time("net.encode_ms", r.net.encode_ms);
      time("net.decode_ms", r.net.decode_ms);
    }
    if (r.dist_active) {
      // Control plane, present only under DECA_DIST_MODE=process. Spawn /
      // kill / respawn / death / quarantine counts are deterministic for a
      // given fault seed; heartbeat, probe and RPC-message counts are
      // wall-clock paced, so they diff with a threshold only.
      exact("cluster.executors_spawned",
            static_cast<double>(r.cluster.executors_spawned));
      exact("cluster.executors_killed",
            static_cast<double>(r.cluster.executors_killed));
      exact("cluster.executors_respawned",
            static_cast<double>(r.cluster.executors_respawned));
      exact("cluster.executors_declared_dead",
            static_cast<double>(r.cluster.executors_declared_dead));
      exact("cluster.stage_quarantines",
            static_cast<double>(r.cluster.stage_quarantines));
      time("cluster.heartbeats_sent",
           static_cast<double>(r.cluster.heartbeats_sent));
      time("cluster.heartbeat_misses",
           static_cast<double>(r.cluster.heartbeat_misses));
      time("cluster.reconnect_probes",
           static_cast<double>(r.cluster.reconnect_probes));
      time("cluster.rpc_messages",
           static_cast<double>(r.cluster.rpc_messages));
    }
    if (r.tier_active) {
      // Storage-tier plane, present only when DECA_STORAGE_TIER=3 enabled
      // the serialized off-heap tier: one tier.<member> metric per listed
      // TierCounters member. The resident/hit/transition counters are
      // deterministic; the double entries (promote percentiles) are wall
      // times.
      spark::TierCounters::ForEachField([&](const char* name, auto member,
                                            Fold) {
        const std::string key = std::string("tier.") + name;
        const auto v = r.tier.*member;
        if constexpr (std::is_floating_point_v<decltype(v)>) {
          time(key.c_str(), v);
        } else {
          exact(key.c_str(), static_cast<double>(v));
        }
      });
    }
    if (r.epochs_run > 0) {
      // Streaming plane. Like net.*, these are "extra" against batch
      // baselines.
      exact("epoch.epochs_run", static_cast<double>(r.epochs_run));
      exact("epoch.windows", static_cast<double>(r.windows_emitted));
      exact("epoch.reclaimed_bytes",
            static_cast<double>(r.epoch_reclaimed_bytes));
      exact("epoch.footprint_base_bytes",
            static_cast<double>(r.footprint_base_bytes));
      exact("epoch.footprint_end_bytes",
            static_cast<double>(r.footprint_end_bytes));
      exact("epoch.footprint_peak_bytes",
            static_cast<double>(r.footprint_peak_bytes));
      time("epoch.pause_p50_ms", r.epoch_pause_p50_ms);
      time("epoch.pause_p99_ms", r.epoch_pause_p99_ms);
      time("epoch.reclaim_p99_ms", r.epoch_reclaim_p99_ms);
    }
    if (r.pauses.pause_events > 0 || r.pauses.mark_slices > 0) {
      // GC pause plane. mark_slices/events are deterministic at the
      // default DECA_PAUSE_BUDGET_MS=0 (one slice per monolithic mark);
      // budgeted runs must be gated with report_diff --slo assertions
      // rather than baseline diffs, since their slice counts are
      // timing-dependent.
      exact("pauses.mark_slices",
            static_cast<double>(r.pauses.mark_slices));
      exact("pauses.events", static_cast<double>(r.pauses.pause_events));
      time("pauses.pause_p50_ms", r.pauses.pause_p50_ms);
      time("pauses.pause_p99_ms", r.pauses.pause_p99_ms);
      time("pauses.pause_max_ms", r.pauses.pause_max_ms);
      time("pauses.slice_p50_ms", r.pauses.slice_p50_ms);
      time("pauses.slice_p99_ms", r.pauses.slice_p99_ms);
      time("pauses.slice_max_ms", r.pauses.slice_max_ms);
    }
    if (r.alloc_active) {
      // Native-buffer counters: deterministic, so exact.
      exact("alloc.allocs", static_cast<double>(r.alloc.alloc_calls));
      exact("alloc.frees", static_cast<double>(r.alloc.free_calls));
      exact("alloc.bytes_requested",
            static_cast<double>(r.alloc.bytes_requested));
    }
    if (r.trace != nullptr) {
      exact("trace.dropped_events",
            static_cast<double>(r.trace->dropped_events));
      run.spans = r.trace->Aggregate();
      last_trace_ = r.trace;
    }
    report_.runs.push_back(std::move(run));
  }

  /// Appends one extra metric to the most recently added run — for
  /// workload-specific values the RunResult doesn't carry (e.g. a stream
  /// or query digest). No-op before the first AddRun.
  void AddMetric(const char* name, double value, bool exact) {
    if (!report_.runs.empty()) report_.runs.back().Add(name, value, exact);
  }

 private:
  void Write() {
    if (!json_path_.empty()) {
      std::string err;
      if (!obs::Validate(report_, &err)) {
        std::fprintf(stderr, "bench report invalid, not written: %s\n",
                     err.c_str());
      } else if (!WriteTextFile(json_path_, obs::ToJson(report_))) {
        std::fprintf(stderr, "cannot write report to %s\n",
                     json_path_.c_str());
      } else {
        std::printf("run report: %s\n", json_path_.c_str());
      }
    }
    if (!trace_path_.empty() && last_trace_ != nullptr) {
      std::string err;
      if (!obs::WriteChromeTrace(*last_trace_, trace_path_, &err)) {
        std::fprintf(stderr, "cannot write trace: %s\n", err.c_str());
      } else {
        std::printf("chrome trace (last run): %s\n", trace_path_.c_str());
      }
    }
  }

  static bool WriteTextFile(const std::string& path,
                            const std::string& content) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    size_t written = std::fwrite(content.data(), 1, content.size(), f);
    bool ok = written == content.size();
    return std::fclose(f) == 0 && ok;
  }

  obs::RunReport report_;
  std::string json_path_;
  std::string trace_path_;
  std::shared_ptr<obs::TraceLog> last_trace_;
};

/// Accumulates the fault-tolerance counters across a bench's runs and
/// prints a summary table — only when something actually fired, so
/// fault-free bench output is byte-identical to before.
struct FaultTotals {
  uint64_t task_retries = 0;
  uint64_t injected_faults = 0;
  uint64_t executor_wipes = 0;
  uint64_t recomputed_blocks = 0;
  uint64_t pressure_evictions = 0;
  uint64_t oom_recoveries = 0;

  void Add(const workloads::RunResult& r) {
    task_retries += r.task_retries;
    injected_faults += r.injected_faults;
    executor_wipes += r.executor_wipes;
    recomputed_blocks += r.recomputed_blocks;
    pressure_evictions += r.pressure_evictions;
    oom_recoveries += r.oom_recoveries;
  }
  bool any() const {
    return task_retries + injected_faults + executor_wipes +
               recomputed_blocks + pressure_evictions + oom_recoveries >
           0;
  }
  void PrintIfAny() const {
    if (!any()) return;
    std::printf("\nFault tolerance (injection active):\n");
    TablePrinter t({"retries", "injected", "wipes", "recomputed",
                    "evictions", "oom rescues"});
    t.AddRow({std::to_string(task_retries), std::to_string(injected_faults),
              std::to_string(executor_wipes),
              std::to_string(recomputed_blocks),
              std::to_string(pressure_evictions),
              std::to_string(oom_recoveries)});
    t.Print();
  }
};

/// Prints one row per executor from a run's memory-manager snapshots:
/// budget, pool peaks, borrowing high-water mark and denied reservations.
inline void PrintExecutorMemory(const workloads::RunResult& r) {
  if (r.executor_memory.empty()) return;
  std::printf("\nPer-executor memory (%s):\n", workloads::ModeName(r.mode));
  TablePrinter t({"exec", "budget(MB)", "heap(MB)", "exec peak(MB)",
                  "storage peak(MB)", "borrowed(MB)", "denied"});
  const double mb = 1 << 20;
  for (size_t i = 0; i < r.executor_memory.size(); ++i) {
    const memory::MemoryStats& m = r.executor_memory[i];
    t.AddRow({std::to_string(i),
              TablePrinter::Num(static_cast<double>(m.total_bytes) / mb, 1),
              TablePrinter::Num(static_cast<double>(m.heap_capacity) / mb, 1),
              TablePrinter::Num(static_cast<double>(m.exec_peak) / mb, 1),
              TablePrinter::Num(static_cast<double>(m.storage_peak) / mb, 1),
              TablePrinter::Num(static_cast<double>(m.borrowed_peak) / mb, 1),
              std::to_string(m.denied_reservations)});
  }
  t.Print();
}

inline void PrintHeader(const std::string& title, const std::string& paper_ref,
                        const std::string& notes) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  if (!notes.empty()) std::printf("%s\n", notes.c_str());
  std::printf("================================================================\n");
}

inline std::string Ms(double v) { return TablePrinter::Num(v, 1); }
inline std::string Mb(double v) { return TablePrinter::Num(v, 1); }
inline std::string Pct(double v) { return TablePrinter::Num(v, 1) + "%"; }
inline std::string Speedup(double base, double v) {
  return TablePrinter::Num(base / v, 2) + "x";
}

/// Emits a (time, value) series as compact table rows, downsampled to at
/// most `max_rows` points.
inline void PrintSeries(const std::string& name, const TimeSeries& ts,
                        int max_rows = 16) {
  std::printf("%s (%zu samples):\n", name.c_str(), ts.size());
  if (ts.size() == 0) return;
  size_t step = ts.size() <= static_cast<size_t>(max_rows)
                    ? 1
                    : ts.size() / static_cast<size_t>(max_rows);
  TablePrinter t({"t(ms)", "value"});
  for (size_t i = 0; i < ts.size(); i += step) {
    t.AddRow({TablePrinter::Num(ts.times_ms[i], 0),
              TablePrinter::Num(ts.values[i], 0)});
  }
  t.Print();
}

}  // namespace deca::bench

#endif  // DECA_BENCH_BENCH_UTIL_H_
