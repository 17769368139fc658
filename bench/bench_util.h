#ifndef DECA_BENCH_BENCH_UTIL_H_
#define DECA_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/table_printer.h"
#include "obs/chrome_trace.h"
#include "obs/run_report.h"
#include "stream/stream_context.h"
#include "workloads/common.h"

namespace deca::bench {

/// Typed DECA_* environment lookups — the one place bench knobs are
/// parsed. Each returns `def` when the variable is unset (or, for the
/// numeric guards, unparsable/non-positive where noted).
inline int EnvInt(const char* name, int def, int min_value = 1) {
  const char* e = std::getenv(name);
  if (e == nullptr) return def;
  int n = std::atoi(e);
  return n >= min_value ? n : def;
}
inline double EnvDouble(const char* name, double def) {
  const char* e = std::getenv(name);
  return e != nullptr ? std::atof(e) : def;
}
inline uint64_t EnvU64(const char* name, uint64_t def) {
  const char* e = std::getenv(name);
  return e != nullptr ? std::strtoull(e, nullptr, 10) : def;
}
inline std::string EnvStr(const char* name, const std::string& def) {
  const char* e = std::getenv(name);
  return e != nullptr ? std::string(e) : def;
}

/// Uniform workload down-scale divisor (DECA_SCALE, default 1). CI's
/// bench-smoke job sets it so the figure benches finish in seconds; the
/// committed baselines are generated at the same scale, so deterministic
/// counters still compare exactly.
inline uint64_t Scaled(uint64_t n) {
  static const uint64_t scale =
      static_cast<uint64_t>(EnvInt("DECA_SCALE", 1));
  return std::max<uint64_t>(1, n / scale);
}

/// Process-wide "a machine-readable report/trace was requested" flag, set
/// by BenchReport before the first DefaultSpark call so every context the
/// bench creates records trace events.
inline bool& TraceRequested() {
  static bool v = false;
  return v;
}

/// Prints the effective engine configuration once per process, so a bench
/// log always records which knobs (env or default) produced its numbers.
inline void PrintEffectiveConfigOnce(const spark::SparkConfig& cfg) {
  static bool printed = false;
  if (printed) return;
  printed = true;
  std::printf(
      "config: executors=%d threads=%d heap=%zuMB executor_memory=%zuMB "
      "storage_fraction=%.2f page=%uKB transport=%s dist=%s\n",
      cfg.num_executors, cfg.num_worker_threads, cfg.heap.heap_bytes >> 20,
      cfg.executor_memory() >> 20, cfg.storage_fraction,
      cfg.deca_page_bytes >> 10,
      spark::ShuffleTransportName(cfg.shuffle_transport),
      spark::DistModeName(cfg.dist_mode));
  if (cfg.dist_mode == spark::DistMode::kProcess) {
    std::printf(
        "cluster: heartbeat=%dms miss_threshold=%d probes=%d "
        "backoff=%dms rpc_deadline=%dms\n",
        cfg.cluster.heartbeat_interval_ms, cfg.cluster.heartbeat_miss_threshold,
        cfg.cluster.reconnect_probes, cfg.cluster.retry_backoff_base_ms,
        cfg.cluster.rpc_deadline_ms);
  }
  if (cfg.t1_enabled()) {
    std::printf("tiers: storage_tiers=%d t1_fraction=%.2f admit=%s\n",
                cfg.storage_tiers, cfg.t1_fraction,
                spark::AdmitPolicyName(cfg.admit_policy));
  }
  if (cfg.heap.pause_budget_ms > 0 ||
      cfg.lifetime_source != spark::LifetimeSource::kStatic) {
    std::printf("gc: pause_budget=%.2fms lifetime_source=%s\n",
                cfg.heap.pause_budget_ms,
                spark::LifetimeSourceName(cfg.lifetime_source));
  }
}

/// Prints the effective stream plan once per process (effective-config
/// banner companion of PrintEffectiveConfigOnce).
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
/// (a ~1000x uniform down-scale; all reported effects are ratios).
///
/// Environment overrides (results stay bit-identical across both):
///   DECA_EXECUTORS=N        executor count (default 2)
///   DECA_HEAP_MB=MB         per-executor simulated heap (default: the
///                           bench's own sizing, usually 64) — shrink it
///                           to force GC activity at CI scales, e.g. for
///                           the pause-budget SLO leg
///   DECA_WORKER_THREADS=N   parallel runtime threads (default 0 =
///                           sequential driver loop)
///   DECA_EXECUTOR_MEMORY=MB unified per-executor memory budget
///                           (default 0 = heap * memory_fraction)
///   DECA_STORAGE_FRACTION=F storage-pool floor share of the budget
///                           (default 0.5)
///
/// Deterministic fault injection (default off; numbers are unchanged and
/// no retry counters increment unless one of these is set):
///   DECA_FAULT_SEED=N        injection seed (default 1)
///   DECA_FAULT_TASK_PROB=P   per-attempt injected task-failure probability
///   DECA_FAULT_FETCH_PROB=P  per-attempt shuffle-fetch failure probability
///   DECA_FAULT_OOM_PROB=P    per-attempt forced allocation-failure prob.
///   DECA_CRASH_WIPE_STAGE=N / DECA_CRASH_WIPE_EXECUTOR=E
///                            crash-wipe executor E before stage N
///
/// Shuffle transport seam (src/net; results are bit-identical to local):
///   DECA_SHUFFLE_TRANSPORT=local|network|loopback|tcp
///                            "network" is an alias for "loopback", the
///                            deterministic in-process wire (default local)
///   DECA_NET_LATENCY_US=N    simulated per-message latency, virtual time
///   DECA_NET_BANDWIDTH_MBPS=N simulated wire bandwidth (0 = infinite)
///
/// Distributed control plane (src/cluster; digests, GC counts and fault
/// counters are bit-identical to the in-process run):
///   DECA_DIST_MODE=local|process
///                            "process" spawns one deca_executord daemon
///                            per executor and drives stages over RPC
///   DECA_HEARTBEAT_MS=N      driver liveness ping period (default 100)
///   DECA_HEARTBEAT_MISSES=N  consecutive misses before reconnect probing
///   DECA_RPC_DEADLINE_MS=N   control RPC response deadline
///   DECA_RETRY_BACKOFF_MS=N  base of the exponential probe/retry backoff
///   DECA_EXECUTORD=PATH      daemon binary (default: next to the bench)
///
/// Tiered block store (src/spark/block_store; with the default of 2 the
/// legacy heap <-> disk store runs bit-identically):
///   DECA_STORAGE_TIER=2|3    3 enables the serialized off-heap tier (T1)
///                            between heap blocks (T0) and disk (T2)
///   DECA_T1_FRACTION=F       T1 residency cap as a share of the unified
///                            executor budget (default 0.5)
///   DECA_ADMIT_POLICY=always|second_access|never
///                            re-admission policy for Gets served from
///                            T1/T2 (default second_access)
///
/// Incremental marking & online lifetime profiling (src/jvm; the defaults
/// keep the historical monolithic mark phases bit-identical):
///   DECA_PAUSE_BUDGET_MS=MS  split STW mark phases into resumable slices
///                            of at most MS milliseconds (0 = monolithic);
///                            workload digests are unchanged either way
///   DECA_LIFETIME_SOURCE=static|profiled|oracle
///                            source of the size/lifetime classification
///                            gating the Deca path (default static; the
///                            profiled/oracle verdicts are cross-checked
///                            against static, so results are identical)
///   DECA_PROFILE_SAMPLE_BYTES=N
///                            profiled-calibration sampling period in
///                            allocated bytes (default 512)
///   DECA_PROFILE_SEED=N      profiler sampling seed (default 1)
inline spark::SparkConfig DefaultSpark(size_t heap_mb = 64) {
  spark::SparkConfig cfg;
  cfg.partitions_per_executor = 2;
  cfg.num_executors = EnvInt("DECA_EXECUTORS", 2);
  cfg.num_worker_threads = EnvInt("DECA_WORKER_THREADS", 0);
  cfg.fault.seed = EnvU64("DECA_FAULT_SEED", cfg.fault.seed);
  cfg.fault.task_failure_prob =
      EnvDouble("DECA_FAULT_TASK_PROB", cfg.fault.task_failure_prob);
  cfg.fault.fetch_failure_prob =
      EnvDouble("DECA_FAULT_FETCH_PROB", cfg.fault.fetch_failure_prob);
  cfg.fault.oom_failure_prob =
      EnvDouble("DECA_FAULT_OOM_PROB", cfg.fault.oom_failure_prob);
  cfg.fault.crash_wipe_stage =
      EnvInt("DECA_CRASH_WIPE_STAGE", cfg.fault.crash_wipe_stage, INT32_MIN);
  cfg.fault.crash_wipe_executor = EnvInt("DECA_CRASH_WIPE_EXECUTOR",
                                         cfg.fault.crash_wipe_executor,
                                         INT32_MIN);
  cfg.heap.heap_bytes =
      static_cast<size_t>(EnvU64("DECA_HEAP_MB", heap_mb)) << 20;
  cfg.memory_fraction = 0.75;
  cfg.executor_memory_bytes =
      static_cast<size_t>(EnvU64("DECA_EXECUTOR_MEMORY", 0)) << 20;
  cfg.storage_fraction =
      EnvDouble("DECA_STORAGE_FRACTION", cfg.storage_fraction);
  std::string transport = EnvStr("DECA_SHUFFLE_TRANSPORT", "local");
  if (transport == "network" || transport == "loopback") {
    cfg.shuffle_transport = spark::ShuffleTransport::kLoopback;
  } else if (transport == "tcp") {
    cfg.shuffle_transport = spark::ShuffleTransport::kTcp;
  } else if (transport != "local") {
    std::fprintf(stderr,
                 "unknown DECA_SHUFFLE_TRANSPORT '%s', using local\n",
                 transport.c_str());
  }
  cfg.net_latency_us = EnvU64("DECA_NET_LATENCY_US", cfg.net_latency_us);
  cfg.net_bandwidth_mbps =
      EnvU64("DECA_NET_BANDWIDTH_MBPS", cfg.net_bandwidth_mbps);
  std::string dist = EnvStr("DECA_DIST_MODE", "local");
  if (dist == "process") {
    cfg.dist_mode = spark::DistMode::kProcess;
  } else if (dist != "local" && dist != "inprocess") {
    std::fprintf(stderr, "unknown DECA_DIST_MODE '%s', using local\n",
                 dist.c_str());
  }
  cfg.cluster.heartbeat_interval_ms =
      EnvInt("DECA_HEARTBEAT_MS", cfg.cluster.heartbeat_interval_ms);
  cfg.cluster.heartbeat_miss_threshold =
      EnvInt("DECA_HEARTBEAT_MISSES", cfg.cluster.heartbeat_miss_threshold);
  cfg.cluster.rpc_deadline_ms =
      EnvInt("DECA_RPC_DEADLINE_MS", cfg.cluster.rpc_deadline_ms);
  cfg.cluster.retry_backoff_base_ms =
      EnvInt("DECA_RETRY_BACKOFF_MS", cfg.cluster.retry_backoff_base_ms);
  cfg.cluster.executord_path =
      EnvStr("DECA_EXECUTORD", cfg.cluster.executord_path);
  cfg.storage_tiers = EnvInt("DECA_STORAGE_TIER", cfg.storage_tiers);
  cfg.t1_fraction = EnvDouble("DECA_T1_FRACTION", cfg.t1_fraction);
  std::string admit = EnvStr("DECA_ADMIT_POLICY", "second_access");
  if (admit == "always") {
    cfg.admit_policy = spark::AdmitPolicy::kAlways;
  } else if (admit == "never") {
    cfg.admit_policy = spark::AdmitPolicy::kNever;
  } else if (admit != "second_access") {
    std::fprintf(stderr,
                 "unknown DECA_ADMIT_POLICY '%s', using second_access\n",
                 admit.c_str());
  }
  cfg.heap.pause_budget_ms =
      EnvDouble("DECA_PAUSE_BUDGET_MS", cfg.heap.pause_budget_ms);
  cfg.heap.profile_sample_bytes = static_cast<size_t>(
      EnvU64("DECA_PROFILE_SAMPLE_BYTES", cfg.heap.profile_sample_bytes));
  cfg.heap.profile_seed = EnvU64("DECA_PROFILE_SEED", cfg.heap.profile_seed);
  std::string lifetime = EnvStr("DECA_LIFETIME_SOURCE", "static");
  if (lifetime == "profiled") {
    cfg.lifetime_source = spark::LifetimeSource::kProfiled;
  } else if (lifetime == "oracle") {
    cfg.lifetime_source = spark::LifetimeSource::kOracle;
  } else if (lifetime != "static") {
    std::fprintf(stderr,
                 "unknown DECA_LIFETIME_SOURCE '%s', using static\n",
                 lifetime.c_str());
  }
  cfg.spill_dir = "/tmp/deca_bench_spill";
  // Structured tracing: on when a report/trace file was requested
  // (BenchReport) or forced via DECA_TRACE=1. Off by default — the task
  // hot path then costs one thread-local load per hook.
  cfg.trace_enabled = TraceRequested() || EnvInt("DECA_TRACE", 0, 1) > 0;
  cfg.trace_ring_capacity =
      static_cast<uint32_t>(EnvU64("DECA_TRACE_RING", 1u << 15));
  PrintEffectiveConfigOnce(cfg);
  return cfg;
}

/// Windowing plan of the stream benches, with environment overrides:
///   DECA_STREAM_EPOCHS=N  epochs to run (default per bench)
///   DECA_STREAM_WINDOW=N  epochs per window
///   DECA_STREAM_SLIDE=N   window start stride (0 = tumbling)
/// Scaling note: epochs deliberately do NOT shrink with DECA_SCALE — a
/// steady-state drift measurement needs its epoch count; per-epoch record
/// volume is what Scaled() shrinks.
inline stream::StreamOptions DefaultStreamOptions(int epochs_def,
                                                  int window_def,
                                                  int slide_def = 0) {
  stream::StreamOptions opts;
  opts.epochs = EnvInt("DECA_STREAM_EPOCHS", epochs_def);
  opts.window = EnvInt("DECA_STREAM_WINDOW", window_def);
  opts.slide = EnvInt("DECA_STREAM_SLIDE", slide_def, /*min_value=*/0);
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
    const char* env_json = std::getenv("DECA_JSON_OUT");
    const char* env_trace = std::getenv("DECA_TRACE_OUT");
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
      // Storage-tier plane (schema v3), present only when
      // DECA_STORAGE_TIER=3 enabled the serialized off-heap tier. The
      // resident/hit/demote counters are deterministic; promote
      // percentiles are wall times.
      run.tier.present = true;
      run.tier.t0_resident_bytes = r.tier.t0_resident_bytes;
      run.tier.t1_resident_bytes = r.tier.t1_resident_bytes;
      run.tier.t2_resident_bytes = r.tier.t2_resident_bytes;
      run.tier.t1_peak_bytes = r.tier.t1_peak_bytes;
      run.tier.t0_hits = r.tier.t0_hits;
      run.tier.t1_hits = r.tier.t1_hits;
      run.tier.t2_hits = r.tier.t2_hits;
      run.tier.misses = r.tier.misses;
      run.tier.demotes_to_t1 = r.tier.demotes_to_t1;
      run.tier.demotes_to_t2 = r.tier.demotes_to_t2;
      run.tier.promotes = r.tier.promotes;
      run.tier.admit_rejects = r.tier.admit_rejects;
      run.tier.promote_p50_ms = r.tier.promote_p50_ms;
      run.tier.promote_p99_ms = r.tier.promote_p99_ms;
      exact("tier.t1_peak_bytes", static_cast<double>(r.tier.t1_peak_bytes));
      exact("tier.t0_hits", static_cast<double>(r.tier.t0_hits));
      exact("tier.t1_hits", static_cast<double>(r.tier.t1_hits));
      exact("tier.t2_hits", static_cast<double>(r.tier.t2_hits));
      exact("tier.misses", static_cast<double>(r.tier.misses));
      exact("tier.demotes_to_t1",
            static_cast<double>(r.tier.demotes_to_t1));
      exact("tier.demotes_to_t2",
            static_cast<double>(r.tier.demotes_to_t2));
      exact("tier.promotes", static_cast<double>(r.tier.promotes));
      exact("tier.admit_rejects",
            static_cast<double>(r.tier.admit_rejects));
      time("tier.promote_p50_ms", r.tier.promote_p50_ms);
      time("tier.promote_p99_ms", r.tier.promote_p99_ms);
    }
    if (r.epochs_run > 0) {
      // Streaming plane (schema v2): typed epoch aggregate plus flat
      // metrics. Like net.*, these are "extra" against batch baselines.
      run.epochs.present = true;
      run.epochs.epochs_run = r.epochs_run;
      run.epochs.windows = r.windows_emitted;
      run.epochs.reclaimed_bytes = r.epoch_reclaimed_bytes;
      run.epochs.pause_p50_ms = r.epoch_pause_p50_ms;
      run.epochs.pause_p99_ms = r.epoch_pause_p99_ms;
      run.epochs.reclaim_p99_ms = r.epoch_reclaim_p99_ms;
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
      // GC pause plane (schema v4): typed aggregate plus flat metrics.
      // mark_slices/pause_events are deterministic at the default
      // DECA_PAUSE_BUDGET_MS=0 (one slice per monolithic mark); budgeted
      // runs must be gated with report_diff --slo assertions rather than
      // baseline diffs, since their slice counts are timing-dependent.
      run.pauses.present = true;
      run.pauses.mark_slices = r.pauses.mark_slices;
      run.pauses.pause_events = r.pauses.pause_events;
      run.pauses.pause_p50_ms = r.pauses.pause_p50_ms;
      run.pauses.pause_p99_ms = r.pauses.pause_p99_ms;
      run.pauses.pause_max_ms = r.pauses.pause_max_ms;
      run.pauses.slice_p50_ms = r.pauses.slice_p50_ms;
      run.pauses.slice_p99_ms = r.pauses.slice_p99_ms;
      run.pauses.slice_max_ms = r.pauses.slice_max_ms;
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
      // Native-buffer counters (schema v5): deterministic, so exact.
      run.alloc.present = true;
      run.alloc.alloc_calls = r.alloc.alloc_calls;
      run.alloc.free_calls = r.alloc.free_calls;
      run.alloc.bytes_requested = r.alloc.bytes_requested;
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
  /// workload-specific values the RunResult doesn't carry (e.g. sustained
  /// streaming throughput). No-op before the first AddRun.
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
