#ifndef DECA_SPARK_DIST_H_
#define DECA_SPARK_DIST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "alloc/arena.h"
#include "common/field_codec.h"
#include "exec/remote_task.h"
#include "memory/memory_manager.h"
#include "spark/metrics.h"

namespace deca::net {
class Transport;
struct NetStats;
}  // namespace deca::net

namespace deca::spark {

/// Where the engine runs: all executors in this process (the default,
/// deterministic-test backend) or one daemon process per executor with
/// the driver dispatching stages over the control-plane RPC protocol.
/// Results, GC counts, and fault counters are bit-identical across both.
enum class DistMode {
  kInProcess,
  kProcess,
};

const char* EnumName(DistMode m);

/// This process's role in the SPMD program. C++ closures cannot ship
/// over RPC, so every process runs the same workload program: the driver
/// turns each stage into remote dispatch, a worker turns it into a serve
/// loop executing the driver's task envelopes, and between stages every
/// process folds the same broadcast collect blobs so driver-side state
/// (e.g. LR weights) advances in lockstep everywhere.
enum class DistRole {
  kLocal,   // in-process: stages run right here
  kDriver,  // dispatches task envelopes to executor daemons
  kWorker,  // one daemon hosting one executor, serving the driver
};

/// Control-plane tuning. Defaults favor fast tests; benches raise the
/// heartbeat interval via DECA_HEARTBEAT_MS etc.
struct ClusterKnobs {
  /// Liveness ping period (driver monitor thread).
  int heartbeat_interval_ms = 100;
  /// Consecutive missed heartbeats before reconnect probing starts.
  int heartbeat_miss_threshold = 3;
  /// Exponential-backoff reconnect probes before declaring death.
  int reconnect_probes = 3;
  /// Base of the exponential retry/probe backoff.
  int retry_backoff_base_ms = 20;
  /// Control RPC response deadline (dispatch + stage barriers).
  int rpc_deadline_ms = 20000;
  /// Connect retries toward a daemon that is still binding its port.
  int connect_attempts = 25;
  /// Executor daemon binary; empty = DECA_EXECUTORD env, then a path
  /// derived from the running binary's directory.
  std::string executord_path;

  /// Test hook: the driver monitor pretends this executor's next
  /// `test_suppress_heartbeats_count` pings were lost (never sent), so
  /// the miss -> probe path runs against a perfectly healthy daemon. Only
  /// the driver reads it, so it stays off the job-spec wire.
  int test_suppress_heartbeats_executor = -1;
  int test_suppress_heartbeats_count = 0;
};

/// Control-plane event counters, surfaced in RunReports as cluster.*.
/// Spawn/kill/respawn/dead/quarantine counts are deterministic for a
/// given seed; heartbeat and probe counts are wall-clock paced.
struct ClusterCounters {
  uint64_t executors_spawned = 0;
  uint64_t executors_killed = 0;
  uint64_t executors_respawned = 0;
  uint64_t executors_declared_dead = 0;
  uint64_t heartbeats_sent = 0;
  uint64_t heartbeat_misses = 0;
  uint64_t reconnect_probes = 0;
  uint64_t stage_quarantines = 0;
  uint64_t rpc_messages = 0;
};

/// GC pause plane of one heap, or of a job (SparkContext::TotalGcPauses):
/// mark-slice count, stop-the-world pause events, and pause/slice latency
/// percentiles. Across executors the counters sum and the percentiles
/// compose by max.
struct GcPauseSummary {
  uint64_t mark_slices = 0;
  uint64_t pause_events = 0;
  double pause_p50_ms = 0;
  double pause_p99_ms = 0;
  double pause_max_ms = 0;
  double slice_p50_ms = 0;
  double slice_p99_ms = 0;
  double slice_max_ms = 0;

  template <typename F>
  static constexpr void ForEachField(F&& f) {
    using Self = GcPauseSummary;
    DECA_SUM(mark_slices);
    DECA_SUM(pause_events);
    DECA_MAX(pause_p50_ms);
    DECA_MAX(pause_p99_ms);
    DECA_MAX(pause_max_ms);
    DECA_MAX(slice_p50_ms);
    DECA_MAX(slice_p99_ms);
    DECA_MAX(slice_max_ms);
  }

  void Add(const GcPauseSummary& o) { FoldFields(this, o); }
};

/// One executor's observability plane, reported by its daemon in every
/// stage-done acknowledgment. The driver serves the SparkContext Total*
/// getters from the latest snapshots, so bench/report output is
/// identical to the in-process run (each daemon reports only its own
/// executor; the sum across daemons equals the in-process sum).
struct ExecutorSnapshot {
  double gc_pause_ms = 0;
  double concurrent_gc_ms = 0;
  uint64_t minor_gcs = 0;
  uint64_t full_gcs = 0;
  uint64_t oom_recoveries = 0;
  uint64_t cached_bytes = 0;
  uint64_t peak_cached_bytes = 0;
  uint64_t swapped_bytes = 0;
  uint64_t pressure_evictions = 0;
  /// Block-store tier plane (per-tier residency, hits, transitions).
  TierCounters tier;
  memory::MemoryStats memory;
  /// This executor's heap's pause plane.
  GcPauseSummary pauses;
  /// This executor's native-buffer counters.
  alloc::AllocStats alloc;
  /// Local shuffle-payload bytes per shuffle id (this executor's
  /// deposits only; the driver sums across executors).
  std::vector<uint64_t> shuffle_bytes;

  template <typename F>
  static constexpr void ForEachField(F&& f) {
    using Self = ExecutorSnapshot;
    DECA_WIRE(gc_pause_ms);
    DECA_WIRE(concurrent_gc_ms);
    DECA_WIRE(minor_gcs);
    DECA_WIRE(full_gcs);
    DECA_WIRE(oom_recoveries);
    DECA_WIRE(cached_bytes);
    DECA_WIRE(peak_cached_bytes);
    DECA_WIRE(swapped_bytes);
    DECA_WIRE(pressure_evictions);
    DECA_WIRE(tier);
    DECA_WIRE(memory);
    DECA_WIRE(pauses);
    DECA_WIRE(alloc);
    DECA_WIRE(shuffle_bytes);
  }
};

// Tripwires: a new member breaks its struct's binding until it is listed.
inline void CheckSnapshotLists(GcPauseSummary& p, ExecutorSnapshot& s) {
  [[maybe_unused]] auto& [p0, p1, p2, p3, p4, p5, p6, p7] = p;
  static_assert(FieldCount<GcPauseSummary>() == 8);
  [[maybe_unused]] auto& [s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11,
                          s12, s13] = s;
  static_assert(FieldCount<ExecutorSnapshot>() == 14);
}

/// Driver-side cluster seam the SparkContext dispatches through in
/// kDriver role. Implemented by cluster::ClusterManager; an interface so
/// spark does not depend on the cluster library (workloads wire it up).
class DistDriver {
 public:
  virtual ~DistDriver() = default;

  /// Executes one task attempt (or lineage replay) on `executor`'s
  /// daemon. Blocks until the outcome arrives. Throws
  /// fault::ExecutorLostError if the daemon died or stopped answering —
  /// the envelope is never resent (LaunchTask is not idempotent).
  virtual exec::RemoteTaskOutcome RunTask(
      int executor, const exec::RemoteTaskEnvelope& env) = 0;

  /// Stage barrier: broadcasts StageDone(stage, blobs) to every daemon
  /// (workers leave their serve loops and fold the same collect blobs),
  /// appends the entry to the program log used to fast-forward respawned
  /// daemons, and returns each executor's stats snapshot.
  virtual std::vector<ExecutorSnapshot> StageDone(
      int stage, const std::vector<std::vector<uint8_t>>& blobs) = 0;

  /// Delivers SIGKILL to `executor`'s daemon and blocks until the
  /// heartbeat monitor has declared it dead (missed pings, then failed
  /// backoff probes) and the corpse is reaped.
  virtual void KillExecutor(int executor) = 0;

  /// Respawns `executor`'s daemon (next generation), re-registers it,
  /// fast-forwards it through the program log, and re-broadcasts the
  /// peer table. On return the daemon is serving the current stage.
  virtual void RecoverExecutor(int executor) = 0;

  /// Counts a quarantined stage: an executor died mid-stage and the
  /// stage's partial results were discarded, never merged.
  virtual void NoteStageQuarantine() = 0;

  virtual ClusterCounters counters() const = 0;
};

/// Worker-side command feed: the daemon's control server parses frames
/// and hands them to the worker program's serve loop. Implemented by
/// cluster::DaemonRuntime.
class DistWorker {
 public:
  virtual ~DistWorker() = default;

  struct Command {
    enum class Kind { kTask, kStageDone, kShutdown };
    Kind kind = Kind::kTask;
    exec::RemoteTaskEnvelope env;  // kTask
    int stage = -1;                // kStageDone
    std::vector<std::vector<uint8_t>> blobs;  // kStageDone collect payload
  };

  /// Blocks for the next driver command addressed to the serve loop.
  virtual Command NextCommand() = 0;
  /// Replies to the kTask command currently being served.
  virtual void Reply(const exec::RemoteTaskOutcome& outcome) = 0;
  /// Acknowledges the kStageDone command with this executor's snapshot.
  virtual void StageAck(const ExecutorSnapshot& snapshot) = 0;
};

/// Thrown out of a worker program's serve loop when the driver orders
/// shutdown mid-job; the daemon main catches it and exits cleanly (all
/// destructors run, spill directories are removed).
class WorkerShutdown {};

/// Internal wiring for one process of a distributed run. Not serialized;
/// filled in by cluster::ScopedJob (driver) or the daemon main (worker).
/// All pointers are borrowed.
struct ClusterRuntime {
  DistRole role = DistRole::kLocal;
  DistDriver* driver = nullptr;     // kDriver
  DistWorker* worker = nullptr;     // kWorker
  net::Transport* transport = nullptr;  // kWorker: the data-plane mesh
  net::NetStats* net_stats = nullptr;   // kWorker
  int my_executor = -1;             // kWorker
};

}  // namespace deca::spark

#endif  // DECA_SPARK_DIST_H_
