#ifndef DECA_SPARK_CONTEXT_H_
#define DECA_SPARK_CONTEXT_H_

#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "exec/metrics_sink.h"
#include "exec/remote_task.h"
#include "exec/scheduler.h"
#include "fault/fault_injector.h"
#include "jvm/class_registry.h"
#include "net/net_stats.h"
#include "net/transport.h"
#include "obs/trace.h"
#include "spark/dist.h"
#include "spark/executor.h"
#include "spark/metrics.h"
#include "spark/shuffle.h"

namespace deca::spark {

class SparkContext;

/// Notified when an executor crash-wipes, before its heap is reset.
/// Listeners must drop every reference they hold into that executor's
/// heap (they are stale after the wipe) and arrange for the lost data to
/// be recomputed from lineage on next access.
class WipeListener {
 public:
  virtual ~WipeListener() = default;
  virtual void OnExecutorWipe(int executor_id) = 0;
};

/// Per-task view handed to stage functions: the partition id, the owning
/// executor (heap, cache) and the task's metric sink.
class TaskContext {
 public:
  TaskContext(SparkContext* ctx, Executor* executor, int partition,
              int num_partitions)
      : ctx_(ctx),
        executor_(executor),
        partition_(partition),
        num_partitions_(num_partitions) {}

  int partition() const { return partition_; }
  int num_partitions() const { return num_partitions_; }
  Executor* executor() { return executor_; }
  jvm::Heap* heap() { return executor_->heap(); }
  CacheManager* cache() { return executor_->cache(); }
  SparkContext* context() { return ctx_; }
  TaskMetrics& metrics() { return metrics_; }

 private:
  SparkContext* ctx_;
  Executor* executor_;
  int partition_;
  int num_partitions_;
  TaskMetrics metrics_;
};

/// The driver: owns the executors (each with its own managed heap), the
/// task scheduler, the shuffle service and the job metrics. Stages
/// execute one task per partition, round-robin across executors. With
/// `num_worker_threads == 0` (default) tasks run sequentially on the
/// driver thread; otherwise the src/exec runtime runs each executor's
/// tasks on its own OS thread, with bit-identical results.
class SparkContext {
 public:
  explicit SparkContext(const SparkConfig& config);
  ~SparkContext();

  SparkContext(const SparkContext&) = delete;
  SparkContext& operator=(const SparkContext&) = delete;

  const SparkConfig& config() const { return config_; }
  jvm::ClassRegistry* registry() { return &registry_; }
  ShuffleService* shuffle() { return shuffle_.get(); }
  /// Wire-plane counters; null when shuffle_transport == kLocal. A worker
  /// daemon reports the mesh's stats (owned by the daemon runtime).
  const net::NetStats* net_stats() const {
    return net_stats_ != nullptr ? net_stats_.get()
                                 : config_.runtime.net_stats;
  }

  int num_partitions() const {
    return config_.num_executors * config_.partitions_per_executor;
  }
  int num_executors() const { return config_.num_executors; }
  Executor* executor(int i) { return executors_[static_cast<size_t>(i)].get(); }
  /// Partition placement is owned by the scheduler so the sequential and
  /// parallel paths cannot disagree about which heap a partition's
  /// objects live in.
  Executor* executor_for_partition(int p) {
    return executors_[static_cast<size_t>(scheduler_.ExecutorOfPartition(p))]
        .get();
  }
  exec::TaskScheduler* scheduler() { return &scheduler_; }

  /// Runs one stage: `task` is invoked once per partition. Task wall time
  /// and the GC pauses incurred during it are recorded in the job metrics.
  /// A task that throws a fault::TaskFailure (or a jvm::OutOfMemoryError,
  /// converted to TaskOomFailure) is retried on the same executor in the
  /// same per-executor FIFO slot, up to `config.max_task_failures`
  /// attempts; other exception types propagate immediately.
  ///
  /// Distributed roles (config.runtime.role): the driver dispatches each
  /// partition as a task envelope to its executor's daemon instead of
  /// running `task`; a worker turns this call into a serve loop executing
  /// the driver's envelopes with the SAME `task` closure (SPMD — every
  /// process runs the same program). An executor that dies mid-stage
  /// quarantines the stage: partial results are discarded (never merged),
  /// the executor is respawned and fast-forwarded, lost state is replayed
  /// from lineage, and the whole stage retries, bounded by
  /// `config.max_task_failures` stage attempts.
  void RunStage(const std::string& name,
                const std::function<void(TaskContext&)>& task);

  /// A stage whose tasks each produce a byte blob, returned in partition
  /// order. In process mode the blobs are gathered over RPC and broadcast
  /// to every daemon at the stage barrier, so all processes fold the same
  /// values into driver-side state (e.g. LR weights stay in lockstep).
  using CollectFn = std::function<std::vector<uint8_t>(TaskContext&)>;
  std::vector<std::vector<uint8_t>> RunCollectStage(const std::string& name,
                                                    const CollectFn& fn);

  /// Like RunStage, but additionally records `task` as the producer of
  /// `shuffle_id`'s map outputs: if an executor later crash-wipes, the map
  /// outputs it deposited are dropped and `task` is deterministically
  /// re-executed for the lost partitions before the next stage runs.
  /// Returns a lineage token for DropLineage.
  int RunMapStage(const std::string& name, int shuffle_id,
                  const std::function<void(TaskContext&)>& task);

  /// Registers `fn` as the lineage of `rdd_id`'s cached blocks: when an
  /// executor crash-wipes, `fn` is re-run for the lost partitions before
  /// the next stage so the cache is restored. Call it after the stage that
  /// materialized the blocks; `fn` must be idempotent per partition.
  /// Returns a lineage token for DropLineage.
  int RegisterLineage(int rdd_id, std::function<void(TaskContext&)> fn);

  /// Retires a replayable stage (batch: an unpersisted RDD; streaming: a
  /// reclaimed epoch region). Its data is gone by contract, so replaying
  /// it after a wipe would resurrect reclaimed blocks — and over an
  /// unbounded epoch stream the replay log would otherwise grow without
  /// limit. Unknown tokens are ignored.
  void DropLineage(int token);

  /// Replayable stages still registered (tests assert retired epochs
  /// leave no replay residue behind).
  size_t replay_stage_count() const { return replay_stages_.size(); }

  /// Wipe listeners (e.g. stream::StreamContext's epoch state).
  void AddWipeListener(WipeListener* listener);
  void RemoveWipeListener(WipeListener* listener);

  /// Simulates a crash of executor `e` at a stage boundary: wipe
  /// listeners drop their references, the cache and heap are wiped, and
  /// the executor's shuffle map outputs are discarded. Lost state is
  /// recomputed from lineage before the next stage runs.
  void WipeExecutor(int e);

  /// Registers record ops for an RDD id on every executor's cache manager.
  void RegisterCachedRdd(int rdd_id, const RecordOps* ops);

  JobMetrics& metrics() { return metrics_; }
  /// Resets accumulated job metrics (e.g. after warmup).
  void ResetMetrics();

  /// The structured-trace plane (disabled unless config.trace_enabled).
  obs::Tracer* tracer() { return &tracer_; }
  /// Final merge + hand-off of the accumulated trace log (null when
  /// tracing is disabled). The context keeps recording afterwards into a
  /// fresh log, so benches can take one log per measured run.
  std::shared_ptr<obs::TraceLog> TakeTraceLog() { return tracer_.Take(); }

  /// Sum of GC pause time across executors so far.
  double TotalGcPauseMs() const;
  double TotalConcurrentGcMs() const;
  uint64_t TotalMinorGcs() const;
  uint64_t TotalFullGcs() const;
  /// GC pause plane (schema v4): slice/pause counts summed across
  /// executors, latency percentiles composed by max (the job-level tail
  /// is bounded by the worst executor). Role-aware like the other
  /// getters.
  GcPauseSummary TotalGcPauses() const;
  /// Sum of current in-memory cached bytes across executors.
  uint64_t CachedMemoryBytes() const;
  uint64_t PeakCachedMemoryBytes() const;
  uint64_t SwappedBytes() const;
  /// Cache blocks swapped out by the OOM degradation ladder.
  uint64_t TotalPressureEvictions() const;
  /// Block-store tier plane summed across executors (per-tier residency,
  /// hit/miss counts, demote/promote transitions). Role-aware like the
  /// other getters.
  TierCounters TotalTierCounters() const;
  /// Native-buffer counters summed across executors (role-aware).
  alloc::AllocStats TotalAllocStats() const;
  /// Allocations rescued by eviction-under-pressure + full GC + retry.
  uint64_t TotalOomRecoveries() const;
  /// Unified memory-manager plane, summed across executors (the peak is
  /// a sum of per-executor high-water marks).
  uint64_t TotalStoragePoolPeakBytes() const;
  uint64_t TotalDeniedReservations() const;
  /// One memory-manager snapshot per executor, in executor-id order.
  std::vector<memory::MemoryStats> ExecutorMemorySnapshots() const;

  /// Shuffle payload bytes for `shuffle_id`. Role-aware: the driver sums
  /// the per-daemon values from the latest stage-ack snapshots (its own
  /// shuffle service is a lockstep stub holding no data).
  uint64_t ShuffleTotalBytes(int shuffle_id) const;

  DistRole role() const { return config_.runtime.role; }
  /// Control-plane counters (driver role; zeros otherwise).
  ClusterCounters cluster_counters() const;

 private:
  /// A stage whose effects can be deterministically replayed after an
  /// executor wipe: a cached-RDD load (shuffle_id < 0) or a shuffle map
  /// stage. `lost` holds partitions whose output the wipe destroyed.
  struct ReplayStage {
    std::string name;
    int token = -1;
    int shuffle_id = -1;
    std::function<void(TaskContext&)> fn;
    std::set<int> lost;
  };

  /// One task with bounded retries; reports metrics on success.
  void RunTaskAttempts(int stage, int partition, int num_partitions,
                       const std::function<void(TaskContext&)>& task,
                       double queue_ms);
  /// `collect`, when set, replaces `task` as the stage body and its blob
  /// lands in (*results)[partition].
  void RunStageInternal(const std::string& name,
                        const std::function<void(TaskContext&)>& task,
                        const CollectFn* collect,
                        std::vector<std::vector<uint8_t>>* results);
  /// Driver role: one partition's bounded remote-attempt loop. Remote
  /// outcomes map back to the exact in-process exception types; a dead
  /// daemon surfaces as fault::ExecutorLostError (stage quarantine).
  void RunRemoteAttempts(int stage, int partition, bool collect,
                         double queue_ms,
                         std::vector<std::vector<uint8_t>>* results);
  /// Worker role: serve the driver's envelopes for this stage until
  /// StageDone, then return its broadcast collect blobs.
  std::vector<std::vector<uint8_t>> ServeStage(
      int stage, const std::function<void(TaskContext&)>& task,
      const CollectFn* collect);
  /// Worker role: execute one envelope (task attempt or lineage replay).
  exec::RemoteTaskOutcome ExecuteRemoteAttempt(
      int stage, const exec::RemoteTaskEnvelope& env,
      const std::function<void(TaskContext&)>& task, const CollectFn* collect);
  /// Driver role: the in-process wipe bookkeeping for an executor whose
  /// daemon died (lineage lost-sets, wipe counter). The data itself died
  /// with the process.
  void MarkExecutorLost(int e);
  /// Worker role: this executor's observability snapshot for a stage ack.
  ExecutorSnapshot BuildLocalSnapshot() const;
  /// Replays lineage/map stages for partitions lost to a wipe. `stage` is
  /// the id of the upcoming stage; replay trace windows are attributed to
  /// it with attempt = -1. Driver role replays over RPC.
  void RecoverLostState(int stage);

  SparkConfig config_;
  jvm::ClassRegistry registry_;
  std::vector<std::unique_ptr<Executor>> executors_;
  exec::TaskScheduler scheduler_;
  obs::Tracer tracer_;
  exec::MetricsSink sink_;
  // The wire plane (network transports only; null under kLocal). Declared
  // before shuffle_ so the service is destroyed before its transport.
  std::unique_ptr<net::NetStats> net_stats_;
  std::unique_ptr<net::Transport> transport_;
  std::unique_ptr<ShuffleService> shuffle_;
  JobMetrics metrics_;
  fault::FaultInjector injector_;
  int next_stage_id_ = 0;
  int next_lineage_token_ = 0;
  std::atomic<uint64_t> task_retries_{0};
  /// Driver role: injected faults reported by daemons (their identically
  /// seeded injectors make the decisions; the driver only counts).
  std::atomic<uint64_t> remote_fired_{0};
  /// Driver role: each executor's latest stage-ack snapshot; the Total*
  /// getters read these instead of the (idle) local executors.
  std::vector<ExecutorSnapshot> snapshots_;
  std::vector<WipeListener*> wipe_listeners_;
  std::vector<ReplayStage> replay_stages_;
};

}  // namespace deca::spark

#endif  // DECA_SPARK_CONTEXT_H_
