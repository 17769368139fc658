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
  /// A task that throws a fault::TaskFailure, a jvm::OutOfMemoryError or
  /// a net::ConnectError (a dead peer) is retried on the same executor in
  /// the same per-executor FIFO slot, up to `config.max_task_failures`
  /// attempts, and then surfaces as its typed fault::TaskFailure; other
  /// exception types propagate immediately.
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

  /// Simulates a crash of executor `e` at a stage boundary, or on the
  /// driver books a dead daemon's: wipe listeners drop their references,
  /// the cache and heap are wiped where they live (a daemon's died with
  /// it; the driver keeps its acked `net` counts), and the executor's
  /// shuffle map outputs are discarded. Lost state is recomputed from
  /// lineage before the next stage runs.
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

  /// Each executor's observability snapshot, in executor-id order. The
  /// driver returns the latest stage acks, whose `net` includes what the
  /// executor's dead daemons acked; the other roles build them from their
  /// executors. In-process the shuffle and wire planes belong to the
  /// context, so these leave `net` and `shuffle_bytes` empty.
  std::vector<ExecutorSnapshot> ExecutorSnapshots() const;
  /// ExecutorSnapshots() folded by the list: the job's totals, the same
  /// in every execution mode. In-process `net` and `shuffle_bytes` come
  /// from the context's own planes. Sorts every heap's pause and promote
  /// histograms, so no timed path may call it.
  ExecutorSnapshot Totals() const;

  // perfbench's reads, outside its timed rounds.
  uint64_t TotalMinorGcs() const { return Totals().minor_gcs; }
  uint64_t TotalFullGcs() const { return Totals().full_gcs; }
  TierCounters TotalTierCounters() const { return Totals().tier; }
  uint64_t SwappedBytes() const { return Totals().swapped_bytes; }
  uint64_t TotalDeniedReservations() const {
    return Totals().memory.denied_reservations;
  }
  uint64_t TotalPressureEvictions() const {
    return Totals().pressure_evictions;
  }
  uint64_t TotalStoragePoolPeakBytes() const {
    return Totals().memory.storage_peak;
  }
  alloc::AllocStats TotalAllocStats() const { return Totals().alloc; }
  uint64_t PeakCachedMemoryBytes() const {
    return Totals().peak_cached_bytes;
  }

  /// GC pause time summed across executors, read live: a clock on timed
  /// paths (stream epochs, SQL queries, perfbench's span clock).
  double TotalGcPauseMs() const;
  /// Payload bytes of `shuffle_id`, read live: stream-epochs reads it in
  /// its timed round, and in-process the shared shuffle service does not
  /// split its bytes per executor. The driver sums the latest acks.
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

  /// `results`, when set, receives each partition's blob (a collect
  /// stage).
  void RunStageInternal(const std::string& name, const CollectFn& body,
                        std::vector<std::vector<uint8_t>>* results);
  /// One partition's bounded attempt loop, in every role: each outcome is
  /// reported, retried, or thrown as its typed failure.
  void RunTaskAttempts(int stage, int partition, const CollectFn& body,
                       double queue_ms,
                       std::vector<std::vector<uint8_t>>* results);
  /// Runs `env` where its executor lives: here, or from the driver in the
  /// executor's daemon, whose death surfaces as fault::ExecutorLostError
  /// (stage quarantine).
  exec::RemoteTaskOutcome Dispatch(const exec::RemoteTaskEnvelope& env,
                                   const CollectFn& body, double queue_ms);
  /// The one task attempt, in-process and in a daemon: `body` in the
  /// attempt's trace window with its injected faults, a retryable failure
  /// classified into the outcome. `env.replay_token >= 0` runs that
  /// lineage stage's function instead, clean. Other exceptions propagate.
  exec::RemoteTaskOutcome RunAttempt(const exec::RemoteTaskEnvelope& env,
                                     const CollectFn& body, double queue_ms);
  /// Worker role: serve the driver's envelopes for this stage until
  /// StageDone, then return its broadcast collect blobs.
  std::vector<std::vector<uint8_t>> ServeStage(int stage,
                                               const CollectFn& body);
  /// Adds this process's shuffle and wire planes to `s`: a daemon's
  /// own, or in-process the whole context's.
  void AddProcessPlanes(ExecutorSnapshot* s) const;
  /// Replays lineage/map stages for partitions lost to a wipe, one
  /// scheduler pass per stage, through Dispatch. `stage` is the id of the
  /// upcoming stage; replay trace windows are attributed to it with
  /// attempt = -1.
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
  /// Injected faults this stage's attempts fired (on the driver, the
  /// daemons' identically seeded injectors decide; the driver counts).
  std::atomic<uint64_t> fired_{0};
  /// Driver role: each executor's latest stage-ack snapshot, read instead
  /// of the (idle) local executors.
  std::vector<ExecutorSnapshot> snapshots_;
  /// Driver role: per executor, the `net` plane its dead daemons acked.
  std::vector<net::NetStatsSnapshot> carried_net_;
  std::vector<WipeListener*> wipe_listeners_;
  std::vector<ReplayStage> replay_stages_;
};

}  // namespace deca::spark

#endif  // DECA_SPARK_CONTEXT_H_
