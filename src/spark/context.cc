#include "spark/context.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <thread>

#include "common/clock.h"
#include "common/logging.h"
#include "fault/task_failure.h"
#include "net/loopback_transport.h"
#include "net/mesh_transport.h"
#include "net/socket_io.h"
#include "spark/network_shuffle.h"

namespace deca::spark {

namespace {

/// Returns each executor heap to the driver thread at scope exit — also
/// on the exception path, so a failing stage leaves ownership sane.
class ScopedHeapOwnership {
 public:
  ScopedHeapOwnership(std::vector<std::unique_ptr<Executor>>* executors,
                      exec::TaskScheduler* scheduler)
      : executors_(executors), active_(scheduler->parallel()) {
    if (!active_) return;
    for (size_t e = 0; e < executors_->size(); ++e) {
      (*executors_)[e]->heap()->SetMutatorThread(
          scheduler->MutatorThreadId(static_cast<int>(e)));
    }
  }
  ~ScopedHeapOwnership() {
    if (!active_) return;
    for (auto& e : *executors_) {
      e->heap()->SetMutatorThread(std::this_thread::get_id());
    }
  }

 private:
  std::vector<std::unique_ptr<Executor>>* executors_;
  bool active_;
};

/// Distinguishes concurrent contexts within one process in spill paths.
std::atomic<uint64_t> g_next_context_id{0};

/// One executor's snapshot. The shuffle and wire planes belong to the
/// process, not the executor (SparkContext::AddProcessPlanes).
ExecutorSnapshot SnapshotOf(const Executor& e) {
  const jvm::GcStats& gc = e.heap()->stats();
  const CacheManager& cache = *e.cache();
  const Histogram& ph = e.heap()->pause_hist();
  const Histogram& sh = e.heap()->mark_slice_hist();
  ExecutorSnapshot s;
  s.gc_pause_ms = gc.TotalPauseMs();
  s.concurrent_gc_ms = gc.concurrent_ms;
  s.minor_gcs = gc.minor_count;
  s.full_gcs = gc.full_count;
  s.oom_recoveries = gc.oom_recoveries;
  s.objects_allocated = gc.objects_allocated;
  s.bytes_allocated = gc.bytes_allocated;
  s.cached_bytes = cache.memory_bytes();
  s.peak_cached_bytes = cache.peak_memory_bytes();
  s.swapped_bytes = cache.disk_bytes();
  s.pressure_evictions = cache.pressure_evictions();
  s.tier = cache.tier_counters();
  s.memory = e.memory()->Snapshot();
  s.pauses.mark_slices = gc.mark_slices;
  s.pauses.pause_events = ph.count();
  s.pauses.pause_p50_ms = ph.Percentile(50);
  s.pauses.pause_p99_ms = ph.Percentile(99);
  s.pauses.pause_max_ms = ph.Max();
  s.pauses.slice_p50_ms = sh.Percentile(50);
  s.pauses.slice_p99_ms = sh.Percentile(99);
  s.pauses.slice_max_ms = sh.Max();
  s.alloc = e.alloc_counter().Stats();
  return s;
}

/// Whether failing `attempt` exhausts its task's (or stage's) attempts.
bool LastAttempt(const SparkConfig& config, int attempt) {
  return attempt + 1 >= std::max(1, config.max_task_failures);
}

/// The one status -> typed-failure mapping: what a failed outcome
/// surfaces as, the exception an in-process attempt would have thrown.
[[noreturn]] void ThrowFailure(const exec::RemoteTaskEnvelope& env,
                               const exec::RemoteTaskOutcome& out) {
  const int s = env.stage;
  const int p = env.partition;
  const int a = env.attempt;
  switch (out.status) {
    case exec::RemoteTaskStatus::kFetchFailure:
      throw fault::ShuffleFetchFailure(s, p, a);
    case exec::RemoteTaskStatus::kOom:
      throw fault::TaskOomFailure(s, p, a, out.heap_dump);
    case exec::RemoteTaskStatus::kInjectedFailure:
      throw fault::InjectedTaskFailure(s, p, a);
    default:
      throw std::runtime_error(
          "remote task failed (stage " + std::to_string(s) + ", partition " +
          std::to_string(p) + ", attempt " + std::to_string(a) +
          "): " + out.message);
  }
}
}  // namespace

SparkContext::SparkContext(const SparkConfig& config)
    : config_(config),
      scheduler_(config.num_executors, config.num_worker_threads),
      tracer_(config.num_executors,
              config.trace_enabled ? config.trace_ring_capacity : 0),
      injector_(config.fault, config.max_task_failures),
      carried_net_(static_cast<size_t>(config.num_executors)) {
  DECA_CHECK_GT(config.num_executors, 0);
  DECA_CHECK(config.dist_mode != DistMode::kProcess ||
             config.runtime.role != DistRole::kLocal)
      << "dist_mode is process, but no cluster::ScopedJob wired this "
         "context: the workload has no process-mode entry";
  // Unique per-context spill directory so concurrent applications (or
  // tests) sharing a configured spill_dir never collide on a swap file.
  config_.spill_dir += "/ctx_" + std::to_string(::getpid()) + "_" +
                       std::to_string(g_next_context_id.fetch_add(1));
  for (int i = 0; i < config.num_executors; ++i) {
    executors_.push_back(std::make_unique<Executor>(i, config_, &registry_));
  }
  if (config_.runtime.role == DistRole::kDriver) {
    // SPMD driver: shuffle data lives in the daemons. A local stub keeps
    // shuffle-id assignment in lockstep with every worker's program; it
    // never holds bytes because no tasks run here.
    DECA_CHECK(config_.runtime.driver != nullptr);
    shuffle_ = std::make_unique<LocalShuffleService>();
  } else if (config_.runtime.role == DistRole::kWorker) {
    // Worker daemon: the mesh transport (owned by the daemon runtime)
    // carries shuffle traffic between daemons; only this executor's
    // BlockServer exists locally.
    DECA_CHECK(config_.runtime.worker != nullptr);
    DECA_CHECK(config_.runtime.transport != nullptr);
    auto service = std::make_unique<NetworkShuffleService>(
        config_, config_.runtime.transport, config_.runtime.net_stats,
        config_.runtime.my_executor);
    injector_.set_fetch_failure_path(service.get());
    shuffle_ = std::move(service);
  } else if (config_.shuffle_transport == ShuffleTransport::kLocal) {
    shuffle_ = std::make_unique<LocalShuffleService>();
  } else {
    net_stats_ = std::make_unique<net::NetStats>();
    if (config_.shuffle_transport == ShuffleTransport::kLoopback) {
      transport_ = std::make_unique<net::LoopbackTransport>(
          config_.num_executors, net_stats_.get());
    } else {
      transport_ = std::make_unique<net::MeshTransport>(
          config_.num_executors, /*local_endpoint=*/-1, net::MeshOptions{},
          net_stats_.get());
    }
    auto service = std::make_unique<NetworkShuffleService>(
        config_, transport_.get(), net_stats_.get());
    // Injected fetch failures now travel the wire (doomed probe +
    // retries) before surfacing — same decision, same exception.
    injector_.set_fetch_failure_path(service.get());
    shuffle_ = std::move(service);
  }
}

SparkContext::~SparkContext() {
  // Each executor's DiskTier unlinks its swap file first, then the
  // per-context directory goes away. Best-effort: shuffle spill files of
  // crashed tasks may linger inside, remove_all sweeps those too.
  executors_.clear();
  std::error_code ec;
  std::filesystem::remove_all(config_.spill_dir, ec);
}

void SparkContext::RunTaskAttempts(
    int stage, int p, const CollectFn& body, double queue_ms,
    std::vector<std::vector<uint8_t>>* results) {
  for (int attempt = 0;; ++attempt) {
    exec::RemoteTaskEnvelope env;
    env.stage = stage;
    env.partition = p;
    env.attempt = attempt;
    exec::RemoteTaskOutcome out = Dispatch(env, body, queue_ms);
    fired_.fetch_add(out.fired_delta, std::memory_order_relaxed);
    if (out.status == exec::RemoteTaskStatus::kOk) {
      out.metrics.queue_ms = queue_ms;  // the driver's, not a daemon's 0
      sink_.Report(p, out.metrics);
      if (results != nullptr) {
        (*results)[static_cast<size_t>(p)] = std::move(out.result);
      }
      return;
    }
    if (out.status == exec::RemoteTaskStatus::kFatal ||
        LastAttempt(config_, attempt)) {
      ThrowFailure(env, out);
    }
    DECA_LOG(Warning) << "retrying task (stage " << stage << ", partition "
                      << p << ", attempt " << attempt << ")";
    task_retries_.fetch_add(1, std::memory_order_relaxed);
  }
}

exec::RemoteTaskOutcome SparkContext::Dispatch(
    const exec::RemoteTaskEnvelope& env, const CollectFn& body,
    double queue_ms) {
  if (role() != DistRole::kDriver) return RunAttempt(env, body, queue_ms);
  // The executor's daemon runs RunAttempt. RunTask throws
  // fault::ExecutorLostError if the daemon died — never resent; it
  // propagates to the stage-quarantine handler.
  return config_.runtime.driver->RunTask(
      scheduler_.ExecutorOfPartition(env.partition), env);
}

exec::RemoteTaskOutcome SparkContext::RunAttempt(
    const exec::RemoteTaskEnvelope& env, const CollectFn& body,
    double queue_ms) {
  const int p = env.partition;
  Executor* e = executor_for_partition(p);
  // Each attempt is one trace window: exactly this thread writes
  // (stage, p, attempt) events, in sequential and parallel runs alike. A
  // replay's window carries attempt = -1: it belongs to the upcoming
  // stage's trace but is distinguishable from its regular attempts.
  obs::TraceRecorder* rec = tracer_.executor(e->id());
  if (rec != nullptr) rec->BeginWindow(env.stage, p, env.attempt);
  obs::ScopedRecorder trace_scope(rec);
  TaskContext tc(this, e, p, num_partitions());
  exec::RemoteTaskOutcome out;
  if (env.replay_token >= 0) {
    // Lineage replay runs clean: no injection, no retries, no metric
    // reports.
    auto rs = std::find_if(
        replay_stages_.begin(), replay_stages_.end(),
        [&](const ReplayStage& r) { return r.token == env.replay_token; });
    if (rs == replay_stages_.end()) {
      throw std::runtime_error("unknown replay token " +
                               std::to_string(env.replay_token));
    }
    obs::ScopedSpan span(obs::Cat::kTask, "recover");
    rs->fn(tc);
    return out;
  }
  obs::ScopedSpan task_span(obs::Cat::kTask, "task");
  task_span.set_time_arg(queue_ms);
  tc.metrics().queue_ms = queue_ms;
  jvm::Heap* heap = e->heap();
  const memory::ExecutorMemoryManager* mm = e->memory();
  const uint64_t gcs0 = heap->stats().minor_count + heap->stats().full_count;
  const double gc_ms0 = heap->stats().TotalPauseMs();
  const uint64_t denied0 = mm->denied_reservations();
  Stopwatch sw;
  try {
    injector_.OnTaskAttempt(env.stage, p, env.attempt, heap);
    out.result = body(tc);
  } catch (const fault::ShuffleFetchFailure&) {
    out.status = exec::RemoteTaskStatus::kFetchFailure;
  } catch (const fault::TaskFailure&) {
    out.status = exec::RemoteTaskStatus::kInjectedFailure;
  } catch (const jvm::OutOfMemoryError& oom) {
    out.status = exec::RemoteTaskStatus::kOom;
    out.heap_dump = oom.heap_dump();
  } catch (const net::ConnectError& ce) {
    // A shuffle fetch hit a dead peer daemon: retryable like any other
    // fetch failure.
    out.status = exec::RemoteTaskStatus::kFetchFailure;
    out.message = ce.what();
  }
  // A forced allocation failure armed for this attempt must never leak
  // into a later task (the attempt may not have allocated).
  heap->ForceAllocationFailures(0);
  out.fired_delta = injector_.TakeFired();
  if (out.status != exec::RemoteTaskStatus::kOk) {
    if (!LastAttempt(config_, env.attempt)) {
      obs::Instant(obs::Cat::kTask, "retry", env.attempt);
    }
    return out;
  }
  // Wall and GC time of the attempt, the executor's pool high-water marks
  // as of task end (the stage fold takes the max) and its own denials.
  TaskMetrics& m = tc.metrics();
  m.total_ms = sw.ElapsedMillis();
  m.gc_ms = heap->stats().TotalPauseMs() - gc_ms0;
  m.exec_pool_peak_bytes = mm->exec_peak();
  m.storage_pool_peak_bytes = mm->storage_peak();
  m.denied_reservations = mm->denied_reservations() - denied0;
  task_span.set_args(
      static_cast<double>(heap->stats().minor_count +
                          heap->stats().full_count - gcs0),
      static_cast<double>(m.denied_reservations));
  out.metrics = m;
  return out;
}

std::vector<std::vector<uint8_t>> SparkContext::ServeStage(
    int stage, const CollectFn& body) {
  DistWorker* worker = config_.runtime.worker;
  Executor& mine =
      *executors_[static_cast<size_t>(config_.runtime.my_executor)];
  while (true) {
    DistWorker::Command cmd = worker->NextCommand();
    switch (cmd.kind) {
      case DistWorker::Command::Kind::kTask: {
        DECA_CHECK_EQ(cmd.env.stage, stage)
            << "envelope for a stage this daemon is not serving";
        DECA_CHECK_EQ(scheduler_.ExecutorOfPartition(cmd.env.partition),
                      mine.id())
            << "envelope for a partition this daemon does not own";
        exec::RemoteTaskOutcome out;
        try {
          out = RunAttempt(cmd.env, body, /*queue_ms=*/0);
        } catch (const std::exception& ex) {
          // In-process such an exception propagates as-is; the driver
          // rethrows its message.
          out.status = exec::RemoteTaskStatus::kFatal;
          out.message = ex.what();
        }
        worker->Reply(out);
        break;
      }
      case DistWorker::Command::Kind::kStageDone: {
        DECA_CHECK_EQ(cmd.stage, stage)
            << "stage-done for a stage this daemon is not serving";
        mine.VerifyMemoryAccounting();
        ExecutorSnapshot ack = SnapshotOf(mine);
        AddProcessPlanes(&ack);
        worker->StageAck(ack);
        return std::move(cmd.blobs);
      }
      case DistWorker::Command::Kind::kShutdown:
        // Unwinds through the workload program; the daemon main catches
        // it, so destructors (spill cleanup) still run.
        throw WorkerShutdown{};
    }
  }
}

void SparkContext::AddProcessPlanes(ExecutorSnapshot* s) const {
  const int n = shuffle_->num_shuffles();
  s->shuffle_bytes.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    s->shuffle_bytes[static_cast<size_t>(i)] = shuffle_->total_bytes(i);
  }
  if (net_stats() != nullptr) s->net = net_stats()->Snapshot();
}

void SparkContext::RunStageInternal(
    const std::string& name, const CollectFn& body,
    std::vector<std::vector<uint8_t>>* results) {
  const int stage = next_stage_id_++;
  if (config_.runtime.role == DistRole::kWorker) {
    // SPMD worker: this stage is served, not run. The driver dispatches
    // envelopes; the broadcast collect blobs keep this program's
    // between-stage state identical to the driver's.
    auto blobs = ServeStage(stage, body);
    if (results != nullptr) *results = std::move(blobs);
    return;
  }
  const bool remote = config_.runtime.role == DistRole::kDriver;
  // A dead daemon gets an in-process wipe's bookkeeping, then its next
  // generation is respawned and fast-forwarded through the program log.
  auto respawn = [&](int e) {
    obs::Instant(obs::Cat::kCluster, "dead", e);
    WipeExecutor(e);
    config_.runtime.driver->RecoverExecutor(e);
    obs::Instant(obs::Cat::kCluster, "respawn", e);
  };
  // Driver trace window for this stage: dispatch instants, wipe/recovery
  // bookkeeping and the stage span all land on the driver lane.
  obs::TraceRecorder* drec = tracer_.driver();
  if (drec != nullptr) drec->BeginWindow(stage, -1, -1);
  obs::ScopedRecorder driver_scope(drec);
  {
    obs::ScopedSpan stage_span(obs::Cat::kStage, name.c_str(),
                               num_partitions(), num_executors());
    int wipe = injector_.CrashWipeBefore(stage);
    if (wipe >= 0 && wipe < num_executors()) {
      if (remote) {
        // The same seeded decision that wipes an executor in-process
        // delivers a real SIGKILL here; heartbeat loss detects the death.
        obs::Instant(obs::Cat::kCluster, "kill", wipe);
        config_.runtime.driver->KillExecutor(wipe);
        respawn(wipe);
      } else {
        WipeExecutor(wipe);
      }
    }
    RecoverLostState(stage);
    Stopwatch stage_sw;
    const int nparts = num_partitions();
    if (results != nullptr) results->assign(static_cast<size_t>(nparts), {});
    for (int stage_attempt = 0;; ++stage_attempt) {
      sink_.BeginStage(nparts);
      try {
        ScopedHeapOwnership ownership(&executors_, &scheduler_);
        scheduler_.RunStage(
            nparts,
            [&](int p, double queue_ms) {
              RunTaskAttempts(stage, p, body, queue_ms, results);
            },
            name.c_str());
        break;
      } catch (const fault::ExecutorLostError& lost) {
        // Quarantine: the stage's partial results are discarded — sink
        // and collect blobs alike — never merged. Recover the executor,
        // replay what died with it, and retry the whole stage.
        if (LastAttempt(config_, stage_attempt)) throw;
        DECA_LOG(Warning) << "quarantining stage " << stage << ": "
                          << lost.what();
        config_.runtime.driver->NoteStageQuarantine();
        if (results != nullptr) {
          results->assign(static_cast<size_t>(nparts), {});
        }
        respawn(lost.executor());
        RecoverLostState(stage);
      }
    }
    if (remote) {
      // Stage barrier broadcast: every daemon leaves its serve loop,
      // folds the same collect blobs, and acks with its stats snapshot
      // (which ExecutorSnapshots returns).
      static const std::vector<std::vector<uint8_t>> kNoBlobs;
      snapshots_ = config_.runtime.driver->StageDone(
          stage, results != nullptr ? *results : kNoBlobs);
    }
    // Post-barrier: fold task metrics in partition order (deterministic
    // regardless of completion order).
    sink_.EndStage(&metrics_);
    metrics_.wall_ms += stage_sw.ElapsedMillis();
    metrics_.task_retries += task_retries_.exchange(0);
    metrics_.injected_faults += fired_.exchange(0);
    // Every byte must be charged to exactly one manager — checked at every
    // stage barrier, in sequential and parallel runs alike.
    for (auto& e : executors_) e->VerifyMemoryAccounting();
  }
  // All writers are quiescent past the barrier: fold this stage's events
  // into the canonical log (content-identical across execution modes).
  tracer_.MergeBarrier();
}

void SparkContext::RunStage(const std::string& name,
                            const std::function<void(TaskContext&)>& task) {
  RunStageInternal(
      name,
      [&task](TaskContext& tc) {
        task(tc);
        return std::vector<uint8_t>();
      },
      nullptr);
}

std::vector<std::vector<uint8_t>> SparkContext::RunCollectStage(
    const std::string& name, const CollectFn& fn) {
  std::vector<std::vector<uint8_t>> results;
  RunStageInternal(name, fn, &results);
  return results;
}

int SparkContext::RunMapStage(const std::string& name, int shuffle_id,
                              const std::function<void(TaskContext&)>& task) {
  RunStage(name, task);
  ReplayStage rs;
  rs.name = name;
  rs.token = next_lineage_token_++;
  rs.shuffle_id = shuffle_id;
  rs.fn = task;
  replay_stages_.push_back(std::move(rs));
  return replay_stages_.back().token;
}

int SparkContext::RegisterLineage(int rdd_id,
                                  std::function<void(TaskContext&)> fn) {
  ReplayStage rs;
  rs.name = "lineage rdd " + std::to_string(rdd_id);
  rs.token = next_lineage_token_++;
  rs.fn = std::move(fn);
  replay_stages_.push_back(std::move(rs));
  return replay_stages_.back().token;
}

void SparkContext::DropLineage(int token) {
  for (auto it = replay_stages_.begin(); it != replay_stages_.end(); ++it) {
    if (it->token == token) {
      replay_stages_.erase(it);
      return;
    }
  }
}

void SparkContext::AddWipeListener(WipeListener* listener) {
  wipe_listeners_.push_back(listener);
}

void SparkContext::RemoveWipeListener(WipeListener* listener) {
  auto it = std::find(wipe_listeners_.begin(), wipe_listeners_.end(),
                      listener);
  if (it != wipe_listeners_.end()) wipe_listeners_.erase(it);
}

void SparkContext::WipeExecutor(int e) {
  DECA_CHECK_GE(e, 0);
  DECA_CHECK_LT(e, num_executors());
  const size_t ei = static_cast<size_t>(e);
  // Stale-reference drop must precede the heap reset: listeners still
  // hold refs into the dying heap.
  for (auto* l : wipe_listeners_) l->OnExecutorWipe(e);
  if (role() == DistRole::kDriver) {
    // The daemon's heap, cache and map outputs died with its process. The
    // wire traffic it acked did happen, and its respawn counts from zero.
    if (ei < snapshots_.size()) {
      FoldFields(&carried_net_[ei], snapshots_[ei].net);
      snapshots_[ei].net = {};
    }
  } else {
    executors_[ei]->Wipe();
  }
  // Everything this executor produced is marked lost: cached lineage
  // blocks and deposited shuffle map outputs alike.
  for (auto& rs : replay_stages_) {
    for (int p = 0; p < num_partitions(); ++p) {
      if (scheduler_.ExecutorOfPartition(p) != e) continue;
      if (rs.shuffle_id >= 0) shuffle_->DropMapOutput(rs.shuffle_id, p);
      rs.lost.insert(p);
    }
  }
  ++metrics_.executor_wipes;
  obs::Instant(obs::Cat::kSched, "wipe", e);
}

void SparkContext::RecoverLostState(int stage) {
  // Replay in original execution order, partitions ascending, so the
  // wiped executor's fresh heap sees the same allocation history prefix a
  // fresh run would produce.
  for (auto& rs : replay_stages_) {
    if (rs.lost.empty()) continue;
    ScopedHeapOwnership ownership(&executors_, &scheduler_);
    std::string stage_name = "recover:" + rs.name;
    scheduler_.RunStage(
        num_partitions(),
        [&](int p, double) {
          if (rs.lost.count(p) == 0) return;
          exec::RemoteTaskEnvelope env;
          env.stage = stage;
          env.partition = p;
          env.attempt = -1;
          env.replay_token = rs.token;
          exec::RemoteTaskOutcome out = Dispatch(env, {}, 0);
          if (out.status != exec::RemoteTaskStatus::kOk) {
            ThrowFailure(env, out);
          }
        },
        stage_name.c_str());
    if (rs.shuffle_id < 0) {
      metrics_.recomputed_blocks += rs.lost.size();
    }
    rs.lost.clear();
  }
}

void SparkContext::RegisterCachedRdd(int rdd_id, const RecordOps* ops) {
  for (auto& e : executors_) e->cache()->RegisterOps(rdd_id, ops);
}

void SparkContext::ResetMetrics() { metrics_ = JobMetrics(); }

// The SPMD driver's local executors never run a task, so it reads the
// per-daemon snapshots piggybacked on the last stage barrier instead. Each
// daemon reports only the executor it hosts, so the folds equal the
// in-process run's bit for bit.

std::vector<ExecutorSnapshot> SparkContext::ExecutorSnapshots() const {
  std::vector<ExecutorSnapshot> out;
  if (role() == DistRole::kDriver) {
    out = snapshots_;
    for (size_t e = 0; e < out.size(); ++e) {
      FoldFields(&out[e].net, carried_net_[e]);
    }
    return out;
  }
  out.reserve(executors_.size());
  for (const auto& e : executors_) out.push_back(SnapshotOf(*e));
  return out;
}

ExecutorSnapshot SparkContext::Totals() const {
  ExecutorSnapshot total;
  for (const ExecutorSnapshot& s : ExecutorSnapshots()) {
    FoldFields(&total, s);
  }
  if (role() != DistRole::kDriver) AddProcessPlanes(&total);
  return total;
}

double SparkContext::TotalGcPauseMs() const {
  double total = 0;
  if (role() == DistRole::kDriver) {
    for (const auto& s : snapshots_) total += s.gc_pause_ms;
  } else {
    for (const auto& e : executors_) total += e->heap()->stats().TotalPauseMs();
  }
  return total;
}

uint64_t SparkContext::ShuffleTotalBytes(int shuffle_id) const {
  if (role() == DistRole::kDriver) {
    uint64_t total = 0;
    for (const auto& s : snapshots_) {
      if (shuffle_id >= 0 &&
          static_cast<size_t>(shuffle_id) < s.shuffle_bytes.size()) {
        total += s.shuffle_bytes[static_cast<size_t>(shuffle_id)];
      }
    }
    return total;
  }
  return shuffle_->total_bytes(shuffle_id);
}

ClusterCounters SparkContext::cluster_counters() const {
  if (role() == DistRole::kDriver) {
    return config_.runtime.driver->counters();
  }
  return ClusterCounters{};
}

}  // namespace deca::spark
