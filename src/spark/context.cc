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

}  // namespace

namespace {
/// Distinguishes concurrent contexts within one process in spill paths.
std::atomic<uint64_t> g_next_context_id{0};

/// One heap's pause plane.
GcPauseSummary HeapPauses(const jvm::Heap& h) {
  const Histogram& ph = h.pause_hist();
  const Histogram& sh = h.mark_slice_hist();
  GcPauseSummary p;
  p.mark_slices = h.stats().mark_slices;
  p.pause_events = ph.count();
  p.pause_p50_ms = ph.Percentile(50);
  p.pause_p99_ms = ph.Percentile(99);
  p.pause_max_ms = ph.Max();
  p.slice_p50_ms = sh.Percentile(50);
  p.slice_p99_ms = sh.Percentile(99);
  p.slice_max_ms = sh.Max();
  return p;
}
}  // namespace

SparkContext::SparkContext(const SparkConfig& config)
    : config_(config),
      scheduler_(config.num_executors, config.num_worker_threads),
      tracer_(config.num_executors,
              config.trace_enabled ? config.trace_ring_capacity : 0),
      injector_(config.fault, config.max_task_failures) {
  DECA_CHECK_GT(config.num_executors, 0);
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
      net::LoopbackOptions opts;
      opts.latency_us = config_.net_latency_us;
      opts.bandwidth_mbps = config_.net_bandwidth_mbps;
      transport_ = std::make_unique<net::LoopbackTransport>(
          config_.num_executors, opts, net_stats_.get());
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
    int stage, int p, int nparts,
    const std::function<void(TaskContext&)>& task, double queue_ms) {
  Executor* e = executor_for_partition(p);
  obs::TraceRecorder* rec = tracer_.executor(e->id());
  const int max_attempts = std::max(1, config_.max_task_failures);
  for (int attempt = 0;; ++attempt) {
    // Each attempt is one trace window: exactly this thread writes
    // (stage, p, attempt) events, in sequential and parallel runs alike.
    if (rec != nullptr) rec->BeginWindow(stage, p, attempt);
    obs::ScopedRecorder trace_scope(rec);
    obs::ScopedSpan task_span(obs::Cat::kTask, "task");
    task_span.set_time_arg(queue_ms);
    TaskContext tc(this, e, p, nparts);
    tc.metrics().queue_ms = queue_ms;
    double gc0 = e->heap()->stats().TotalPauseMs();
    uint64_t denied0 = e->memory()->denied_reservations();
    uint64_t gcs0 =
        e->heap()->stats().minor_count + e->heap()->stats().full_count;
    Stopwatch sw;
    try {
      injector_.OnTaskAttempt(stage, p, attempt, e->heap());
      task(tc);
      // A forced allocation failure armed for this attempt must never
      // leak into a later task (the attempt may not have allocated).
      e->heap()->ForceAllocationFailures(0);
    } catch (const fault::TaskFailure& f) {
      e->heap()->ForceAllocationFailures(0);
      if (attempt + 1 >= max_attempts) throw;
      DECA_LOG(Warning) << "retrying task: " << f.what();
      task_retries_.fetch_add(1, std::memory_order_relaxed);
      obs::Instant(obs::Cat::kTask, "retry", attempt);
      continue;
    } catch (const jvm::OutOfMemoryError& oom) {
      e->heap()->ForceAllocationFailures(0);
      if (attempt + 1 >= max_attempts) {
        throw fault::TaskOomFailure(stage, p, attempt, oom.heap_dump());
      }
      DECA_LOG(Warning) << "retrying task after OOM (stage " << stage
                        << ", partition " << p << ", attempt " << attempt
                        << "): " << oom.what();
      task_retries_.fetch_add(1, std::memory_order_relaxed);
      obs::Instant(obs::Cat::kTask, "retry", attempt);
      continue;
    }
    tc.metrics().total_ms = sw.ElapsedMillis();
    tc.metrics().gc_ms = e->heap()->stats().TotalPauseMs() - gc0;
    // Pool peaks are the executor's high-water marks as of task end (the
    // stage fold takes the max); denials are this task's own delta.
    const memory::ExecutorMemoryManager* mm = e->memory();
    tc.metrics().exec_pool_peak_bytes = mm->exec_peak();
    tc.metrics().storage_pool_peak_bytes = mm->storage_peak();
    tc.metrics().denied_reservations = mm->denied_reservations() - denied0;
    task_span.set_args(
        static_cast<double>(e->heap()->stats().minor_count +
                            e->heap()->stats().full_count - gcs0),
        static_cast<double>(tc.metrics().denied_reservations));
    sink_.Report(p, tc.metrics());
    return;
  }
}

void SparkContext::RunRemoteAttempts(
    int stage, int p, bool collect, double queue_ms,
    std::vector<std::vector<uint8_t>>* results) {
  const int e = scheduler_.ExecutorOfPartition(p);
  const int max_attempts = std::max(1, config_.max_task_failures);
  for (int attempt = 0;; ++attempt) {
    exec::RemoteTaskEnvelope env;
    env.stage = stage;
    env.partition = p;
    env.attempt = attempt;
    // RunTask throws fault::ExecutorLostError if the daemon died — never
    // resent; it propagates to the stage-quarantine handler.
    exec::RemoteTaskOutcome out = config_.runtime.driver->RunTask(e, env);
    remote_fired_.fetch_add(out.fired_delta, std::memory_order_relaxed);
    if (out.status == exec::RemoteTaskStatus::kOk) {
      TaskMetrics m = out.metrics;
      m.queue_ms = queue_ms;  // the driver-side dispatch queue time
      sink_.Report(p, m);
      if (collect && results != nullptr) {
        (*results)[static_cast<size_t>(p)] = std::move(out.result);
      }
      return;
    }
    if (out.status == exec::RemoteTaskStatus::kFatal) {
      throw std::runtime_error("remote task failed (stage " +
                               std::to_string(stage) + ", partition " +
                               std::to_string(p) + "): " + out.message);
    }
    // Retryable — the same bookkeeping the in-process attempt loop does.
    if (attempt + 1 >= max_attempts) {
      switch (out.status) {
        case exec::RemoteTaskStatus::kFetchFailure:
          throw fault::ShuffleFetchFailure(stage, p, attempt);
        case exec::RemoteTaskStatus::kOom:
          throw fault::TaskOomFailure(stage, p, attempt, out.heap_dump);
        default:
          throw fault::InjectedTaskFailure(stage, p, attempt);
      }
    }
    DECA_LOG(Warning) << "retrying remote task (stage " << stage
                      << ", partition " << p << ", attempt " << attempt
                      << ")";
    task_retries_.fetch_add(1, std::memory_order_relaxed);
    obs::Instant(obs::Cat::kTask, "retry", attempt);
  }
}

std::vector<std::vector<uint8_t>> SparkContext::ServeStage(
    int stage, const std::function<void(TaskContext&)>& task,
    const CollectFn* collect) {
  DistWorker* worker = config_.runtime.worker;
  while (true) {
    DistWorker::Command cmd = worker->NextCommand();
    switch (cmd.kind) {
      case DistWorker::Command::Kind::kTask:
        worker->Reply(ExecuteRemoteAttempt(stage, cmd.env, task, collect));
        break;
      case DistWorker::Command::Kind::kStageDone: {
        DECA_CHECK_EQ(cmd.stage, stage)
            << "stage-done for a stage this daemon is not serving";
        executors_[static_cast<size_t>(config_.runtime.my_executor)]
            ->VerifyMemoryAccounting();
        worker->StageAck(BuildLocalSnapshot());
        return std::move(cmd.blobs);
      }
      case DistWorker::Command::Kind::kShutdown:
        // Unwinds through the workload program; the daemon main catches
        // it, so destructors (spill cleanup) still run.
        throw WorkerShutdown{};
    }
  }
}

exec::RemoteTaskOutcome SparkContext::ExecuteRemoteAttempt(
    int stage, const exec::RemoteTaskEnvelope& env,
    const std::function<void(TaskContext&)>& task, const CollectFn* collect) {
  exec::RemoteTaskOutcome out;
  const int p = env.partition;
  const int nparts = num_partitions();
  Executor* e = executor_for_partition(p);
  DECA_CHECK_EQ(e->id(), config_.runtime.my_executor)
      << "envelope for a partition this daemon does not own";
  if (env.replay_token >= 0) {
    // Lineage replay: clean execution — no injection, no retries, no
    // metric reports — exactly like the in-process RecoverLostState body.
    for (auto& rs : replay_stages_) {
      if (rs.token != env.replay_token) continue;
      TaskContext tc(this, e, p, nparts);
      rs.fn(tc);
      return out;
    }
    out.status = exec::RemoteTaskStatus::kFatal;
    out.message = "unknown replay token " + std::to_string(env.replay_token);
    return out;
  }
  TaskContext tc(this, e, p, nparts);
  double gc0 = e->heap()->stats().TotalPauseMs();
  uint64_t denied0 = e->memory()->denied_reservations();
  Stopwatch sw;
  try {
    injector_.OnTaskAttempt(stage, p, env.attempt, e->heap());
    if (collect != nullptr) {
      out.result = (*collect)(tc);
    } else {
      task(tc);
    }
    e->heap()->ForceAllocationFailures(0);
  } catch (const fault::ShuffleFetchFailure&) {
    e->heap()->ForceAllocationFailures(0);
    out.status = exec::RemoteTaskStatus::kFetchFailure;
  } catch (const fault::TaskFailure&) {
    e->heap()->ForceAllocationFailures(0);
    out.status = exec::RemoteTaskStatus::kInjectedFailure;
  } catch (const jvm::OutOfMemoryError& oom) {
    e->heap()->ForceAllocationFailures(0);
    out.status = exec::RemoteTaskStatus::kOom;
    out.heap_dump = oom.heap_dump();
  } catch (const net::ConnectError& ce) {
    // A shuffle fetch hit a dead peer daemon: retryable like any other
    // fetch failure — the driver's bounded attempt loop decides.
    e->heap()->ForceAllocationFailures(0);
    out.status = exec::RemoteTaskStatus::kFetchFailure;
    out.message = ce.what();
  } catch (const std::exception& ex) {
    e->heap()->ForceAllocationFailures(0);
    out.status = exec::RemoteTaskStatus::kFatal;
    out.message = ex.what();
  }
  if (out.status == exec::RemoteTaskStatus::kOk) {
    tc.metrics().total_ms = sw.ElapsedMillis();
    tc.metrics().gc_ms = e->heap()->stats().TotalPauseMs() - gc0;
    const memory::ExecutorMemoryManager* mm = e->memory();
    tc.metrics().exec_pool_peak_bytes = mm->exec_peak();
    tc.metrics().storage_pool_peak_bytes = mm->storage_peak();
    tc.metrics().denied_reservations = mm->denied_reservations() - denied0;
    out.metrics = tc.metrics();
  } else {
    out.result.clear();
  }
  out.fired_delta = injector_.TakeFired();
  return out;
}

void SparkContext::MarkExecutorLost(int e) {
  DECA_CHECK_GE(e, 0);
  DECA_CHECK_LT(e, num_executors());
  // The daemon's heaps, cache blocks and deposited map outputs died with
  // its process — only the driver-side bookkeeping needs the in-process
  // wipe treatment so lineage replay and counters stay identical.
  for (auto* l : wipe_listeners_) l->OnExecutorWipe(e);
  for (auto& rs : replay_stages_) {
    for (int p = 0; p < num_partitions(); ++p) {
      if (scheduler_.ExecutorOfPartition(p) != e) continue;
      rs.lost.insert(p);
    }
  }
  ++metrics_.executor_wipes;
  obs::Instant(obs::Cat::kSched, "wipe", e);
}

ExecutorSnapshot SparkContext::BuildLocalSnapshot() const {
  Executor* e =
      executors_[static_cast<size_t>(config_.runtime.my_executor)].get();
  ExecutorSnapshot s;
  s.gc_pause_ms = e->heap()->stats().TotalPauseMs();
  s.concurrent_gc_ms = e->heap()->stats().concurrent_ms;
  s.minor_gcs = e->heap()->stats().minor_count;
  s.full_gcs = e->heap()->stats().full_count;
  s.oom_recoveries = e->heap()->stats().oom_recoveries;
  s.cached_bytes = e->cache()->memory_bytes();
  s.peak_cached_bytes = e->cache()->peak_memory_bytes();
  s.swapped_bytes = e->cache()->disk_bytes();
  s.pressure_evictions = e->cache()->pressure_evictions();
  s.tier = e->cache()->tier_counters();
  s.memory = e->memory()->Snapshot();
  s.pauses = HeapPauses(*e->heap());
  s.alloc = e->alloc_counter().Stats();
  const int n = shuffle_->num_shuffles();
  s.shuffle_bytes.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    s.shuffle_bytes[static_cast<size_t>(i)] = shuffle_->total_bytes(i);
  }
  return s;
}

void SparkContext::RunStageInternal(
    const std::string& name, const std::function<void(TaskContext&)>& task,
    const CollectFn* collect, std::vector<std::vector<uint8_t>>* results) {
  const int stage = next_stage_id_++;
  if (config_.runtime.role == DistRole::kWorker) {
    // SPMD worker: this stage is served, not run. The driver dispatches
    // envelopes; the broadcast collect blobs keep this program's
    // between-stage state identical to the driver's.
    auto blobs = ServeStage(stage, task, collect);
    if (results != nullptr) *results = std::move(blobs);
    return;
  }
  const bool remote = config_.runtime.role == DistRole::kDriver;
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
        // delivers a real SIGKILL here; heartbeat loss detects the death
        // and a respawned daemon is fast-forwarded through the program
        // log before lineage replay.
        obs::Instant(obs::Cat::kCluster, "kill", wipe);
        config_.runtime.driver->KillExecutor(wipe);
        obs::Instant(obs::Cat::kCluster, "dead", wipe);
        MarkExecutorLost(wipe);
        config_.runtime.driver->RecoverExecutor(wipe);
        obs::Instant(obs::Cat::kCluster, "respawn", wipe);
      } else {
        WipeExecutor(wipe);
      }
    }
    RecoverLostState(stage);
    Stopwatch stage_sw;
    const int nparts = num_partitions();
    if (results != nullptr) results->assign(static_cast<size_t>(nparts), {});
    const int max_stage_attempts = std::max(1, config_.max_task_failures);
    for (int stage_attempt = 0;; ++stage_attempt) {
      sink_.BeginStage(nparts);
      try {
        ScopedHeapOwnership ownership(&executors_, &scheduler_);
        scheduler_.RunStage(
            nparts,
            [&](int p, double queue_ms) {
              if (remote) {
                RunRemoteAttempts(stage, p, collect != nullptr, queue_ms,
                                  results);
              } else if (collect != nullptr) {
                RunTaskAttempts(
                    stage, p, nparts,
                    [&](TaskContext& tc) {
                      (*results)[static_cast<size_t>(tc.partition())] =
                          (*collect)(tc);
                    },
                    queue_ms);
              } else {
                RunTaskAttempts(stage, p, nparts, task, queue_ms);
              }
            },
            name.c_str());
        break;
      } catch (const fault::ExecutorLostError& lost) {
        // Quarantine: the stage's partial results are discarded — sink
        // and collect blobs alike — never merged. Recover the executor,
        // replay what died with it, and retry the whole stage.
        if (stage_attempt + 1 >= max_stage_attempts) throw;
        DECA_LOG(Warning) << "quarantining stage " << stage << ": "
                          << lost.what();
        config_.runtime.driver->NoteStageQuarantine();
        if (results != nullptr) {
          results->assign(static_cast<size_t>(nparts), {});
        }
        obs::Instant(obs::Cat::kCluster, "dead", lost.executor());
        MarkExecutorLost(lost.executor());
        config_.runtime.driver->RecoverExecutor(lost.executor());
        obs::Instant(obs::Cat::kCluster, "respawn", lost.executor());
        RecoverLostState(stage);
        continue;
      }
    }
    if (remote) {
      // Stage barrier broadcast: every daemon leaves its serve loop,
      // folds the same collect blobs, and acks with its stats snapshot
      // (which the Total* getters read).
      static const std::vector<std::vector<uint8_t>> kNoBlobs;
      snapshots_ = config_.runtime.driver->StageDone(
          stage, results != nullptr ? *results : kNoBlobs);
    }
    // Post-barrier: fold task metrics in partition order (deterministic
    // regardless of completion order).
    sink_.EndStage(&metrics_);
    metrics_.wall_ms += stage_sw.ElapsedMillis();
    metrics_.task_retries += task_retries_.exchange(0);
    metrics_.injected_faults +=
        remote ? remote_fired_.exchange(0) : injector_.TakeFired();
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
  RunStageInternal(name, task, nullptr, nullptr);
}

std::vector<std::vector<uint8_t>> SparkContext::RunCollectStage(
    const std::string& name, const CollectFn& fn) {
  std::vector<std::vector<uint8_t>> results;
  RunStageInternal(name, {}, &fn, &results);
  return results;
}

int SparkContext::RunMapStage(const std::string& name, int shuffle_id,
                              const std::function<void(TaskContext&)>& task) {
  RunStageInternal(name, task, nullptr, nullptr);
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
  // Stale-reference drop must precede the heap reset: listeners still
  // hold refs into the dying heap.
  for (auto* l : wipe_listeners_) l->OnExecutorWipe(e);
  executors_[static_cast<size_t>(e)]->Wipe();
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
  bool any = false;
  for (const auto& rs : replay_stages_) {
    if (!rs.lost.empty()) any = true;
  }
  if (!any) return;
  if (config_.runtime.role == DistRole::kDriver) {
    // Replay over RPC, in original execution order, partitions ascending
    // (std::set order): the respawned daemon's fresh heap sees the same
    // allocation history prefix a fresh in-process run would produce.
    for (auto& rs : replay_stages_) {
      if (rs.lost.empty()) continue;
      for (int p : rs.lost) {
        exec::RemoteTaskEnvelope env;
        env.stage = stage;
        env.partition = p;
        env.attempt = -1;
        env.replay_token = rs.token;
        exec::RemoteTaskOutcome out = config_.runtime.driver->RunTask(
            scheduler_.ExecutorOfPartition(p), env);
        if (out.status != exec::RemoteTaskStatus::kOk) {
          throw std::runtime_error("lineage replay failed (" + rs.name +
                                   ", partition " + std::to_string(p) +
                                   "): " + out.message);
        }
      }
      obs::Instant(obs::Cat::kCluster, "replay",
                   static_cast<double>(rs.lost.size()));
      if (rs.shuffle_id < 0) {
        metrics_.recomputed_blocks += rs.lost.size();
      }
      rs.lost.clear();
    }
    return;
  }
  // Replay in original execution order so the wiped executor's heap sees
  // the same allocation history prefix a fresh run would produce. Replay
  // runs clean: no injection, no retry bookkeeping, no metric reports.
  const int nparts = num_partitions();
  ScopedHeapOwnership ownership(&executors_, &scheduler_);
  for (auto& rs : replay_stages_) {
    if (rs.lost.empty()) continue;
    std::string stage_name = "recover:" + rs.name;
    scheduler_.RunStage(
        nparts,
        [&](int p, double) {
          if (rs.lost.count(p) == 0) return;
          Executor* e = executor_for_partition(p);
          // Replay windows carry attempt = -1: they belong to the
          // upcoming stage's trace but are distinguishable from its
          // regular task attempts.
          obs::TraceRecorder* rec = tracer_.executor(e->id());
          if (rec != nullptr) rec->BeginWindow(stage, p, -1);
          obs::ScopedRecorder trace_scope(rec);
          obs::ScopedSpan span(obs::Cat::kTask, "recover");
          TaskContext tc(this, e, p, nparts);
          rs.fn(tc);
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

// The Total* getters are role-aware: the SPMD driver's local executors
// never run a task, so it reads the per-daemon snapshots piggybacked on
// the last stage barrier instead. Each daemon reports only the executor
// it hosts, so the sums equal the in-process run's bit for bit.

double SparkContext::TotalGcPauseMs() const {
  if (config_.runtime.role == DistRole::kDriver) {
    double total = 0;
    for (const auto& s : snapshots_) total += s.gc_pause_ms;
    return total;
  }
  double total = 0;
  for (const auto& e : executors_) {
    total += e->heap()->stats().TotalPauseMs();
  }
  return total;
}

double SparkContext::TotalConcurrentGcMs() const {
  if (config_.runtime.role == DistRole::kDriver) {
    double total = 0;
    for (const auto& s : snapshots_) total += s.concurrent_gc_ms;
    return total;
  }
  double total = 0;
  for (const auto& e : executors_) {
    total += e->heap()->stats().concurrent_ms;
  }
  return total;
}

uint64_t SparkContext::TotalMinorGcs() const {
  if (config_.runtime.role == DistRole::kDriver) {
    uint64_t total = 0;
    for (const auto& s : snapshots_) total += s.minor_gcs;
    return total;
  }
  uint64_t total = 0;
  for (const auto& e : executors_) {
    total += e->heap()->stats().minor_count;
  }
  return total;
}

uint64_t SparkContext::TotalFullGcs() const {
  if (config_.runtime.role == DistRole::kDriver) {
    uint64_t total = 0;
    for (const auto& s : snapshots_) total += s.full_gcs;
    return total;
  }
  uint64_t total = 0;
  for (const auto& e : executors_) {
    total += e->heap()->stats().full_count;
  }
  return total;
}

GcPauseSummary SparkContext::TotalGcPauses() const {
  GcPauseSummary total;
  if (config_.runtime.role == DistRole::kDriver) {
    for (const auto& s : snapshots_) total.Add(s.pauses);
    return total;
  }
  for (const auto& e : executors_) total.Add(HeapPauses(*e->heap()));
  return total;
}

uint64_t SparkContext::CachedMemoryBytes() const {
  if (config_.runtime.role == DistRole::kDriver) {
    uint64_t total = 0;
    for (const auto& s : snapshots_) total += s.cached_bytes;
    return total;
  }
  uint64_t total = 0;
  for (const auto& e : executors_) {
    total += e->cache()->memory_bytes();
  }
  return total;
}

uint64_t SparkContext::PeakCachedMemoryBytes() const {
  if (config_.runtime.role == DistRole::kDriver) {
    uint64_t total = 0;
    for (const auto& s : snapshots_) total += s.peak_cached_bytes;
    return total;
  }
  uint64_t total = 0;
  for (const auto& e : executors_) {
    total += e->cache()->peak_memory_bytes();
  }
  return total;
}

uint64_t SparkContext::SwappedBytes() const {
  if (config_.runtime.role == DistRole::kDriver) {
    uint64_t total = 0;
    for (const auto& s : snapshots_) total += s.swapped_bytes;
    return total;
  }
  uint64_t total = 0;
  for (const auto& e : executors_) {
    total += e->cache()->disk_bytes();
  }
  return total;
}

uint64_t SparkContext::TotalPressureEvictions() const {
  if (config_.runtime.role == DistRole::kDriver) {
    uint64_t total = 0;
    for (const auto& s : snapshots_) total += s.pressure_evictions;
    return total;
  }
  uint64_t total = 0;
  for (const auto& e : executors_) {
    total += e->cache()->pressure_evictions();
  }
  return total;
}

TierCounters SparkContext::TotalTierCounters() const {
  TierCounters total;
  if (config_.runtime.role == DistRole::kDriver) {
    for (const auto& s : snapshots_) total.Add(s.tier);
    return total;
  }
  for (const auto& e : executors_) {
    total.Add(e->cache()->tier_counters());
  }
  return total;
}

alloc::AllocStats SparkContext::TotalAllocStats() const {
  alloc::AllocStats total;
  if (config_.runtime.role == DistRole::kDriver) {
    for (const auto& s : snapshots_) total.Add(s.alloc);
  } else {
    for (const auto& e : executors_) {
      total.Add(e->alloc_counter().Stats());
    }
  }
  return total;
}

uint64_t SparkContext::TotalOomRecoveries() const {
  if (config_.runtime.role == DistRole::kDriver) {
    uint64_t total = 0;
    for (const auto& s : snapshots_) total += s.oom_recoveries;
    return total;
  }
  uint64_t total = 0;
  for (const auto& e : executors_) {
    total += e->heap()->stats().oom_recoveries;
  }
  return total;
}

uint64_t SparkContext::TotalStoragePoolPeakBytes() const {
  if (config_.runtime.role == DistRole::kDriver) {
    uint64_t total = 0;
    for (const auto& s : snapshots_) total += s.memory.storage_peak;
    return total;
  }
  uint64_t total = 0;
  for (const auto& e : executors_) total += e->memory()->storage_peak();
  return total;
}

uint64_t SparkContext::TotalDeniedReservations() const {
  if (config_.runtime.role == DistRole::kDriver) {
    uint64_t total = 0;
    for (const auto& s : snapshots_) total += s.memory.denied_reservations;
    return total;
  }
  uint64_t total = 0;
  for (const auto& e : executors_) {
    total += e->memory()->denied_reservations();
  }
  return total;
}

std::vector<memory::MemoryStats> SparkContext::ExecutorMemorySnapshots()
    const {
  std::vector<memory::MemoryStats> out;
  if (config_.runtime.role == DistRole::kDriver) {
    out.reserve(snapshots_.size());
    for (const auto& s : snapshots_) out.push_back(s.memory);
    return out;
  }
  out.reserve(executors_.size());
  for (const auto& e : executors_) out.push_back(e->memory()->Snapshot());
  return out;
}

uint64_t SparkContext::ShuffleTotalBytes(int shuffle_id) const {
  if (config_.runtime.role == DistRole::kDriver) {
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
  if (config_.runtime.role == DistRole::kDriver) {
    return config_.runtime.driver->counters();
  }
  return ClusterCounters{};
}

}  // namespace deca::spark
