#include "cluster/cluster_manager.h"

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>
#include <utility>

#include "common/logging.h"
#include "fault/task_failure.h"
#include "net/socket_io.h"

namespace deca::cluster {

namespace {

/// Directory of the running binary, via /proc/self/exe.
std::string SelfDir() {
  char buf[4096];
  ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return std::string();
  buf[n] = '\0';
  std::string path(buf);
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

}  // namespace

ClusterManager::ClusterManager(const spark::SparkConfig& config,
                               std::string workload,
                               std::vector<uint8_t> params)
    : config_(config),
      workload_(std::move(workload)),
      params_(std::move(params)) {
  // The spec codec never ships process-local wiring.
  config_.runtime = spark::ClusterRuntime();
}

ClusterManager::~ClusterManager() { Shutdown(); }

void ClusterManager::Start() {
  DECA_CHECK(!started_);
  started_ = true;
  // The daemon table is fully built before the registration server (and
  // its connection threads) exists: server threads index it freely, and
  // it never grows or shrinks afterwards.
  daemons_.resize(static_cast<size_t>(config_.num_executors));
  for (int e = 0; e < config_.num_executors; ++e) {
    daemons_[static_cast<size_t>(e)] = std::make_unique<Daemon>();
    if (e == config_.cluster.test_suppress_heartbeats_executor) {
      daemons_[static_cast<size_t>(e)]->suppress_left =
          config_.cluster.test_suppress_heartbeats_count;
    }
  }
  reg_server_ = std::make_unique<net::RpcServer>();
  reg_server_->Serve([this](const std::vector<uint8_t>& frame) {
    return HandleRegistration(frame);
  });
  for (int e = 0; e < config_.num_executors; ++e) Spawn(e);
  for (int e = 0; e < config_.num_executors; ++e) WaitReady(e);
  for (int e = 0; e < config_.num_executors; ++e) CreateClients(e);
  BroadcastPeers();
  monitor_ = std::thread([this] { MonitorLoop(); });
}

void ClusterManager::Shutdown() {
  if (!started_ || shut_down_) return;
  shut_down_ = true;
  {
    std::lock_guard<std::mutex> lock(monitor_mu_);
    stopping_ = true;
  }
  monitor_cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();

  std::vector<uint8_t> frame = net::CtrlFrame(net::CtrlType::kShutdown);
  for (int e = 0; e < config_.num_executors; ++e) {
    Daemon* d = daemons_[static_cast<size_t>(e)].get();
    if (d == nullptr || d->pid < 0) continue;
    if (!d->dead) {
      try {
        SendOnDispatch(e, -1, frame);
      } catch (const std::exception&) {
        // Daemon already gone; the SIGKILL below settles it.
      }
    }
    if (!d->reaped) {
      // Grace period for a clean exit, then the hammer.
      bool exited = false;
      for (int i = 0; i < 200; ++i) {
        if (waitpid(d->pid, nullptr, WNOHANG) == d->pid) {
          exited = true;
          break;
        }
        usleep(10 * 1000);
      }
      if (!exited) {
        kill(d->pid, SIGKILL);
        waitpid(d->pid, nullptr, 0);
      }
      d->reaped = true;
    }
  }
  reg_server_->Stop();
}

std::vector<uint8_t> ClusterManager::HandleRegistration(
    const std::vector<uint8_t>& frame) {
  net::CtrlType type = net::CtrlTypeOf(frame);
  if (type == net::CtrlType::kHello) {
    HelloMsg hello;
    net::ReadCtrl(frame, net::CtrlType::kHello, &hello);
    DECA_CHECK(hello.executor >= 0 && hello.executor < config_.num_executors);
    Daemon* d = daemons_[static_cast<size_t>(hello.executor)].get();
    {
      std::lock_guard<std::mutex> lock(reg_mu_);
      DECA_CHECK_EQ(hello.generation, d->generation)
          << "stale daemon generation for executor " << hello.executor;
      d->control_port = hello.control_port;
    }
    JobSpec spec;
    spec.config = config_;
    spec.workload = workload_;
    spec.params = params_;
    return net::CtrlFrame(net::CtrlType::kSpec, spec);
  }
  ReadyMsg ready;
  net::ReadCtrl(frame, net::CtrlType::kReady, &ready);
  DECA_CHECK(ready.executor >= 0 && ready.executor < config_.num_executors);
  Daemon* d = daemons_[static_cast<size_t>(ready.executor)].get();
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    DECA_CHECK_EQ(ready.generation, d->generation);
    d->data_port = ready.data_port;
    d->ready = true;
  }
  reg_cv_.notify_all();
  return net::CtrlFrame(net::CtrlType::kReadyAck);
}

std::string ClusterManager::FindExecutord() const {
  if (!config_.cluster.executord_path.empty()) {
    return config_.cluster.executord_path;
  }
  const char* env = std::getenv("DECA_EXECUTORD");
  if (env != nullptr && env[0] != '\0') return env;
  std::string dir = SelfDir();
  std::string tried;
  if (!dir.empty()) {
    const char* candidates[] = {
        "/deca_executord",
        "/../cluster/deca_executord",
        "/../src/cluster/deca_executord",
        "/../../src/cluster/deca_executord",
    };
    for (const char* c : candidates) {
      std::string path = dir + c;
      if (access(path.c_str(), X_OK) == 0) return path;
      tried += " " + path;
    }
  }
  DECA_CHECK(false) << "deca_executord not found (set DECA_EXECUTORD or "
                       "cluster.executord_path); tried:"
                    << tried;
  return std::string();
}

void ClusterManager::Spawn(int executor) {
  Daemon* d = daemons_[static_cast<size_t>(executor)].get();
  std::string path = FindExecutord();
  std::string arg_port =
      "--driver-port=" + std::to_string(reg_server_->port());
  std::string arg_exec = "--executor=" + std::to_string(executor);
  std::string arg_gen;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    arg_gen = "--generation=" + std::to_string(d->generation);
  }
  char* argv[] = {const_cast<char*>(path.c_str()),
                  const_cast<char*>(arg_port.c_str()),
                  const_cast<char*>(arg_exec.c_str()),
                  const_cast<char*>(arg_gen.c_str()), nullptr};
  pid_t pid = fork();
  DECA_CHECK(pid >= 0) << "fork failed: " << std::strerror(errno);
  if (pid == 0) {
    // Die with the driver: no orphan daemons if the driver crashes.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    execv(path.c_str(), argv);
    _exit(127);
  }
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    d->pid = pid;
  }
  d->reaped = false;
  c_spawned_.fetch_add(1, std::memory_order_relaxed);
}

void ClusterManager::WaitReady(int executor) {
  Daemon* d = daemons_[static_cast<size_t>(executor)].get();
  std::unique_lock<std::mutex> lock(reg_mu_);
  bool ok = reg_cv_.wait_for(lock, std::chrono::seconds(30),
                             [d] { return d->ready; });
  DECA_CHECK(ok) << "executor " << executor
                 << " daemon failed to register within 30s";
}

void ClusterManager::CreateClients(int executor) {
  Daemon* d = daemons_[static_cast<size_t>(executor)].get();
  uint16_t port;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    port = d->control_port;
  }
  d->dispatch = std::make_unique<net::RpcClient>(
      port, config_.cluster.connect_attempts,
      config_.cluster.retry_backoff_base_ms);
  // A heartbeat miss must be a miss: one connect attempt, no masking.
  d->heartbeat = std::make_unique<net::RpcClient>(
      port, /*connect_attempts=*/1, config_.cluster.retry_backoff_base_ms);
}

void ClusterManager::BroadcastPeers() {
  std::vector<std::pair<int, uint16_t>> peers;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    for (int e = 0; e < config_.num_executors; ++e) {
      Daemon* d = daemons_[static_cast<size_t>(e)].get();
      if (d->ready) peers.emplace_back(e, d->data_port);
    }
  }
  std::vector<uint8_t> frame =
      net::CtrlFrame(net::CtrlType::kUpdatePeers, peers);
  for (const auto& [e, port] : peers) {
    net::ReadCtrl(SendOnDispatch(e, -1, frame), net::CtrlType::kPeersAck);
  }
}

std::vector<uint8_t> ClusterManager::SendOnDispatch(
    int executor, int stage, const std::vector<uint8_t>& frame) {
  Daemon* d = daemons_[static_cast<size_t>(executor)].get();
  c_rpc_messages_.fetch_add(1, std::memory_order_relaxed);
  try {
    std::lock_guard<std::mutex> lock(d->dispatch_mu);
    DECA_CHECK(d->dispatch != nullptr);
    return d->dispatch->Call(frame, config_.cluster.rpc_deadline_ms);
  } catch (const net::ConnectError& err) {
    throw fault::ExecutorLostError(executor, stage, err.what());
  } catch (const net::RpcError& err) {
    throw fault::ExecutorLostError(executor, stage, err.what());
  }
}

exec::RemoteTaskOutcome ClusterManager::RunTask(
    int executor, const exec::RemoteTaskEnvelope& env) {
  if (IsDead(daemons_[static_cast<size_t>(executor)].get())) {
    throw fault::ExecutorLostError(executor, env.stage,
                                   "executor marked dead");
  }
  exec::RemoteTaskOutcome outcome;
  net::ReadCtrl(SendOnDispatch(executor, env.stage,
                               net::CtrlFrame(net::CtrlType::kLaunchTask, env)),
                net::CtrlType::kTaskResult, &outcome);
  return outcome;
}

spark::ExecutorSnapshot ClusterManager::SendStageDone(
    int executor, const StageDoneMsg& msg) {
  spark::ExecutorSnapshot snapshot;
  net::ReadCtrl(SendOnDispatch(executor, msg.stage,
                               net::CtrlFrame(net::CtrlType::kStageDone, msg)),
                net::CtrlType::kStageAck, &snapshot);
  return snapshot;
}

std::vector<spark::ExecutorSnapshot> ClusterManager::StageDone(
    int stage, const std::vector<std::vector<uint8_t>>& blobs) {
  log_.push_back(StageDoneMsg{stage, blobs});
  // A stage-barrier failure is a job failure (ExecutorLostError
  // propagates): the stage completed but its results can't be
  // broadcast, so no daemon may advance.
  std::vector<spark::ExecutorSnapshot> snapshots(
      static_cast<size_t>(config_.num_executors));
  for (int e = 0; e < config_.num_executors; ++e) {
    snapshots[static_cast<size_t>(e)] = SendStageDone(e, log_.back());
  }
  return snapshots;
}

void ClusterManager::KillExecutor(int executor) {
  Daemon* d = daemons_[static_cast<size_t>(executor)].get();
  pid_t pid;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    pid = d->pid;
  }
  c_killed_.fetch_add(1, std::memory_order_relaxed);
  kill(pid, SIGKILL);
  // The point of the exercise: the driver learns of the death the same
  // way it would learn of a real one — missed heartbeats, failed
  // probes — not by watching the child.
  WaitDead(executor);
}

void ClusterManager::RecoverExecutor(int executor) {
  Daemon* d = daemons_[static_cast<size_t>(executor)].get();
  WaitDead(executor);
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    ++d->generation;
    d->ready = false;
    d->control_port = 0;
    d->data_port = 0;
  }
  {
    std::lock_guard<std::mutex> lock(d->dispatch_mu);
    d->dispatch.reset();
    d->heartbeat.reset();
  }
  Spawn(executor);
  WaitReady(executor);
  CreateClients(executor);
  // Fast-forward: replay every stage barrier so the daemon's program
  // arrives at the current stage with identical driver-side state; the
  // SparkContext then replays lost lineage on top of it.
  for (const StageDoneMsg& msg : log_) SendStageDone(executor, msg);
  BroadcastPeers();
  {
    std::lock_guard<std::mutex> lock(monitor_mu_);
    d->misses = 0;
    d->dead = false;
    d->reaped = false;
  }
  c_respawned_.fetch_add(1, std::memory_order_relaxed);
}

void ClusterManager::NoteStageQuarantine() {
  c_quarantines_.fetch_add(1, std::memory_order_relaxed);
}

spark::ClusterCounters ClusterManager::counters() const {
  spark::ClusterCounters c;
  c.executors_spawned = c_spawned_.load(std::memory_order_relaxed);
  c.executors_killed = c_killed_.load(std::memory_order_relaxed);
  c.executors_respawned = c_respawned_.load(std::memory_order_relaxed);
  c.executors_declared_dead = c_declared_dead_.load(std::memory_order_relaxed);
  c.heartbeats_sent = c_heartbeats_sent_.load(std::memory_order_relaxed);
  c.heartbeat_misses = c_heartbeat_misses_.load(std::memory_order_relaxed);
  c.reconnect_probes = c_reconnect_probes_.load(std::memory_order_relaxed);
  c.stage_quarantines = c_quarantines_.load(std::memory_order_relaxed);
  c.rpc_messages = c_rpc_messages_.load(std::memory_order_relaxed);
  return c;
}

bool ClusterManager::IsDead(Daemon* d) {
  std::lock_guard<std::mutex> lock(monitor_mu_);
  return d->dead;
}

bool ClusterManager::PingOnce(net::RpcClient* client, int deadline_ms) {
  static const std::vector<uint8_t> kPing =
      net::CtrlFrame(net::CtrlType::kHeartbeat);
  try {
    return net::CtrlTypeOf(client->Call(kPing, deadline_ms)) ==
           net::CtrlType::kHeartbeatAck;
  } catch (const std::exception&) {
    return false;
  }
}

void ClusterManager::DeclareDead(int executor, Daemon* d) {
  (void)executor;
  pid_t pid;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    pid = d->pid;
  }
  // Make the verdict true before acting on it: a wedged-but-alive
  // daemon must not keep mutating state after the driver gives its
  // partitions away.
  kill(pid, SIGKILL);
  waitpid(pid, nullptr, 0);
  {
    std::lock_guard<std::mutex> lock(monitor_mu_);
    d->dead = true;
    d->reaped = true;
  }
  c_declared_dead_.fetch_add(1, std::memory_order_relaxed);
  monitor_cv_.notify_all();
}

void ClusterManager::WaitDead(int executor) {
  Daemon* d = daemons_[static_cast<size_t>(executor)].get();
  std::unique_lock<std::mutex> lock(monitor_mu_);
  monitor_cv_.wait(lock, [d] { return d->dead; });
}

void ClusterManager::MonitorLoop() {
  const int interval = std::max(1, config_.cluster.heartbeat_interval_ms);
  // A slow ack is not a death: a loaded machine can delay a healthy
  // daemon's reply well past the ping cadence, so the deadline is far
  // larger than the interval. A dead peer still fails fast (refused or
  // reset connection), so detection latency stays at the miss threshold.
  const int ping_deadline = std::max(250, 5 * interval);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(monitor_mu_);
      monitor_cv_.wait_for(lock, std::chrono::milliseconds(interval),
                           [this] { return stopping_; });
      if (stopping_) return;
    }
    for (int e = 0; e < config_.num_executors; ++e) {
      Daemon* d = daemons_[static_cast<size_t>(e)].get();
      // IsDead first: during a recovery the daemon stays flagged dead
      // until its fresh heartbeat client is fully wired (both under
      // monitor_mu_), so this read never races the client reset.
      if (IsDead(d) || d->heartbeat == nullptr) continue;
      if (d->suppress_left > 0) {
        // Test hook: this ping "was lost in the network" — never sent,
        // counted as a miss, probed like the real thing.
        --d->suppress_left;
        ++d->misses;
        c_heartbeat_misses_.fetch_add(1, std::memory_order_relaxed);
      } else {
        c_heartbeats_sent_.fetch_add(1, std::memory_order_relaxed);
        if (PingOnce(d->heartbeat.get(), ping_deadline)) {
          d->misses = 0;
          continue;
        }
        ++d->misses;
        c_heartbeat_misses_.fetch_add(1, std::memory_order_relaxed);
      }
      if (d->misses < config_.cluster.heartbeat_miss_threshold) continue;
      // Escalate: exponential-backoff reconnect probes on fresh
      // connections before declaring death.
      uint16_t port;
      {
        std::lock_guard<std::mutex> lock(reg_mu_);
        port = d->control_port;
      }
      bool alive = false;
      int backoff = std::max(1, config_.cluster.retry_backoff_base_ms);
      for (int i = 0; i < config_.cluster.reconnect_probes; ++i) {
        usleep(static_cast<useconds_t>(std::min(backoff, 500) * 1000));
        backoff *= 2;
        c_reconnect_probes_.fetch_add(1, std::memory_order_relaxed);
        net::RpcClient probe(port, /*connect_attempts=*/1,
                             config_.cluster.retry_backoff_base_ms);
        if (PingOnce(&probe, ping_deadline)) {
          alive = true;
          break;
        }
      }
      if (alive) {
        d->misses = 0;
      } else {
        DeclareDead(e, d);
      }
    }
  }
}

}  // namespace deca::cluster
