#ifndef DECA_CLUSTER_CLUSTER_MANAGER_H_
#define DECA_CLUSTER_CLUSTER_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <sys/types.h>
#include <thread>
#include <vector>

#include "cluster/job_spec.h"
#include "net/control.h"
#include "spark/dist.h"

namespace deca::cluster {

/// Driver-side control plane: spawns one deca_executord per executor
/// (fork/exec), completes the registration handshake, dispatches task
/// envelopes and stage barriers over RPC, and watches liveness with a
/// heartbeat monitor thread. A daemon that misses
/// `heartbeat_miss_threshold` consecutive pings gets
/// `reconnect_probes` exponential-backoff probes on a fresh connection
/// before being declared dead (SIGKILLed for certainty, then reaped).
///
/// Failure semantics: dispatch RPC failures surface as
/// fault::ExecutorLostError so the stage's partial results are
/// quarantined, never merged; stage barriers and registration failures
/// are job failures. Respawned daemons are fast-forwarded through the
/// program log (every stage barrier replayed in order), then the
/// SparkContext replays lost lineage on top.
class ClusterManager : public spark::DistDriver {
 public:
  /// `config.runtime` is ignored (the manager serves the driver role
  /// that fills it); everything else ships to the daemons verbatim.
  ClusterManager(const spark::SparkConfig& config, std::string workload,
                 std::vector<uint8_t> params);
  ~ClusterManager() override;

  ClusterManager(const ClusterManager&) = delete;
  ClusterManager& operator=(const ClusterManager&) = delete;

  /// Spawns and registers every daemon, broadcasts the data-plane peer
  /// table, and starts the heartbeat monitor. Throws on registration
  /// timeout (e.g. the executord binary was not found by any probe
  /// path — set DECA_EXECUTORD or cluster.executord_path).
  void Start();

  /// Orders every live daemon down, reaps all children, joins the
  /// monitor. Idempotent; also run by the destructor.
  void Shutdown();

  // spark::DistDriver:
  exec::RemoteTaskOutcome RunTask(
      int executor, const exec::RemoteTaskEnvelope& env) override;
  std::vector<spark::ExecutorSnapshot> StageDone(
      int stage, const std::vector<std::vector<uint8_t>>& blobs) override;
  void KillExecutor(int executor) override;
  void RecoverExecutor(int executor) override;
  void NoteStageQuarantine() override;
  spark::ClusterCounters counters() const override;

 private:
  struct Daemon {
    // Registration state, guarded by reg_mu_.
    pid_t pid = -1;
    int generation = 0;
    uint16_t control_port = 0;
    uint16_t data_port = 0;
    bool ready = false;

    // Liveness state, guarded by monitor_mu_.
    bool dead = false;
    bool reaped = false;

    // Monitor-thread-only state.
    int misses = 0;
    int suppress_left = 0;  // test hook: pretend the next N pings were lost

    // One client per plane so heartbeats never queue behind a running
    // task's dispatch round trip.
    std::unique_ptr<net::RpcClient> dispatch;
    std::unique_ptr<net::RpcClient> heartbeat;
    std::mutex dispatch_mu;  // serializes dispatch-client use
  };

  std::vector<uint8_t> HandleRegistration(const std::vector<uint8_t>& frame);
  std::string FindExecutord() const;
  void Spawn(int executor);
  void WaitReady(int executor);
  void CreateClients(int executor);
  void BroadcastPeers();
  /// One dispatch round trip; maps transport failures to
  /// fault::ExecutorLostError(executor, stage).
  std::vector<uint8_t> SendOnDispatch(int executor, int stage,
                                      const std::vector<uint8_t>& frame);
  spark::ExecutorSnapshot SendStageDone(int executor, const StageDoneMsg& msg);

  void MonitorLoop();
  bool IsDead(Daemon* d);
  bool PingOnce(net::RpcClient* client, int deadline_ms);
  void DeclareDead(int executor, Daemon* d);
  void WaitDead(int executor);

  spark::SparkConfig config_;  // runtime member cleared
  std::string workload_;
  std::vector<uint8_t> params_;

  std::unique_ptr<net::RpcServer> reg_server_;
  std::vector<std::unique_ptr<Daemon>> daemons_;

  std::mutex reg_mu_;
  std::condition_variable reg_cv_;

  std::mutex monitor_mu_;
  std::condition_variable monitor_cv_;
  bool stopping_ = false;
  std::thread monitor_;

  /// Every stage barrier in program order, for fast-forwarding
  /// respawned daemons (driver thread only).
  std::vector<StageDoneMsg> log_;

  bool started_ = false;
  bool shut_down_ = false;

  std::atomic<uint64_t> c_spawned_{0};
  std::atomic<uint64_t> c_killed_{0};
  std::atomic<uint64_t> c_respawned_{0};
  std::atomic<uint64_t> c_declared_dead_{0};
  std::atomic<uint64_t> c_heartbeats_sent_{0};
  std::atomic<uint64_t> c_heartbeat_misses_{0};
  std::atomic<uint64_t> c_reconnect_probes_{0};
  std::atomic<uint64_t> c_quarantines_{0};
  std::atomic<uint64_t> c_rpc_messages_{0};
};

}  // namespace deca::cluster

#endif  // DECA_CLUSTER_CLUSTER_MANAGER_H_
