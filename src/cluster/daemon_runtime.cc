#include "cluster/daemon_runtime.h"

#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>
#include <utility>

#include "cluster/workload_registry.h"
#include "common/logging.h"

namespace deca::cluster {

namespace {

DaemonRuntime* g_current = nullptr;

}  // namespace

DaemonRuntime* DaemonRuntime::Current() { return g_current; }

DaemonRuntime::DaemonRuntime(uint16_t driver_port, int executor,
                             int generation)
    : driver_port_(driver_port), executor_(executor), generation_(generation) {
  DECA_CHECK(g_current == nullptr) << "one DaemonRuntime per process";
  g_current = this;
}

DaemonRuntime::~DaemonRuntime() { g_current = nullptr; }

int DaemonRuntime::Run() {
  control_ = std::make_unique<net::RpcServer>();
  control_->Serve([this](const std::vector<uint8_t>& frame) {
    return HandleControl(frame);
  });

  // Registration handshake on the driver's registration port. The Spec
  // reply carries the whole job; the daemon does not trust its argv for
  // anything but identity.
  net::RpcClient reg(driver_port_, /*connect_attempts=*/25,
                     /*backoff_base_ms=*/20);
  {
    HelloMsg hello;
    hello.executor = executor_;
    hello.generation = generation_;
    hello.control_port = control_->port();
    net::ReadMsg(reg.Call(net::BuildMsg(net::CtrlType::kHello, hello), 20000),
                 net::CtrlType::kSpec, &spec_);
  }
  DECA_CHECK(executor_ >= 0 && executor_ < spec_.config.num_executors);

  // Data plane: one mesh endpoint for this executor's block server. Peer
  // ports arrive later via kUpdatePeers once every daemon is up.
  net_stats_ = std::make_unique<net::NetStats>();
  net::MeshOptions opts;
  opts.connect_attempts = spec_.config.cluster.connect_attempts;
  opts.backoff_base_ms = spec_.config.cluster.retry_backoff_base_ms;
  opts.deadline_ms = spec_.config.cluster.rpc_deadline_ms;
  {
    std::lock_guard<std::mutex> lock(mesh_mu_);
    mesh_ = std::make_unique<net::MeshTransport>(
        spec_.config.num_executors, executor_, opts, net_stats_.get());
  }

  {
    ReadyMsg ready;
    ready.executor = executor_;
    ready.generation = generation_;
    ready.data_port = mesh_->port(executor_);
    net::ReadMsg(reg.Call(net::BuildMsg(net::CtrlType::kReady, ready), 20000),
                 net::CtrlType::kReadyAck);
  }
  reg.Close();

  const WorkloadFn* fn = FindWorkload(spec_.workload);
  DECA_CHECK(fn != nullptr) << "unregistered workload: " << spec_.workload;
  try {
    // Same program text as the driver; SparkContext diverges per role.
    (*fn)(spec_.config, spec_.params);
    WaitShutdown();
  } catch (const spark::WorkerShutdown&) {
    // Driver tore the job down mid-stage; unwind ran every destructor.
  }
  return 0;
}

void DaemonRuntime::WireConfig(spark::SparkConfig* config) {
  config->num_worker_threads = 0;
  config->trace_enabled = false;
  config->runtime.role = spark::DistRole::kWorker;
  config->runtime.worker = this;
  config->runtime.transport = mesh_.get();
  config->runtime.net_stats = net_stats_.get();
  config->runtime.my_executor = executor_;
}

std::vector<uint8_t> DaemonRuntime::HandleControl(
    const std::vector<uint8_t>& frame) {
  const net::CtrlType type = net::MsgTypeOf<net::CtrlType>(frame);
  switch (type) {
    case net::CtrlType::kHeartbeat:
      // Answered on this connection thread, even mid-task.
      return net::BuildMsg(net::CtrlType::kHeartbeatAck);
    case net::CtrlType::kUpdatePeers: {
      std::vector<std::pair<int, uint16_t>> peers;
      net::ReadMsg(frame, type, &peers);
      {
        std::lock_guard<std::mutex> lock(mesh_mu_);
        DECA_CHECK(mesh_ != nullptr) << "peers before Ready";
        mesh_->UpdatePeers(peers);
      }
      return net::BuildMsg(net::CtrlType::kPeersAck);
    }
    case net::CtrlType::kLaunchTask: {
      auto pending = std::make_unique<Pending>();
      pending->cmd.kind = Command::Kind::kTask;
      net::ReadMsg(frame, type, &pending->cmd.env);
      pending->wants_reply = true;
      return EnqueueAndWait(std::move(pending));
    }
    case net::CtrlType::kStageDone: {
      StageDoneMsg msg;
      net::ReadMsg(frame, type, &msg);
      auto pending = std::make_unique<Pending>();
      pending->cmd.kind = Command::Kind::kStageDone;
      pending->cmd.stage = msg.stage;
      pending->cmd.blobs = std::move(msg.blobs);
      pending->wants_reply = true;
      return EnqueueAndWait(std::move(pending));
    }
    case net::CtrlType::kShutdown: {
      auto pending = std::make_unique<Pending>();
      pending->cmd.kind = Command::Kind::kShutdown;
      {
        std::lock_guard<std::mutex> lock(qmu_);
        queue_.push_back(std::move(pending));
      }
      qcv_.notify_all();
      // Acked immediately: the driver reaps the process, it does not wait
      // for the main thread to unwind.
      return net::BuildMsg(net::CtrlType::kShutdownAck);
    }
    default:
      DECA_CHECK(false) << "unexpected control type "
                        << static_cast<int>(type);
      return {};
  }
}

std::vector<uint8_t> DaemonRuntime::EnqueueAndWait(
    std::unique_ptr<Pending> pending) {
  std::future<std::vector<uint8_t>> reply = pending->reply.get_future();
  {
    std::lock_guard<std::mutex> lock(qmu_);
    queue_.push_back(std::move(pending));
  }
  qcv_.notify_all();
  return reply.get();
}

spark::DistWorker::Command DaemonRuntime::NextCommand() {
  std::unique_lock<std::mutex> lock(qmu_);
  qcv_.wait(lock, [this] { return !queue_.empty(); });
  DECA_CHECK(current_ == nullptr) << "previous command not replied to";
  current_ = std::move(queue_.front());
  queue_.pop_front();
  if (!current_->wants_reply) {
    Command cmd = current_->cmd;
    current_.reset();
    return cmd;
  }
  return current_->cmd;
}

void DaemonRuntime::Reply(const exec::RemoteTaskOutcome& outcome) {
  DECA_CHECK(current_ != nullptr && current_->wants_reply);
  current_->reply.set_value(
      net::BuildMsg(net::CtrlType::kTaskResult, outcome));
  current_.reset();
}

void DaemonRuntime::StageAck(const spark::ExecutorSnapshot& snapshot) {
  DECA_CHECK(current_ != nullptr && current_->wants_reply);
  current_->reply.set_value(
      net::BuildMsg(net::CtrlType::kStageAck, snapshot));
  current_.reset();
}

void DaemonRuntime::WaitShutdown() {
  for (;;) {
    Command cmd = NextCommand();
    if (cmd.kind == Command::Kind::kShutdown) return;
    DECA_CHECK(false) << "command after job end (kind "
                      << static_cast<int>(cmd.kind) << ")";
  }
}

int DaemonMain(int argc, char** argv) {
  uint16_t driver_port = 0;
  int executor = -1;
  int generation = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--driver-port=", 14) == 0) {
      driver_port = static_cast<uint16_t>(std::atoi(arg + 14));
    } else if (std::strncmp(arg, "--executor=", 11) == 0) {
      executor = std::atoi(arg + 11);
    } else if (std::strncmp(arg, "--generation=", 13) == 0) {
      generation = std::atoi(arg + 13);
    }
  }
  DECA_CHECK(driver_port != 0 && executor >= 0)
      << "usage: deca_executord --driver-port=N --executor=E "
         "[--generation=G]";
  DaemonRuntime runtime(driver_port, executor, generation);
  return runtime.Run();
}

}  // namespace deca::cluster
