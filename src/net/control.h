#ifndef DECA_NET_CONTROL_H_
#define DECA_NET_CONTROL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "net/wire.h"

namespace deca::net {

/// Control-plane message types. Numbered from 32 so they can never
/// collide with the shuffle-plane MsgType values (1..6) — a misrouted
/// frame fails loudly instead of being misparsed. Messages are built,
/// read and dispatched on with net/wire.h's BuildMsg, ReadMsg and
/// MsgTypeOf, as the shuffle plane's are.
enum class CtrlType : uint8_t {
  // Registration handshake (driver's registration port).
  kHello = 32,     // executor, generation, pid, control_port
  kSpec = 33,      // job spec: config + workload + params + peer count
  kReady = 34,     // data_port (the daemon's mesh endpoint)
  kReadyAck = 35,
  // Task dispatch (daemon's control port).
  kLaunchTask = 36,   // remote task envelope
  kTaskResult = 37,   // remote task outcome
  kStageDone = 38,    // stage seq + broadcast collect blobs
  kStageAck = 39,     // executor stats snapshot
  // Liveness.
  kHeartbeat = 40,     // ping (answered inline, even mid-task)
  kHeartbeatAck = 41,
  // Mesh wiring.
  kUpdatePeers = 42,  // n x (executor, data_port)
  kPeersAck = 43,
  // Teardown.
  kShutdown = 44,
  kShutdownAck = 45,
};

/// An RPC that failed after the request may have been written. Carries
/// whether the failure was a response deadline (the peer may still be
/// alive but wedged) vs a transport error (connection refused/reset).
/// Control RPCs are NOT resent past the write — LaunchTask is not
/// idempotent — so this always surfaces to the failure detector.
class RpcError : public std::runtime_error {
 public:
  RpcError(const std::string& what, bool timed_out)
      : std::runtime_error(what), timed_out_(timed_out) {}
  bool timed_out() const { return timed_out_; }

 private:
  bool timed_out_;
};

/// The framed request->response socket server, for the control plane and
/// the shuffle mesh alike: an accept thread plus one serving thread per
/// inbound connection. The handler is invoked on the connection's thread
/// — heartbeats are therefore answered even while the daemon's main
/// thread is busy running a task; handlers that need the main thread hand
/// the frame off and block on the reply.
class RpcServer {
 public:
  /// Takes one framed request, returns the framed response.
  using Handler =
      std::function<std::vector<uint8_t>(const std::vector<uint8_t>&)>;

  /// Binds an ephemeral loopback port, so the port can be advertised
  /// before there is a handler. Throws std::runtime_error if the socket
  /// can't be created.
  RpcServer();
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Installs `handler` and starts accepting; call once. Peers that
  /// connect earlier wait in the listen backlog.
  void Serve(Handler handler);

  uint16_t port() const { return port_; }

  /// Stops accepting, unblocks every connection, joins all threads.
  /// Idempotent; also run by the destructor.
  void Stop();

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  Handler handler_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::mutex mu_;
  bool stopping_ = false;
  std::vector<int> conn_fds_;
  std::vector<std::thread> conn_threads_;
};

/// One connection to an RpcServer, used by exactly one thread at a time
/// (callers serialize: the driver keeps separate clients for dispatch and
/// heartbeats so the two never contend, and the mesh holds each link's
/// client under that link's mutex).
///
/// Retry semantics: connect failures retry with exponential backoff (the
/// peer may still be binding its port). Once a request has been written
/// there are NO resends — a lost response throws RpcError and the caller
/// decides (for the driver: count a miss / declare the executor dead).
class RpcClient {
 public:
  RpcClient(uint16_t port, int connect_attempts, int backoff_base_ms);
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// One framed round trip. `deadline_ms <= 0` waits forever. Throws
  /// ConnectError (no connection could be established) or RpcError (send
  /// failed, peer closed, or response deadline exceeded). After an
  /// RpcError the connection is closed; the next Call reconnects.
  std::vector<uint8_t> Call(const std::vector<uint8_t>& frame,
                            int deadline_ms);

  void Close();

  uint16_t port() const { return port_; }

 private:
  uint16_t port_;
  int connect_attempts_;
  int backoff_base_ms_;
  int fd_ = -1;
};

}  // namespace deca::net

#endif  // DECA_NET_CONTROL_H_
