#ifndef DECA_NET_MESH_TRANSPORT_H_
#define DECA_NET_MESH_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "net/control.h"
#include "net/net_stats.h"
#include "net/transport.h"

namespace deca::net {

struct MeshOptions {
  /// Connect retry budget toward a peer that is still binding (or being
  /// respawned by the driver).
  int connect_attempts = 25;
  int backoff_base_ms = 20;
  /// Per-call response deadline; <= 0 disables.
  int deadline_ms = 20000;
};

/// The real-socket Transport: every hosted endpoint is an RpcServer on an
/// ephemeral 127.0.0.1 port, and each (from, to) link is one RpcClient
/// whose mutex provides the contract's FIFO ordering. Frames on the
/// socket are the exact bytes FrameMessage produces, so message and byte
/// counts match loopback; only wall time differs.
///
/// With `local_endpoint >= 0` (a daemon) this process hosts that one
/// endpoint and every other is a peer daemon. Its port is bound at
/// construction (advertised to the driver during registration); peer
/// addresses arrive later via UpdatePeers and change when the driver
/// respawns a crashed executor. With `local_endpoint == -1` every
/// endpoint is hosted here (the in-process `tcp` shuffle).
///
/// A call to the caller's own endpoint runs its handler directly; other
/// calls cross a socket. A failed call throws ConnectError (typed,
/// retryable) so the shuffle layer can convert it into a retryable fetch
/// failure instead of aborting.
class MeshTransport : public Transport {
 public:
  MeshTransport(int num_endpoints, int local_endpoint,
                const MeshOptions& options, NetStats* stats);

  /// Only hosted endpoints may be bound in this process.
  void Bind(int endpoint, MessageHandler handler) override;
  std::vector<uint8_t> Call(int from, int to,
                            const std::vector<uint8_t>& request) override;
  int num_endpoints() const override { return num_endpoints_; }

  /// The port a hosted endpoint listens on.
  uint16_t port(int endpoint) const;

  /// Installs/refreshes the peer table: (endpoint, port) pairs. A link
  /// whose peer changed port reconnects on its next call. Thread-safe.
  void UpdatePeers(const std::vector<std::pair<int, uint16_t>>& peers);

 private:
  struct Link {
    std::mutex mu;
    std::unique_ptr<RpcClient> client;
  };

  bool Hosts(int endpoint) const {
    return local_endpoint_ < 0 || endpoint == local_endpoint_;
  }

  int num_endpoints_;
  int local_endpoint_;
  MeshOptions options_;
  NetStats* stats_;

  // Indexed by endpoint, set for hosted endpoints only.
  std::vector<std::unique_ptr<RpcServer>> servers_;
  std::vector<MessageHandler> handlers_;
  std::vector<std::unique_ptr<Link>> links_;  // [from * n + to]
  std::mutex ports_mu_;
  std::vector<uint16_t> ports_;  // [endpoint], 0 = unknown
};

}  // namespace deca::net

#endif  // DECA_NET_MESH_TRANSPORT_H_
