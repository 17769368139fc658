#ifndef DECA_NET_LOOPBACK_TRANSPORT_H_
#define DECA_NET_LOOPBACK_TRANSPORT_H_

#include <memory>
#include <mutex>
#include <vector>

#include "net/net_stats.h"
#include "net/transport.h"

namespace deca::net {

/// In-process transport: a Call invokes the target endpoint's handler
/// synchronously on the caller's thread, after serializing on the
/// (from, to) link mutex. The per-link mutex gives the FIFO ordering the
/// Transport contract requires while leaving distinct links concurrent.
class LoopbackTransport : public Transport {
 public:
  LoopbackTransport(int num_endpoints, NetStats* stats);

  void Bind(int endpoint, MessageHandler handler) override;
  std::vector<uint8_t> Call(int from, int to,
                            const std::vector<uint8_t>& request) override;
  int num_endpoints() const override { return num_endpoints_; }

 private:
  struct Link {
    std::mutex mu;
  };

  int num_endpoints_;
  NetStats* stats_;
  std::vector<MessageHandler> handlers_;
  std::vector<std::unique_ptr<Link>> links_;  // links_[from * n + to]
};

}  // namespace deca::net

#endif  // DECA_NET_LOOPBACK_TRANSPORT_H_
