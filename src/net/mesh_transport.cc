#include "net/mesh_transport.h"

#include <cerrno>
#include <stdexcept>
#include <string>

#include "common/logging.h"
#include "net/socket_io.h"

namespace deca::net {

MeshTransport::MeshTransport(int num_endpoints, int local_endpoint,
                             const MeshOptions& options, NetStats* stats)
    : num_endpoints_(num_endpoints),
      local_endpoint_(local_endpoint),
      options_(options),
      stats_(stats),
      servers_(static_cast<size_t>(num_endpoints)),
      handlers_(static_cast<size_t>(num_endpoints)),
      ports_(static_cast<size_t>(num_endpoints), 0) {
  DECA_CHECK(local_endpoint >= -1 && local_endpoint < num_endpoints);
  links_.reserve(static_cast<size_t>(num_endpoints) * num_endpoints);
  for (int i = 0; i < num_endpoints * num_endpoints; ++i) {
    links_.push_back(std::make_unique<Link>());
  }
  for (int e = 0; e < num_endpoints; ++e) {
    if (!Hosts(e)) continue;
    auto& server = servers_[static_cast<size_t>(e)];
    server = std::make_unique<RpcServer>();
    ports_[static_cast<size_t>(e)] = server->port();
  }
}

void MeshTransport::Bind(int endpoint, MessageHandler handler) {
  DECA_CHECK(endpoint >= 0 && endpoint < num_endpoints_ && Hosts(endpoint))
      << "endpoint " << endpoint << " is not hosted in this process";
  handlers_[static_cast<size_t>(endpoint)] = handler;
  servers_[static_cast<size_t>(endpoint)]->Serve(std::move(handler));
}

uint16_t MeshTransport::port(int endpoint) const {
  DECA_CHECK(endpoint >= 0 && endpoint < num_endpoints_ && Hosts(endpoint));
  return servers_[static_cast<size_t>(endpoint)]->port();
}

void MeshTransport::UpdatePeers(
    const std::vector<std::pair<int, uint16_t>>& peers) {
  std::lock_guard<std::mutex> lock(ports_mu_);
  for (const auto& [endpoint, port] : peers) {
    DECA_CHECK(endpoint >= 0 && endpoint < num_endpoints_)
        << "peer endpoint " << endpoint << " out of range";
    ports_[static_cast<size_t>(endpoint)] = port;
  }
}

std::vector<uint8_t> MeshTransport::Call(int from, int to,
                                         const std::vector<uint8_t>& request) {
  DECA_CHECK(from >= 0 && from < num_endpoints_ && Hosts(from));
  DECA_CHECK(to >= 0 && to < num_endpoints_);
  std::vector<uint8_t> response;
  if (to == from) {
    response = handlers_[static_cast<size_t>(to)](request);
  } else {
    Link& link = *links_[static_cast<size_t>(from) * num_endpoints_ + to];
    std::lock_guard<std::mutex> link_lock(link.mu);
    uint16_t port;
    {
      std::lock_guard<std::mutex> lock(ports_mu_);
      port = ports_[static_cast<size_t>(to)];
    }
    if (port == 0) {
      throw std::runtime_error("mesh: no peer address for endpoint " +
                               std::to_string(to));
    }
    // A respawned peer listens on a new port: the cached connection (if
    // any) points at the dead process, so replace it.
    if (link.client == nullptr || link.client->port() != port) {
      link.client = std::make_unique<RpcClient>(
          port, options_.connect_attempts, options_.backoff_base_ms);
    }
    try {
      response = link.client->Call(request, options_.deadline_ms);
    } catch (const RpcError& e) {
      // Surface as the typed retryable error: the peer likely died and
      // the shuffle layer turns this into a bounded-retry fetch failure.
      throw ConnectError(port, e.timed_out() ? ETIMEDOUT : ECONNRESET);
    }
  }
  if (stats_ != nullptr) {
    stats_->messages.fetch_add(1, std::memory_order_relaxed);
    stats_->wire_bytes.fetch_add(request.size() + response.size(),
                                 std::memory_order_relaxed);
  }
  return response;
}

}  // namespace deca::net
