#include "net/loopback_transport.h"

#include <cassert>

namespace deca::net {

LoopbackTransport::LoopbackTransport(int num_endpoints, NetStats* stats)
    : num_endpoints_(num_endpoints),
      stats_(stats),
      handlers_(static_cast<size_t>(num_endpoints)) {
  links_.reserve(static_cast<size_t>(num_endpoints) * num_endpoints);
  for (int i = 0; i < num_endpoints * num_endpoints; ++i) {
    links_.push_back(std::make_unique<Link>());
  }
}

void LoopbackTransport::Bind(int endpoint, MessageHandler handler) {
  assert(endpoint >= 0 && endpoint < num_endpoints_);
  handlers_[static_cast<size_t>(endpoint)] = std::move(handler);
}

std::vector<uint8_t> LoopbackTransport::Call(
    int from, int to, const std::vector<uint8_t>& request) {
  assert(from >= 0 && from < num_endpoints_);
  assert(to >= 0 && to < num_endpoints_);
  Link& link = *links_[static_cast<size_t>(from) * num_endpoints_ + to];
  std::lock_guard<std::mutex> lock(link.mu);
  const MessageHandler& handler = handlers_[static_cast<size_t>(to)];
  assert(handler);
  std::vector<uint8_t> response = handler(request);
  if (stats_ != nullptr) {
    stats_->messages.fetch_add(1, std::memory_order_relaxed);
    stats_->wire_bytes.fetch_add(request.size() + response.size(),
                                 std::memory_order_relaxed);
  }
  return response;
}

}  // namespace deca::net
