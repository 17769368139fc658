#ifndef DECA_NET_BLOCK_SERVER_H_
#define DECA_NET_BLOCK_SERVER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <tuple>
#include <vector>

#include "net/net_stats.h"
#include "net/wire.h"

namespace deca::net {

/// Per-executor registry of encoded map-output frames, plus the server
/// side of the shuffle wire protocol. Map tasks deposit frames keyed by
/// (shuffle, reducer, map_partition); reducers on any executor then ask
/// for the index of their reducer's frames and fetch each frame in
/// slices. The sorted map key keeps index responses ordered by map
/// partition, which is what makes network fetch results byte-identical
/// to the local shuffle's mapper-sorted chunk list.
class BlockServer {
 public:
  explicit BlockServer(NetStats* stats) : stats_(stats) {}

  /// Deposits one encoded frame. `payload_bytes` is the pre-codec chunk
  /// size (for total_bytes parity with the local service). Thread-safe.
  void Register(int shuffle_id, int reducer, int map_partition,
                std::vector<uint8_t> frame, uint64_t payload_bytes);

  /// Drops every frame produced by `map_partition` (executor loss).
  void Drop(int shuffle_id, int map_partition);

  /// Releases all frames of a finished shuffle.
  void Release(int shuffle_id);

  /// Sum of deposited pre-codec payload bytes for `shuffle_id`.
  uint64_t PayloadBytes(int shuffle_id) const;

  /// Serves one framed request message (kIndexRequest / kFetchRequest /
  /// kFailProbe) and returns the framed response. Thread-safe; this is
  /// the MessageHandler bound to the transport.
  std::vector<uint8_t> HandleRequest(const std::vector<uint8_t>& request);

 private:
  struct Frame {
    std::vector<uint8_t> bytes;
    uint64_t payload_bytes = 0;
  };
  using Key = std::tuple<int, int, int>;  // (shuffle, reducer, map_partition)

  std::vector<uint8_t> HandleIndex(const IndexRequest& request);
  std::vector<uint8_t> HandleFetch(const FetchRequest& request);

  mutable std::mutex mu_;
  std::map<Key, Frame> frames_;
  NetStats* stats_;
};

}  // namespace deca::net

#endif  // DECA_NET_BLOCK_SERVER_H_
