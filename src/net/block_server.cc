#include "net/block_server.h"

#include <algorithm>
#include <optional>

namespace deca::net {

void BlockServer::Register(int shuffle_id, int reducer, int map_partition,
                           std::vector<uint8_t> frame,
                           uint64_t payload_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  Frame& f = frames_[{shuffle_id, reducer, map_partition}];
  f.bytes = std::move(frame);
  f.payload_bytes = payload_bytes;
}

void BlockServer::Drop(int shuffle_id, int map_partition) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = frames_.lower_bound({shuffle_id, 0, 0});
       it != frames_.end() && std::get<0>(it->first) == shuffle_id;) {
    if (std::get<2>(it->first) == map_partition) {
      it = frames_.erase(it);
    } else {
      ++it;
    }
  }
}

void BlockServer::Release(int shuffle_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto begin = frames_.lower_bound({shuffle_id, 0, 0});
  auto end = frames_.lower_bound({shuffle_id + 1, 0, 0});
  frames_.erase(begin, end);
}

uint64_t BlockServer::PayloadBytes(int shuffle_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (auto it = frames_.lower_bound({shuffle_id, 0, 0});
       it != frames_.end() && std::get<0>(it->first) == shuffle_id; ++it) {
    total += it->second.payload_bytes;
  }
  return total;
}

std::vector<uint8_t> BlockServer::HandleRequest(
    const std::vector<uint8_t>& request) {
  ByteReader body(nullptr, 0);
  if (!UnframeMessage(request, &body) || body.AtEnd()) {
    return BuildMsg(MsgType::kErrorResponse, WireStatus::kNotFound);
  }
  const MsgType type = MsgTypeOf<MsgType>(request);
  // A body that does not end where its fields do is a peer's stray
  // bytes: refused like an unknown request, never served.
  auto read = [&request, type](auto msg) -> std::optional<decltype(msg)> {
    const auto [size, decoded] = ReadMsgBody(request, type, &msg);
    if (decoded != size) return std::nullopt;
    return msg;
  };
  switch (type) {
    case MsgType::kIndexRequest:
      if (auto index = read(IndexRequest{})) return HandleIndex(*index);
      break;
    case MsgType::kFetchRequest:
      if (auto fetch = read(FetchRequest{})) return HandleFetch(*fetch);
      break;
    case MsgType::kFailProbe:
      // The doomed probe of an injected fetch failure: the request
      // travels the wire and is always refused, so retry/backoff logic
      // exercises the full transport path deterministically.
      if (read(FailProbe{})) {
        return BuildMsg(MsgType::kErrorResponse, WireStatus::kInjectedFailure);
      }
      break;
    default:
      break;
  }
  return BuildMsg(MsgType::kErrorResponse, WireStatus::kNotFound);
}

std::vector<uint8_t> BlockServer::HandleIndex(const IndexRequest& request) {
  const int shuffle_id = static_cast<int>(request.shuffle_id);
  const int reducer = static_cast<int>(request.reducer);
  IndexResponse index;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = frames_.lower_bound({shuffle_id, reducer, 0});
       it != frames_.end() && std::get<0>(it->first) == shuffle_id &&
       std::get<1>(it->first) == reducer;
       ++it) {
    index.emplace_back(static_cast<uint32_t>(std::get<2>(it->first)),
                       it->second.bytes.size());
  }
  return BuildMsg(MsgType::kIndexResponse, index);
}

std::vector<uint8_t> BlockServer::HandleFetch(const FetchRequest& request) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = frames_.find({static_cast<int>(request.shuffle_id),
                          static_cast<int>(request.reducer),
                          static_cast<int>(request.map_partition)});
  if (it == frames_.end() || request.offset > it->second.bytes.size()) {
    return BuildMsg(MsgType::kErrorResponse, WireStatus::kNotFound);
  }
  const std::vector<uint8_t>& frame = it->second.bytes;
  const uint8_t* slice = frame.data() + request.offset;
  const uint64_t n =
      std::min<uint64_t>(request.max_bytes, frame.size() - request.offset);
  return BuildMsg(MsgType::kFetchResponse,
                  FetchResponse{WireStatus::kOk, frame.size(),
                                std::vector<uint8_t>(slice, slice + n)});
}

}  // namespace deca::net
