#include "spark/network_shuffle.h"

#include <algorithm>

#include "common/logging.h"
#include "fault/task_failure.h"
#include "obs/trace.h"

namespace deca::spark {

namespace {

net::WireCodec ResolveCodec(const SparkConfig& config) {
  switch (config.shuffle_wire_codec) {
    case ShuffleWireCodec::kPage:
      return net::WireCodec::kPage;
    case ShuffleWireCodec::kRecord:
      return net::WireCodec::kRecord;
    case ShuffleWireCodec::kAuto:
      break;
  }
  // The paper's two worlds: Deca ships its decomposed pages untouched,
  // the JVM baseline pays a per-record serializer.
  return config.deca_shuffle ? net::WireCodec::kPage
                             : net::WireCodec::kRecord;
}

}  // namespace

NetworkShuffleService::NetworkShuffleService(const SparkConfig& config,
                                             net::Transport* transport,
                                             net::NetStats* stats,
                                             int local_endpoint)
    : num_executors_(config.num_executors),
      codec_(ResolveCodec(config)),
      fetch_chunk_bytes_(std::max<uint32_t>(1, config.net_fetch_chunk_bytes)),
      max_inflight_bytes_(
          std::max(config.net_max_inflight_bytes, config.net_fetch_chunk_bytes)),
      transport_(transport),
      stats_(stats) {
  DECA_CHECK_EQ(transport_->num_endpoints(), num_executors_);
  servers_.resize(static_cast<size_t>(num_executors_));
  for (int e = 0; e < num_executors_; ++e) {
    if (local_endpoint >= 0 && e != local_endpoint) continue;
    servers_[static_cast<size_t>(e)] =
        std::make_unique<net::BlockServer>(stats_);
    net::BlockServer* server = servers_[static_cast<size_t>(e)].get();
    transport_->Bind(e, [server](const std::vector<uint8_t>& request) {
      return server->HandleRequest(request);
    });
  }
}

int NetworkShuffleService::RegisterShuffle(int num_reducers) {
  std::lock_guard<std::mutex> lock(mu_);
  reducers_per_shuffle_.push_back(num_reducers);
  return static_cast<int>(reducers_per_shuffle_.size() - 1);
}

void NetworkShuffleService::PutChunk(int shuffle_id, int reducer,
                                     int map_partition,
                                     std::vector<uint8_t> bytes,
                                     const net::ChunkMeta& meta) {
  if (bytes.empty()) return;  // parity with LocalShuffleService
  // The shuffle-plane event matches LocalShuffleService exactly (trace
  // parity for the bench gate); the net-plane instant adds wire detail.
  obs::Instant(obs::Cat::kShuffle, "shuffle_put",
               static_cast<double>(bytes.size()),
               static_cast<double>(reducer));
  obs::Instant(obs::Cat::kNet, "net_put", static_cast<double>(bytes.size()),
               static_cast<double>(reducer));
  std::vector<uint8_t> frame = net::EncodeFrame(codec_, bytes, meta, stats_);
  net::BlockServer* server =
      servers_[static_cast<size_t>(ExecutorOf(map_partition))].get();
  DECA_CHECK(server != nullptr)
      << "PutChunk for a partition owned by a remote daemon";
  server->Register(shuffle_id, reducer, map_partition, std::move(frame),
                   bytes.size());
  InvalidateCache(shuffle_id);
}

void NetworkShuffleService::DropMapOutput(int shuffle_id, int map_partition) {
  net::BlockServer* server =
      servers_[static_cast<size_t>(ExecutorOf(map_partition))].get();
  // A remote daemon's outputs die with its process; nothing to drop here.
  if (server != nullptr) server->Drop(shuffle_id, map_partition);
  InvalidateCache(shuffle_id);
}

std::vector<std::vector<uint8_t>> NetworkShuffleService::FetchAll(
    int shuffle_id, int reducer) const {
  int from = ExecutorOf(reducer);
  // (map_partition, frame bytes) gathered from every executor's server.
  std::vector<std::pair<int, std::vector<uint8_t>>> frames;
  for (int e = 0; e < num_executors_; ++e) {
    // One index round trip per source executor.
    ByteWriter req;
    req.Write<uint8_t>(static_cast<uint8_t>(net::MsgType::kIndexRequest));
    req.WriteVarU64(static_cast<uint64_t>(shuffle_id));
    req.WriteVarU64(static_cast<uint64_t>(reducer));
    std::vector<uint8_t> resp_wire =
        transport_->Call(from, e, net::FrameMessage(req));
    if (stats_ != nullptr) {
      stats_->index_requests.fetch_add(1, std::memory_order_relaxed);
    }
    ByteReader resp(nullptr, 0);
    DECA_CHECK(net::UnframeMessage(resp_wire, &resp));
    DECA_CHECK_EQ(resp.Read<uint8_t>(),
                  static_cast<uint8_t>(net::MsgType::kIndexResponse));
    uint64_t count = resp.ReadVarU64();
    std::vector<std::pair<int, uint64_t>> index;
    index.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      int mapper = static_cast<int>(resp.ReadVarU64());
      uint64_t frame_bytes = resp.ReadVarU64();
      index.emplace_back(mapper, frame_bytes);
    }

    for (const auto& [mapper, frame_bytes] : index) {
      // Pull the frame in flow-controlled slices: never more than the
      // in-flight window outstanding before the (modelled) decoder
      // drains it.
      std::vector<uint8_t> frame;
      frame.reserve(frame_bytes);
      uint64_t inflight = 0;
      while (frame.size() < frame_bytes) {
        if (inflight >= max_inflight_bytes_) {
          if (stats_ != nullptr) {
            stats_->flow_stalls.fetch_add(1, std::memory_order_relaxed);
          }
          inflight = 0;  // window drained
        }
        uint64_t budget = max_inflight_bytes_ - inflight;
        uint64_t ask = std::min<uint64_t>(fetch_chunk_bytes_, budget);
        ByteWriter freq;
        freq.Write<uint8_t>(static_cast<uint8_t>(net::MsgType::kFetchRequest));
        freq.WriteVarU64(static_cast<uint64_t>(shuffle_id));
        freq.WriteVarU64(static_cast<uint64_t>(reducer));
        freq.WriteVarU64(static_cast<uint64_t>(mapper));
        freq.WriteVarU64(frame.size());
        freq.WriteVarU64(ask);
        std::vector<uint8_t> slice_wire =
            transport_->Call(from, e, net::FrameMessage(freq));
        if (stats_ != nullptr) {
          stats_->slice_requests.fetch_add(1, std::memory_order_relaxed);
        }
        ByteReader sresp(nullptr, 0);
        DECA_CHECK(net::UnframeMessage(slice_wire, &sresp));
        DECA_CHECK_EQ(sresp.Read<uint8_t>(),
                      static_cast<uint8_t>(net::MsgType::kFetchResponse));
        DECA_CHECK_EQ(sresp.Read<uint8_t>(),
                      static_cast<uint8_t>(net::WireStatus::kOk));
        uint64_t total = sresp.ReadVarU64();
        DECA_CHECK_EQ(total, frame_bytes);
        uint64_t slice_len = sresp.ReadVarU64();
        DECA_CHECK(slice_len > 0) << "empty fetch slice";
        size_t off = frame.size();
        frame.resize(off + slice_len);
        sresp.ReadBytes(frame.data() + off, slice_len);
        inflight += slice_len;
      }
      frames.emplace_back(mapper, std::move(frame));
    }
  }

  // Executors were visited in id order but partition ids interleave
  // across them (p % E placement): restore global map-partition order so
  // the reducer sees exactly the local service's chunk order.
  std::sort(frames.begin(), frames.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<std::vector<uint8_t>> chunks;
  chunks.reserve(frames.size());
  for (auto& [mapper, frame] : frames) {
    std::vector<uint8_t> payload;
    DECA_CHECK(net::DecodeFrame(frame, &payload, stats_))
        << "malformed shuffle wire frame (mapper " << mapper << ")";
    chunks.push_back(std::move(payload));
  }
  obs::Instant(obs::Cat::kShuffle, "shuffle_fetch",
               static_cast<double>(chunks.size()),
               static_cast<double>(reducer));
  obs::Instant(obs::Cat::kNet, "net_fetch", static_cast<double>(chunks.size()),
               static_cast<double>(reducer));
  return chunks;
}

const std::vector<std::vector<uint8_t>>& NetworkShuffleService::GetChunks(
    int shuffle_id, int reducer) const {
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = fetched_.find({shuffle_id, reducer});
    if (it != fetched_.end()) return *it->second;
  }
  auto chunks = std::make_unique<std::vector<std::vector<uint8_t>>>(
      FetchAll(shuffle_id, reducer));
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto [it, inserted] =
      fetched_.try_emplace({shuffle_id, reducer}, std::move(chunks));
  return *it->second;
}

int NetworkShuffleService::num_reducers(int shuffle_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return reducers_per_shuffle_[static_cast<size_t>(shuffle_id)];
}

uint64_t NetworkShuffleService::total_bytes(int shuffle_id) const {
  uint64_t total = 0;
  for (const auto& server : servers_) {
    if (server != nullptr) total += server->PayloadBytes(shuffle_id);
  }
  return total;
}

int NetworkShuffleService::num_shuffles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(reducers_per_shuffle_.size());
}

void NetworkShuffleService::Release(int shuffle_id) {
  for (const auto& server : servers_) {
    if (server != nullptr) server->Release(shuffle_id);
  }
  InvalidateCache(shuffle_id);
}

void NetworkShuffleService::InvalidateCache(int shuffle_id) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto begin = fetched_.lower_bound({shuffle_id, 0});
  auto end = fetched_.lower_bound({shuffle_id + 1, 0});
  fetched_.erase(begin, end);
}

void NetworkShuffleService::FailFetch(int stage, int partition, int attempt) {
  int from = ExecutorOf(partition);
  int to = num_executors_ > 1 ? (from + 1) % num_executors_ : from;
  ByteWriter probe;
  probe.Write<uint8_t>(static_cast<uint8_t>(net::MsgType::kFailProbe));
  probe.WriteVarU64(static_cast<uint64_t>(stage));
  probe.WriteVarU64(static_cast<uint64_t>(partition));
  probe.WriteVarU64(static_cast<uint64_t>(attempt));
  std::vector<uint8_t> wire = net::FrameMessage(probe);
  for (int attempt_i = 0; attempt_i <= kFetchRetries; ++attempt_i) {
    std::vector<uint8_t> resp_wire = transport_->Call(from, to, wire);
    ByteReader resp(nullptr, 0);
    DECA_CHECK(net::UnframeMessage(resp_wire, &resp));
    DECA_CHECK_EQ(resp.Read<uint8_t>(),
                  static_cast<uint8_t>(net::MsgType::kErrorResponse));
    DECA_CHECK_EQ(resp.Read<uint8_t>(),
                  static_cast<uint8_t>(net::WireStatus::kInjectedFailure));
    if (stats_ != nullptr && attempt_i > 0) {
      stats_->fetch_retries.fetch_add(1, std::memory_order_relaxed);
      // Virtual exponential backoff: 1ms, 2ms, 4ms, ... accounted as
      // simulated wire time, never slept.
      stats_->virtual_wire_us.fetch_add(1000ULL << (attempt_i - 1),
                                        std::memory_order_relaxed);
    }
  }
  if (stats_ != nullptr) {
    stats_->injected_fetch_failures.fetch_add(1, std::memory_order_relaxed);
  }
  obs::Instant(obs::Cat::kNet, "net_fetch_fail", static_cast<double>(stage),
               static_cast<double>(partition));
  throw fault::ShuffleFetchFailure(stage, partition, attempt);
}

}  // namespace deca::spark
