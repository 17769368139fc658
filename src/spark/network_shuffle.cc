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
  const int from = ExecutorOf(reducer);
  const auto shuffle = static_cast<uint32_t>(shuffle_id);
  const auto reduce = static_cast<uint32_t>(reducer);
  const std::vector<uint8_t> index_request = net::BuildMsg(
      net::MsgType::kIndexRequest, net::IndexRequest{shuffle, reduce});
  // (map_partition, frame bytes) gathered from every executor's server.
  std::vector<std::pair<int, std::vector<uint8_t>>> frames;
  for (int e = 0; e < num_executors_; ++e) {
    // One index round trip per source executor.
    net::IndexResponse index;
    net::ReadMsg(transport_->Call(from, e, index_request),
                 net::MsgType::kIndexResponse, &index);
    if (stats_ != nullptr) {
      stats_->index_requests.fetch_add(1, std::memory_order_relaxed);
    }

    for (const auto& [mapper, frame_bytes] : index) {
      // Pull the frame in flow-controlled slices: never more than the
      // in-flight window outstanding before the (modelled) decoder
      // drains it.
      std::vector<uint8_t> frame;
      frame.reserve(frame_bytes);
      uint64_t inflight = 0;
      while (frame.size() < frame_bytes) {
        if (inflight >= kMaxInflightBytes) {
          if (stats_ != nullptr) {
            stats_->flow_stalls.fetch_add(1, std::memory_order_relaxed);
          }
          inflight = 0;  // window drained
        }
        const net::FetchRequest ask{
            shuffle, reduce, mapper, frame.size(),
            std::min(kFetchSliceBytes, kMaxInflightBytes - inflight)};
        const std::vector<uint8_t> reply = transport_->Call(
            from, e, net::BuildMsg(net::MsgType::kFetchRequest, ask));
        net::FetchResponse slice;
        net::ReadMsg(reply, net::MsgType::kFetchResponse, &slice);
        if (stats_ != nullptr) {
          stats_->slice_requests.fetch_add(1, std::memory_order_relaxed);
        }
        DECA_CHECK(slice.status == net::WireStatus::kOk);
        DECA_CHECK_EQ(slice.frame_bytes, frame_bytes);
        DECA_CHECK(!slice.slice.empty()) << "empty fetch slice";
        frame.insert(frame.end(), slice.slice.begin(), slice.slice.end());
        inflight += slice.slice.size();
      }
      frames.emplace_back(static_cast<int>(mapper), std::move(frame));
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
  const std::vector<uint8_t> probe = net::BuildMsg(
      net::MsgType::kFailProbe,
      net::FailProbe{static_cast<uint32_t>(stage),
                     static_cast<uint32_t>(partition),
                     static_cast<uint32_t>(attempt)});
  for (int attempt_i = 0; attempt_i <= kFetchRetries; ++attempt_i) {
    net::WireStatus status = net::WireStatus::kOk;
    net::ReadMsg(transport_->Call(from, to, probe),
                 net::MsgType::kErrorResponse, &status);
    DECA_CHECK(status == net::WireStatus::kInjectedFailure);
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
