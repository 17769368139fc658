#ifndef DECA_SPARK_NETWORK_SHUFFLE_H_
#define DECA_SPARK_NETWORK_SHUFFLE_H_

#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "fault/fault_injector.h"
#include "net/block_server.h"
#include "net/transport.h"
#include "net/wire.h"
#include "spark/shuffle.h"

namespace deca::spark {

/// ShuffleService over a src/net Transport: each executor runs a
/// BlockServer holding its map tasks' encoded output frames; reducers
/// locate frames with an index request per source executor, then pull
/// each frame in flow-controlled slices and decode it back to the exact
/// chunk bytes the map task deposited. Because decoded chunks are
/// byte-identical to LocalShuffleService's and arrive in the same
/// map-partition order, everything downstream (results, GC counts, fault
/// counters) is bit-identical to the local path.
///
/// Placement mirrors the scheduler: partition p's output lives on
/// executor p % num_executors, and reducer r fetches from executor
/// r % num_executors.
class NetworkShuffleService final : public ShuffleService,
                                    public fault::FetchFailurePath {
 public:
  using ShuffleService::PutChunk;

  /// Transport-level retries of a failed fetch before the failure
  /// surfaces to the task layer.
  static constexpr int kFetchRetries = 3;

  /// `transport` and `stats` are borrowed and must outlive the service.
  /// Binds every transport endpoint to its executor's BlockServer. With
  /// `local_endpoint >= 0` (a worker daemon's mesh) only that endpoint's
  /// BlockServer exists and is bound — the other executors' servers live
  /// in their own daemons, reached through the transport.
  NetworkShuffleService(const SparkConfig& config, net::Transport* transport,
                        net::NetStats* stats, int local_endpoint = -1);

  int RegisterShuffle(int num_reducers) override;
  void PutChunk(int shuffle_id, int reducer, int map_partition,
                std::vector<uint8_t> bytes,
                const net::ChunkMeta& meta) override;
  void DropMapOutput(int shuffle_id, int map_partition) override;
  const std::vector<std::vector<uint8_t>>& GetChunks(int shuffle_id,
                                                     int reducer) const
      override;
  int num_reducers(int shuffle_id) const override;
  /// With a local endpoint this is the LOCAL payload only; the driver
  /// sums the per-daemon values it receives in stage-ack snapshots.
  uint64_t total_bytes(int shuffle_id) const override;
  int num_shuffles() const override;
  void Release(int shuffle_id) override;

  /// fault::FetchFailurePath: sends the doomed probe of an injected fetch
  /// failure to a remote peer, burns kFetchRetries retries with virtual
  /// exponential backoff, then throws ShuffleFetchFailure. Heap-free, so
  /// retried attempts replay bit-identically.
  void FailFetch(int stage, int partition, int attempt) override;

  /// The codec frames are encoded with (resolved from the config).
  net::WireCodec codec() const { return codec_; }

 private:
  int ExecutorOf(int partition) const {
    return partition % num_executors_;
  }
  /// Fetches and decodes all of `reducer`'s chunks, ordered by map
  /// partition. Called with cache_mu_ NOT held.
  std::vector<std::vector<uint8_t>> FetchAll(int shuffle_id,
                                             int reducer) const;
  void InvalidateCache(int shuffle_id);

  int num_executors_;
  net::WireCodec codec_;
  uint32_t fetch_chunk_bytes_;
  uint32_t max_inflight_bytes_;
  net::Transport* transport_;
  net::NetStats* stats_;
  std::vector<std::unique_ptr<net::BlockServer>> servers_;

  mutable std::mutex mu_;  // guards shuffle registry
  std::vector<int> reducers_per_shuffle_;

  // Reduce-side fetch results, keyed by (shuffle, reducer). unique_ptr
  // values keep GetChunks' returned references stable across rehashing;
  // entries are invalidated on PutChunk/DropMapOutput/Release.
  mutable std::mutex cache_mu_;
  mutable std::map<std::pair<int, int>,
                   std::unique_ptr<std::vector<std::vector<uint8_t>>>>
      fetched_;
};

}  // namespace deca::spark

#endif  // DECA_SPARK_NETWORK_SHUFFLE_H_
