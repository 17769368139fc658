#ifndef DECA_NET_NET_STATS_H_
#define DECA_NET_NET_STATS_H_

#include <atomic>
#include <cstdint>

#include "common/field_codec.h"

namespace deca::net {

/// Point-in-time copy of a NetStats (plain integers/doubles, safe to pass
/// around after the run). All counters are deterministic functions of the
/// simulation (message and byte counts never depend on thread timing);
/// encode_ms / decode_ms are wall time and must be threshold-compared.
/// The list is also the run report's net.* metrics; across executors
/// every entry sums.
struct NetStatsSnapshot {
  uint64_t wire_bytes = 0;
  uint64_t payload_bytes = 0;
  uint64_t messages = 0;
  uint64_t index_requests = 0;
  uint64_t slice_requests = 0;
  uint64_t records_encoded = 0;
  uint64_t records_decoded = 0;
  uint64_t fetch_retries = 0;
  uint64_t injected_fetch_failures = 0;
  uint64_t flow_stalls = 0;
  uint64_t virtual_wire_us = 0;
  double encode_ms = 0;
  double decode_ms = 0;

  template <typename F>
  static constexpr void ForEachField(F&& f) {
    using Self = NetStatsSnapshot;
    DECA_SUM(wire_bytes);
    DECA_SUM(payload_bytes);
    DECA_SUM(messages);
    DECA_SUM(index_requests);
    DECA_SUM(slice_requests);
    DECA_SUM(records_encoded);
    DECA_SUM(records_decoded);
    DECA_SUM(fetch_retries);
    DECA_SUM(injected_fetch_failures);
    DECA_SUM(flow_stalls);
    DECA_SUM(virtual_wire_us);
    DECA_SUM(encode_ms);
    DECA_SUM(decode_ms);
  }
};

// Tripwire: a new member breaks this binding until it is listed.
inline void CheckNetStatsSnapshotList(NetStatsSnapshot& s) {
  [[maybe_unused]] auto& [m0, m1, m2, m3, m4, m5, m6, m7, m8, m9, m10, m11,
                          m12] = s;
  static_assert(FieldCount<NetStatsSnapshot>() == 13);
}

/// Shared counters of one network plane (one per SparkContext): the
/// transport counts messages and bytes, the shuffle service counts codec
/// work and fetch-path events. All fields are atomics so
/// worker threads on different executors can report concurrently; every
/// counter except the two *_ms wall times is deterministic (bit-identical
/// between sequential and parallel runs of the same seed).
class NetStats {
 public:
  /// Every framed byte that crossed the transport (requests + responses).
  std::atomic<uint64_t> wire_bytes{0};
  /// Shuffle chunk payload bytes deposited (pre-codec, what the local
  /// service would have stored).
  std::atomic<uint64_t> payload_bytes{0};
  /// Request/response round trips.
  std::atomic<uint64_t> messages{0};
  /// Reducer-side index lookups (one per (reducer, source executor)).
  std::atomic<uint64_t> index_requests{0};
  /// Chunked fetch slices issued by reducers.
  std::atomic<uint64_t> slice_requests{0};
  /// Records individually framed by the record-serialized codec. Stays 0
  /// under the page codec — the paper's serialization-elimination claim.
  std::atomic<uint64_t> records_encoded{0};
  std::atomic<uint64_t> records_decoded{0};
  /// Transport-level retries of doomed fetch probes (injected faults).
  std::atomic<uint64_t> fetch_retries{0};
  /// Injected fetch failures that travelled the transport path.
  std::atomic<uint64_t> injected_fetch_failures{0};
  /// Times the per-reducer in-flight window forced a smaller slice.
  std::atomic<uint64_t> flow_stalls{0};
  /// Backoff of retried fail probes, accounted virtually (never slept)
  /// so runs stay fast and deterministic.
  std::atomic<uint64_t> virtual_wire_us{0};
  /// Wall time spent encoding/decoding wire frames (codec cost).
  std::atomic<uint64_t> encode_ns{0};
  std::atomic<uint64_t> decode_ns{0};

  NetStatsSnapshot Snapshot() const {
    NetStatsSnapshot s;
    s.wire_bytes = wire_bytes.load(std::memory_order_relaxed);
    s.payload_bytes = payload_bytes.load(std::memory_order_relaxed);
    s.messages = messages.load(std::memory_order_relaxed);
    s.index_requests = index_requests.load(std::memory_order_relaxed);
    s.slice_requests = slice_requests.load(std::memory_order_relaxed);
    s.records_encoded = records_encoded.load(std::memory_order_relaxed);
    s.records_decoded = records_decoded.load(std::memory_order_relaxed);
    s.fetch_retries = fetch_retries.load(std::memory_order_relaxed);
    s.injected_fetch_failures =
        injected_fetch_failures.load(std::memory_order_relaxed);
    s.flow_stalls = flow_stalls.load(std::memory_order_relaxed);
    s.virtual_wire_us = virtual_wire_us.load(std::memory_order_relaxed);
    s.encode_ms =
        static_cast<double>(encode_ns.load(std::memory_order_relaxed)) / 1e6;
    s.decode_ms =
        static_cast<double>(decode_ns.load(std::memory_order_relaxed)) / 1e6;
    return s;
  }
};

}  // namespace deca::net

#endif  // DECA_NET_NET_STATS_H_
