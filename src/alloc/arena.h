#ifndef DECA_ALLOC_ARENA_H_
#define DECA_ALLOC_ARENA_H_

// The counting plane of native buffers: every buffer an executor takes
// outside its simulated heap (the heap's own backing buffer, T1 payloads,
// T2 swap reads, raw-page staging, spill-merge records) is a plain
// `new[]` or an adopted serializer vector, and is counted here. The header
// keeps its name from an earlier slab arena because the benchmark client
// (perfbench/) includes it for AllocStats.

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/field_codec.h"

namespace deca::alloc {

/// Native-buffer counters. One struct serves three scopes — per-executor
/// counters, per-executor snapshots shipped by daemons, and the run-level
/// sum — so `Add` stays a plain field-wise sum. All three are driven only
/// by engine call sites, so they are bit-identical across thread counts
/// and local vs process runs, and report_diff compares them exactly.
struct AllocStats {
  uint64_t alloc_calls = 0;
  uint64_t free_calls = 0;
  uint64_t bytes_requested = 0;

  template <typename F>
  static constexpr void ForEachField(F&& f) {
    using Self = AllocStats;
    DECA_SUM(alloc_calls);
    DECA_SUM(free_calls);
    DECA_SUM(bytes_requested);
  }

  void Add(const AllocStats& o) { FoldFields(this, o); }
};

// Tripwire: a new member breaks this binding until it is listed.
inline void CheckAllocStatsList(AllocStats& s) {
  [[maybe_unused]] auto& [m0, m1, m2] = s;
  static_assert(FieldCount<AllocStats>() == 3);
}

/// One executor's counter of native buffers. Worker threads share it, so
/// the counts are relaxed atomics; their sums do not depend on ordering.
class AllocCounter {
 public:
  void CountAlloc(size_t bytes) {
    alloc_calls_.fetch_add(1, std::memory_order_relaxed);
    bytes_requested_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void CountFree() { free_calls_.fetch_add(1, std::memory_order_relaxed); }

  AllocStats Stats() const {
    AllocStats s;
    s.alloc_calls = alloc_calls_.load(std::memory_order_relaxed);
    s.free_calls = free_calls_.load(std::memory_order_relaxed);
    s.bytes_requested = bytes_requested_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::atomic<uint64_t> alloc_calls_{0};
  std::atomic<uint64_t> free_calls_{0};
  std::atomic<uint64_t> bytes_requested_{0};
};

}  // namespace deca::alloc

#endif  // DECA_ALLOC_ARENA_H_
