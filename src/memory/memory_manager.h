#ifndef DECA_MEMORY_MEMORY_MANAGER_H_
#define DECA_MEMORY_MEMORY_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/field_codec.h"
#include "common/logging.h"

namespace deca::memory {

/// The two arbitrated memory pools (Spark 1.6's UnifiedMemoryManager):
/// execution (shuffle buffers, aggregation tables, sort-spill runs) and
/// storage (cached RDD blocks).
enum class Pool : uint8_t { kExecution, kStorage };

const char* PoolName(Pool p);

class ExecutorMemoryManager;

/// An RAII grant of pool bytes. Releasing (or destroying) the reservation
/// returns the bytes to its pool. Move-only; an empty reservation holds
/// nothing.
class MemoryReservation {
 public:
  MemoryReservation() = default;
  ~MemoryReservation() { Release(); }

  MemoryReservation(MemoryReservation&& o) noexcept
      : mgr_(o.mgr_), pool_(o.pool_), bytes_(o.bytes_) {
    o.mgr_ = nullptr;
    o.bytes_ = 0;
  }
  MemoryReservation& operator=(MemoryReservation&& o) noexcept {
    if (this != &o) {
      Release();
      mgr_ = o.mgr_;
      pool_ = o.pool_;
      bytes_ = o.bytes_;
      o.mgr_ = nullptr;
      o.bytes_ = 0;
    }
    return *this;
  }
  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;

  /// True when this reservation holds bytes in a pool.
  bool held() const { return mgr_ != nullptr && bytes_ > 0; }
  uint64_t bytes() const { return bytes_; }
  Pool pool() const { return pool_; }

  /// Returns the bytes to the pool (idempotent).
  void Release();

 private:
  friend class ExecutorMemoryManager;
  MemoryReservation(ExecutorMemoryManager* mgr, Pool pool, uint64_t bytes)
      : mgr_(mgr), pool_(pool), bytes_(bytes) {}

  ExecutorMemoryManager* mgr_ = nullptr;
  Pool pool_ = Pool::kExecution;
  uint64_t bytes_ = 0;
};

/// A live owner of managed pages whose footprint is charged to the
/// manager (core::PageGroup). Registered sources let the manager
/// independently recompute the total page footprint, so tests can assert
/// the incremental charge accounting never drifts.
class PageFootprintSource {
 public:
  virtual ~PageFootprintSource() = default;
  /// Current heap footprint of this source's pages (headers included).
  virtual uint64_t footprint_bytes() const = 0;
};

/// Point-in-time accounting snapshot (all byte quantities). Across
/// executors every entry sums; a summed peak is the sum of per-executor
/// high-water marks.
struct MemoryStats {
  uint64_t total_bytes = 0;          // the unified per-executor budget
  uint64_t storage_floor_bytes = 0;  // storage memory execution cannot take
  uint64_t exec_used = 0;
  uint64_t exec_peak = 0;
  uint64_t storage_used = 0;
  uint64_t storage_peak = 0;
  uint64_t borrowed_peak = 0;        // peak bytes held across the pool split
  uint64_t denied_reservations = 0;  // requests that found no room
  uint64_t page_bytes = 0;           // charged native-page footprint
  uint64_t heap_capacity = 0;        // committed managed-heap capacity

  template <typename F>
  static constexpr void ForEachField(F&& f) {
    using Self = MemoryStats;
    DECA_SUM(total_bytes);
    DECA_SUM(storage_floor_bytes);
    DECA_SUM(exec_used);
    DECA_SUM(exec_peak);
    DECA_SUM(storage_used);
    DECA_SUM(storage_peak);
    DECA_SUM(borrowed_peak);
    DECA_SUM(denied_reservations);
    DECA_SUM(page_bytes);
    DECA_SUM(heap_capacity);
  }
};

// Tripwire: a new member breaks this binding until it is listed.
inline void CheckMemoryStatsList(MemoryStats& s) {
  [[maybe_unused]] auto& [m0, m1, m2, m3, m4, m5, m6, m7, m8, m9] = s;
  static_assert(FieldCount<MemoryStats>() == 10);
}

/// One executor's memory-accounting plane: a single byte budget split into
/// an execution pool and a storage pool with Spark-1.6-style borrowing.
/// Storage may borrow idle execution memory (its limit is whatever
/// execution is not using); execution may reclaim borrowed storage memory
/// by evicting blocks, but never below the storage floor
/// (total * storage_fraction). The managed heap additionally registers its
/// committed capacity, which the accounting check compares with the live
/// heap.
///
/// Concurrency contract (mirrors jvm::Heap): every charge, reservation and
/// eviction decision happens on the executor's single mutator thread and
/// depends only on bytes charged so far on that thread — this is what
/// keeps parallel runs bit-identical to sequential ones. The counters are
/// relaxed atomics only so the driver may read metrics cross-thread after
/// a stage barrier.
class ExecutorMemoryManager {
 public:
  ExecutorMemoryManager(uint64_t total_bytes, double storage_fraction);

  ExecutorMemoryManager(const ExecutorMemoryManager&) = delete;
  ExecutorMemoryManager& operator=(const ExecutorMemoryManager&) = delete;

  // -- Storage eviction -----------------------------------------------------

  /// First stage of every eviction: demote heap blocks into the
  /// serialized off-heap tier (keeps the data resident, frees heap bytes
  /// and the heap-vs-serialized size delta). Falls through to kSpill
  /// (swap to disk) only for what demotion could not shed. With the
  /// off-heap tier disabled the demote stage is a no-op and the manager
  /// behaves exactly like the old direct LRU-to-disk path.
  enum class EvictStage : uint8_t { kDemote, kSpill };

  /// Sheds storage-pool memory: demotes or swaps cached blocks until
  /// roughly `need_bytes` are unpinned, returning the number of blocks
  /// acted on. `for_oom` marks the heap's last-resort OOM ladder (which
  /// may dig below the storage floor and counts as a pressure eviction);
  /// execution-pool borrowing passes false.
  using StorageEvictor = std::function<uint64_t(
      uint64_t need_bytes, EvictStage stage, bool for_oom)>;
  void SetStorageEvictor(StorageEvictor evictor) {
    evictor_ = std::move(evictor);
  }

  /// Heap OOM degradation hook: evicts storage without floor protection —
  /// demote first (moves blocks off the managed heap entirely), spill to
  /// disk only once nothing is left to demote. Returns the number of
  /// blocks demoted or evicted.
  uint64_t EvictStorageForOom(uint64_t need_bytes);

  // -- Reservations (mutator thread) ----------------------------------------

  /// Grants `bytes` from `pool` or returns an empty reservation (counting
  /// the denial). An execution request may first evict storage down to the
  /// floor; a storage request never evicts execution.
  MemoryReservation TryReserve(Pool pool, uint64_t bytes);

  /// Grants `bytes` unconditionally (overcommit allowed). A grant that
  /// found no room — even after permitted eviction — still counts as a
  /// denied reservation, so pressure is visible in metrics while callers
  /// (e.g. the block store) shed the overflow themselves right after.
  MemoryReservation Reserve(Pool pool, uint64_t bytes);

  // -- Page charges (core::PageGroup hook, mutator thread) ------------------

  /// Charges a freshly allocated page's footprint to `pool`. Forced:
  /// pages that found no room overcommit (and count a denial) — the heap's
  /// own OOM ladder is the backstop for real exhaustion.
  void ChargePages(Pool pool, uint64_t bytes);
  void UnchargePages(Pool pool, uint64_t bytes);
  /// Re-tags already-charged page bytes (e.g. a shuffle-built page group
  /// handed to the cache moves execution -> storage).
  void TransferPages(Pool from, Pool to, uint64_t bytes);

  void RegisterPageSource(const PageFootprintSource* source);
  void UnregisterPageSource(const PageFootprintSource* source);

  // -- Managed heap ---------------------------------------------------------

  void RegisterHeapCapacity(uint64_t capacity_bytes) {
    heap_capacity_.store(capacity_bytes, std::memory_order_relaxed);
  }

  // -- Introspection --------------------------------------------------------

  uint64_t total_bytes() const { return total_; }
  uint64_t storage_floor_bytes() const { return floor_; }
  uint64_t exec_used() const {
    return exec_pages_.load(std::memory_order_relaxed) +
           exec_reserved_.load(std::memory_order_relaxed);
  }
  uint64_t storage_used() const {
    return storage_pages_.load(std::memory_order_relaxed) +
           storage_reserved_.load(std::memory_order_relaxed);
  }
  /// Most the storage pool may hold right now (borrows idle execution).
  uint64_t storage_limit() const {
    uint64_t e = exec_used();
    return e >= total_ ? 0 : total_ - e;
  }
  bool StorageOverLimit() const { return storage_used() > storage_limit(); }
  uint64_t page_bytes() const {
    return exec_pages_.load(std::memory_order_relaxed) +
           storage_pages_.load(std::memory_order_relaxed);
  }
  uint64_t exec_peak() const {
    return exec_peak_.load(std::memory_order_relaxed);
  }
  uint64_t storage_peak() const {
    return storage_peak_.load(std::memory_order_relaxed);
  }
  uint64_t borrowed_peak() const {
    return borrowed_peak_.load(std::memory_order_relaxed);
  }
  uint64_t denied_reservations() const {
    return denied_.load(std::memory_order_relaxed);
  }
  /// Live storage-pool reservation bytes (block-store grants only; page
  /// charges are tracked separately). The block store asserts at every
  /// stage barrier that its per-entry reservations sum to exactly this —
  /// a temporary block that double-charged the pool breaks the identity.
  uint64_t storage_reserved() const {
    return storage_reserved_.load(std::memory_order_relaxed);
  }
  uint64_t heap_capacity_bytes() const {
    return heap_capacity_.load(std::memory_order_relaxed);
  }

  MemoryStats Snapshot() const;

  /// Accounting identity check (stage barriers, tests): the registered
  /// heap capacity matches `heap_capacity_bytes`, and the incrementally
  /// charged page bytes equal the summed footprint of every live
  /// registered page source. Aborts on violation.
  void VerifyAccounting(uint64_t heap_capacity_bytes) const;

 private:
  friend class MemoryReservation;

  /// Makes room for an execution grant of `bytes`, evicting storage down
  /// to the floor if needed. Returns whether the grant now fits.
  bool EnsureExecutionRoom(uint64_t bytes);
  void AddUsed(Pool pool, uint64_t bytes, bool reserved);
  void SubUsed(Pool pool, uint64_t bytes, bool reserved);
  void UpdatePeaks();
  void ReleaseReservation(Pool pool, uint64_t bytes) {
    SubUsed(pool, bytes, /*reserved=*/true);
  }

  const uint64_t total_;
  const uint64_t floor_;

  // Mutated on the mutator thread only; atomics (relaxed) let the driver
  // read metrics cross-thread after the stage barrier.
  std::atomic<uint64_t> exec_pages_{0};
  std::atomic<uint64_t> storage_pages_{0};
  std::atomic<uint64_t> exec_reserved_{0};
  std::atomic<uint64_t> storage_reserved_{0};
  std::atomic<uint64_t> exec_peak_{0};
  std::atomic<uint64_t> storage_peak_{0};
  std::atomic<uint64_t> borrowed_peak_{0};
  std::atomic<uint64_t> denied_{0};
  std::atomic<uint64_t> heap_capacity_{0};

  StorageEvictor evictor_;
  std::vector<const PageFootprintSource*> sources_;
};

}  // namespace deca::memory

#endif  // DECA_MEMORY_MEMORY_MANAGER_H_
