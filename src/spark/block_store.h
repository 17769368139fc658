#ifndef DECA_SPARK_BLOCK_STORE_H_
#define DECA_SPARK_BLOCK_STORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "core/page.h"
#include "jvm/heap.h"
#include "memory/memory_manager.h"
#include "spark/config.h"
#include "spark/metrics.h"
#include "spark/record_ops.h"
#include "spark/tier_backend.h"

namespace deca::spark {

/// A materialized cache block as returned to tasks. At most one heap
/// representation is set; `packed` carries the serialized off-heap bytes
/// when the block was served lazily from T1/T2 without materializing
/// (RecordCursor / RawPageCursor walk it). `temporary` marks data
/// materialized per-access from a lower tier (not re-inserted into the
/// store).
struct LoadedBlock {
  StorageLevel level = StorageLevel::kMemoryObjects;
  uint32_t count = 0;
  /// kMemoryObjects: a managed Object[] of record roots.
  jvm::ObjRef object_array = jvm::kNullRef;
  /// kMemorySerialized: a managed byte[] of concatenated records.
  jvm::ObjRef serialized = jvm::kNullRef;
  /// kDecaPages: the block's page group.
  std::shared_ptr<core::PageGroup> pages;
  /// Packed T1/T2 payload (lazy reads): Kryo records, the serialized
  /// byte run, or raw page bytes depending on `level`. A T2 payload is a
  /// view of the swap file's mapping that pins its extent while held.
  alloc::BytesPtr packed;
  bool temporary = false;

  bool valid() const {
    return object_array != jvm::kNullRef || serialized != jvm::kNullRef ||
           pages != nullptr || packed != nullptr;
  }
};

/// Per-executor cache manager: a three-tier block store with a per-block
/// tier state machine.
///
///   T0  heap blocks — deserialized Object[]s, serialized byte[]s, or
///       Deca page groups, exactly the pre-tier representations;
///   T1  compact serialized off-heap buffers (storage_tiers >= 3 only):
///       charged to the storage pool, invisible to GC root scans;
///   T2  extents of one swap file per executor, on disk.
///
/// Demotion (T0 -> T1 -> T2) is driven by the memory manager's two-stage
/// eviction callbacks and the put-path budget loop: blocks compact into
/// T1 first and cascade to disk only when T1 is full (t1_fraction) or
/// demotion alone cannot satisfy the request. Promotion is lazy: a Get on
/// a T1/T2 block materializes only that block and re-admits it one tier
/// up under the configured AdmitPolicy; rejected accesses are served as
/// temporary views. With storage_tiers == 2 (default) the ladder
/// degenerates to the legacy heap <-> disk store, bit-identical to every
/// prior release. Kryo-serialized blocks hold an explicit storage
/// reservation; page-group blocks are re-tagged to the storage pool, so
/// footprints move pools instead of being charged twice.
///
/// Registered as a GC root provider: T0 object/serialized blocks pin
/// their managed arrays; page groups pin their own pages; T1/T2 blocks
/// contribute nothing to root scans.
///
/// Concurrency contract (the src/exec runtime): a cache manager belongs
/// to one executor, and every Put/Get/Evict runs either on that
/// executor's mutator thread or on the driver after the stage barrier —
/// `blocks_` is never touched from two threads at once, and locking it
/// here would deadlock anyway (GC root visits re-enter during
/// allocation). Only the byte counters are read cross-thread (driver
/// progress/metric queries), so they are atomics.
class CacheManager : public jvm::RootProvider {
 public:
  /// `heap` must already have its executor's memory manager attached
  /// (Executor builds the manager first): every block charges its pool.
  CacheManager(jvm::Heap* heap, const SparkConfig* config, int executor_id);
  ~CacheManager() override;

  /// Associates the record operations used to (de)serialize blocks of
  /// `rdd_id` during demotion/swap.
  void RegisterOps(int rdd_id, const RecordOps* ops);

  /// Caches a block of managed records (level kMemoryObjects or, when the
  /// configured level is kMemorySerialized, serializes them). `records`
  /// must be a managed Object[].
  void PutObjects(BlockKey key, jvm::ObjRef records, uint32_t count,
                  TaskMetrics* metrics);

  /// Caches a Deca page-group block.
  void PutPages(BlockKey key, std::shared_ptr<core::PageGroup> pages,
                uint32_t count, TaskMetrics* metrics);

  /// Fetches a block, materializing a heap representation. T1/T2 blocks
  /// are promoted one tier when the admission policy admits them
  /// (re-inserted, non-temporary); otherwise the materialization is
  /// temporary, rebuilt on every access. Returns an invalid block if the
  /// key was never cached.
  LoadedBlock Get(BlockKey key, TaskMetrics* metrics);

  /// Like Get, but a T1/T2 block the admission policy rejects is returned
  /// as its packed payload (`LoadedBlock::packed`) with no heap
  /// materialization at all — point queries then deserialize only the
  /// records they touch via RecordCursor / RawPageCursor.
  LoadedBlock GetLazy(BlockKey key, TaskMetrics* metrics);

  /// Drops a block entirely (unpersist), whatever tier it is in.
  void Evict(BlockKey key);

  /// OOM degradation hook (EvictStage::kSpill arm): swaps LRU blocks to
  /// disk until about `need_bytes` of memory has been unpinned. Returns
  /// the number of blocks evicted (0 when nothing was in memory).
  uint64_t EvictUnderPressure(uint64_t need_bytes);

  /// Execution-pool borrowing hook: same LRU swap-out as
  /// EvictUnderPressure but does not count as a pressure eviction (it is
  /// routine pool arbitration, not an OOM rescue). The memory manager
  /// clamps `need_bytes` to what the storage floor permits.
  uint64_t EvictForExecution(uint64_t need_bytes);

  /// Demote stage (EvictStage::kDemote): compacts LRU T0 heap blocks
  /// into T1 off-heap buffers until about `need_bytes` of heap memory is
  /// unpinned. No-op (returns 0) when storage_tiers < 3. `for_oom`
  /// counts the demotions as pressure evictions.
  uint64_t DemoteUnderPressure(uint64_t need_bytes, bool for_oom);

  /// Simulated executor crash: drops every block (all tiers, memory and
  /// the swap file) and zeroes the byte counters. Lost blocks are recomputed
  /// from lineage on the next access.
  void DropAllForWipe();

  /// Accounting invariants, asserted at every stage barrier: the byte
  /// counters match the per-entry state, and the storage-pool
  /// reservations held by T0/T1 blocks sum to exactly the manager's
  /// storage_reserved() — a `temporary` block that charged the pool (a
  /// double charge; its entry still holds the canonical grant) breaks
  /// this identity immediately. Aborts on violation.
  void VerifyAccounting() const;

  /// Blocks demoted/swapped out by the OOM degradation ladder.
  uint64_t pressure_evictions() const {
    return pressure_evictions_.load(std::memory_order_relaxed);
  }

  /// Total bytes of blocks currently held in memory (T0 heap estimate
  /// plus T1 off-heap payload).
  uint64_t memory_bytes() const {
    return memory_bytes_.load(std::memory_order_relaxed);
  }
  /// Total bytes of blocks currently swapped out.
  uint64_t disk_bytes() const {
    return disk_bytes_.load(std::memory_order_relaxed);
  }
  /// Peak in-memory footprint observed.
  uint64_t peak_memory_bytes() const {
    return peak_memory_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t swap_out_count() const {
    return swap_out_count_.load(std::memory_order_relaxed);
  }
  uint64_t t1_resident_bytes() const { return t1_.resident_bytes(); }
  uint64_t demote_t1_count() const {
    return demote_t1_count_.load(std::memory_order_relaxed);
  }
  uint64_t promote_count() const {
    return promote_count_.load(std::memory_order_relaxed);
  }
  uint64_t admit_reject_count() const {
    return admit_rejects_.load(std::memory_order_relaxed);
  }

  /// Snapshot of the tier plane (driver reads after stage barriers).
  TierCounters tier_counters() const;

  void VisitRoots(const std::function<void(jvm::ObjRef*)>& fn) override;

 private:
  /// Where a block currently lives. Legal transitions: T0 -> T1 (demote,
  /// storage_tiers >= 3), T0 -> T2 (legacy spill), T1 -> T2 (cascade),
  /// T1 -> T0 and T2 -> T1 (lazy promote under the admission policy).
  enum class Tier : uint8_t { kT0, kT1, kT2 };

  struct Entry {
    StorageLevel level;
    Tier tier = Tier::kT0;
    uint32_t count = 0;
    jvm::ObjRef data = jvm::kNullRef;  // T0: Object[] or byte[]
    std::shared_ptr<core::PageGroup> pages;  // T0: kDecaPages
    uint64_t bytes = 0;  // T0 in-memory footprint estimate
    // Storage-pool grant for T0 object/serialized blocks (page-group
    // blocks charge via their group's pool tag; T1 payloads via the
    // OffHeapTier's per-slot reservation). Released on demotion/swap-out
    // and on entry destruction.
    memory::MemoryReservation reservation;
    uint64_t packed_bytes = 0;   // payload size while in T1/T2
    uint64_t charged_bytes = 0;  // amount added to the tier byte counter
    uint64_t accesses_since_demote = 0;  // drives the admission policy
    uint64_t lru_tick = 0;
    // True while a tier transition for this entry is in flight. Unpack
    // allocates on the managed heap, which can trigger a collection and
    // re-enter the eviction paths (OOM hooks, pool borrowing); a pinned
    // entry is skipped by every victim scan so it cannot be spilled out
    // from under its own promotion (a double meter subtraction).
    bool pinned = false;
  };

  /// Serializes a managed Object[] block into `out` (Kryo-style).
  void SerializeRecords(const RecordOps* ops, jvm::ObjRef records,
                        uint32_t count, ByteWriter* out);
  jvm::ObjRef DeserializeRecords(const RecordOps* ops, const uint8_t* data,
                                 size_t size, uint32_t count,
                                 TaskMetrics* metrics);

  /// Packs a T0 entry's heap representation into the tier currency
  /// (Kryo records / serialized run / raw page bytes).
  PackedBlock Pack(BlockKey key, const Entry& e, TaskMetrics* metrics);
  /// Materializes a heap representation from packed payload into
  /// `*block` (object_array / serialized / pages per level).
  void Unpack(BlockKey key, const PackedBlock& packed, LoadedBlock* block,
              TaskMetrics* metrics);

  /// T0 -> T1: packs the heap representation into an off-heap buffer
  /// (cascading LRU T1 blocks to disk when over the t1_fraction cap) and
  /// releases the heap copy.
  void DemoteToT1(BlockKey key, Entry* e, TaskMetrics* metrics);
  /// T0/T1 -> T2: writes the payload to an extent of the swap file.
  void SpillToT2(BlockKey key, Entry* e, TaskMetrics* metrics);
  /// T1 -> T0: re-admits a heap representation built from `packed`.
  void PromoteToT0(BlockKey key, Entry* e, const PackedBlock& packed,
                   LoadedBlock* block, TaskMetrics* metrics);
  /// T2 -> T1: re-admits the packed payload off-heap (storage_tiers >= 3).
  /// T1 owns its bytes, so `*packed`'s swap-file view is first replaced
  /// by a counted copy, which T1 then shares with the caller.
  void PromoteToT1(BlockKey key, Entry* e, PackedBlock* packed,
                   TaskMetrics* metrics);

  /// The admission policy's verdict for an access to a demoted block
  /// (`accesses` counts accesses since demotion, this one included).
  bool ShouldAdmit(uint64_t accesses) const;
  /// Makes room in T1 for `incoming` payload bytes by cascading LRU T1
  /// blocks to disk while over the t1_fraction cap.
  void EnsureT1Room(uint64_t incoming, TaskMetrics* metrics);

  /// Sheds blocks while the storage pool is over its limit: demote
  /// first (storage_tiers >= 3), spill once nothing is left to demote.
  /// `exclude` protects a just-promoted block from immediately becoming
  /// its own eviction victim.
  void EnforceBudget(TaskMetrics* metrics, const BlockKey* exclude = nullptr);
  /// Swaps out the least-recently-used in-memory block; false if none.
  bool SwapOutLru(TaskMetrics* metrics, const BlockKey* exclude);
  /// Demotes the least-recently-used T0 block to T1, returning its heap
  /// footprint estimate (0 if no T0 block was left).
  uint64_t DemoteLru(TaskMetrics* metrics, const BlockKey* exclude);
  /// LRU swap-out until about `need_bytes` are unpinned; returns blocks
  /// evicted.
  uint64_t EvictBytes(uint64_t need_bytes);
  /// Both-stage shared body of Get/GetLazy.
  LoadedBlock GetInternal(BlockKey key, bool lazy, TaskMetrics* metrics);

  uint64_t EstimateObjectBlockBytes(const RecordOps* ops, jvm::ObjRef records,
                                    uint32_t count) const;

  jvm::Heap* heap_;
  const SparkConfig* cfg_;
  memory::ExecutorMemoryManager* mm_;  // the heap's; never null
  int executor_id_;
  uint64_t t1_cap_bytes_ = 0;
  std::unordered_map<BlockKey, Entry, BlockKeyHash> blocks_;
  std::map<int, const RecordOps*> ops_;
  OffHeapTier t1_;
  DiskTier t2_;
  std::atomic<uint64_t> memory_bytes_{0};
  std::atomic<uint64_t> disk_bytes_{0};
  std::atomic<uint64_t> peak_memory_bytes_{0};
  std::atomic<uint64_t> swap_out_count_{0};
  std::atomic<uint64_t> pressure_evictions_{0};
  std::atomic<uint64_t> demote_t1_count_{0};
  std::atomic<uint64_t> promote_count_{0};
  std::atomic<uint64_t> admit_rejects_{0};
  std::atomic<uint64_t> t0_hits_{0};
  std::atomic<uint64_t> t1_hits_{0};
  std::atomic<uint64_t> t2_hits_{0};
  std::atomic<uint64_t> misses_{0};
  // Mutator-thread only; the driver reads the derived percentiles via
  // tier_counters() after stage barriers (synchronized by the barrier).
  Histogram promote_ms_;
  uint64_t lru_clock_ = 0;
};

}  // namespace deca::spark

#endif  // DECA_SPARK_BLOCK_STORE_H_
