#ifndef DECA_SPARK_TIER_BACKEND_H_
#define DECA_SPARK_TIER_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "alloc/buffers.h"
#include "memory/memory_manager.h"
#include "spark/config.h"
#include "spark/metrics.h"

namespace deca::spark {

/// Identifies one cached block: (rdd id, partition). Workloads that
/// sub-divide a partition encode the granule as partition * 1024 + sub.
struct BlockKey {
  int rdd_id = 0;
  int partition = 0;

  bool operator<(const BlockKey& o) const {
    return rdd_id != o.rdd_id ? rdd_id < o.rdd_id : partition < o.partition;
  }
  bool operator==(const BlockKey& o) const {
    return rdd_id == o.rdd_id && partition == o.partition;
  }
};

/// Hash for the block store's hot lookup map (and any other hashed
/// container keyed by block).
struct BlockKeyHash {
  size_t operator()(const BlockKey& k) const {
    // Pack both ids into one word and finalize with a 64-bit mix
    // (splitmix64); rdd ids and partitions are small and sequential, so
    // identity hashing would cluster badly.
    uint64_t x = (static_cast<uint64_t>(static_cast<uint32_t>(k.rdd_id))
                  << 32) |
                 static_cast<uint32_t>(k.partition);
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<size_t>(x ^ (x >> 31));
  }
};

/// One block's payload in packed form: Kryo-serialized records
/// (kMemoryObjects), the raw serialized byte run (kMemorySerialized), or
/// raw page bytes (kDecaPages, PageGroup::EncodeRaw). This is the common
/// currency of the lower tiers — T1 holds it in an off-heap buffer, T2 in
/// a swap file — and of the lazy read path (LoadedBlock::packed).
struct PackedBlock {
  StorageLevel level = StorageLevel::kMemoryObjects;
  uint32_t count = 0;
  alloc::BytesPtr bytes;

  bool valid() const { return bytes != nullptr; }
  uint64_t size() const { return bytes != nullptr ? bytes->size() : 0; }
};

/// A storage tier below the heap tier (T0): a keyed store of packed block
/// payloads. The CacheManager owns the per-block tier state machine and
/// the representation conversions (it has the heap and the record ops);
/// backends only hold bytes and account for them. Same concurrency
/// contract as the CacheManager: all mutation on the executor's mutator
/// thread, byte counters are relaxed atomics for driver metric reads.
class TierBackend {
 public:
  virtual ~TierBackend() = default;

  virtual const char* name() const = 0;
  virtual void Store(BlockKey key, PackedBlock block,
                     TaskMetrics* metrics) = 0;
  /// Loads a block's packed payload; `bytes == nullptr` when absent.
  virtual PackedBlock Load(BlockKey key, TaskMetrics* metrics) const = 0;
  virtual bool Contains(BlockKey key) const = 0;
  virtual void Drop(BlockKey key) = 0;
  virtual void DropAll() = 0;
  virtual uint64_t block_count() const = 0;

  /// Payload bytes currently resident in this tier.
  uint64_t resident_bytes() const {
    return resident_.load(std::memory_order_relaxed);
  }
  uint64_t peak_resident_bytes() const {
    return peak_.load(std::memory_order_relaxed);
  }

 protected:
  void AddResident(uint64_t bytes) {
    uint64_t now = resident_.fetch_add(bytes, std::memory_order_relaxed) +
                   bytes;
    if (now > peak_.load(std::memory_order_relaxed)) {
      peak_.store(now, std::memory_order_relaxed);
    }
  }
  void SubResident(uint64_t bytes) {
    resident_.fetch_sub(bytes, std::memory_order_relaxed);
  }
  void ZeroResident() { resident_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> resident_{0};
  std::atomic<uint64_t> peak_{0};
};

/// T1: compact serialized blocks in off-heap (native) buffers. Charged to
/// the storage pool through an explicit reservation per block, but
/// invisible to GC root scans — a full collection traces zero references
/// into this tier no matter how many blocks it holds.
class OffHeapTier : public TierBackend {
 public:
  /// Every held block reserves its bytes from `mm`'s storage pool.
  explicit OffHeapTier(memory::ExecutorMemoryManager* mm) : mm_(mm) {}

  const char* name() const override { return "offheap"; }
  void Store(BlockKey key, PackedBlock block, TaskMetrics* metrics) override;
  PackedBlock Load(BlockKey key, TaskMetrics* metrics) const override;
  bool Contains(BlockKey key) const override;
  void Drop(BlockKey key) override;
  void DropAll() override;
  uint64_t block_count() const override { return blocks_.size(); }

  /// Sum of the live per-block storage reservations (accounting identity
  /// checks).
  uint64_t reserved_bytes() const;

 private:
  struct Slot {
    PackedBlock block;
    memory::MemoryReservation reservation;
  };

  memory::ExecutorMemoryManager* mm_;
  std::unordered_map<BlockKey, Slot, BlockKeyHash> blocks_;
};

/// T2: one swap file per executor (`<dir>/swap_e<executor_id>`; Spark's
/// MEMORY_AND_DISK spill half), mapped once MAP_SHARED into a fixed
/// address window. Each block occupies one extent of the file: Store
/// copies the payload into it through the mapping and Load returns an
/// uncounted view of it, so a T2 read copies nothing. A dropped extent
/// returns to a free set that merges neighbours, and Store takes the
/// best-fitting free extent (or appends, growing the file by exactly
/// that extent), so a steady working set rewrites the same extents
/// instead of creating and unlinking a file per block. A live view pins
/// its extent: Drop defers freeing it, and the cut to length zero, until
/// the view's last reference is released. Payload bytes only, the
/// CacheManager keeps level/count in its entry.
class DiskTier : public TierBackend {
 public:
  /// Address space reserved for the mapping: the most bytes the swap file
  /// can hold. A Store past it fails loudly.
  static constexpr uint64_t kWindowBytes = 64ull << 30;

  /// The file is opened, and kWindowBytes of address space mapped for it,
  /// on the first Store.
  DiskTier(const std::string& dir, int executor_id)
      : path_(dir + "/swap_e" + std::to_string(executor_id)) {}
  /// Unlinks the swap file. Views still alive keep the mapping (and so
  /// their bytes) until they are released.
  ~DiskTier() override;

  DiskTier(const DiskTier&) = delete;
  DiskTier& operator=(const DiskTier&) = delete;

  const char* name() const override { return "disk"; }
  /// Copies the payload into a free extent of the swap file (disk time
  /// charged to the task's spill bucket).
  void Store(BlockKey key, PackedBlock block, TaskMetrics* metrics) override;
  /// A view of the block's extent, after checking the file still covers
  /// it; the extent stays allocated until Drop and its last view.
  PackedBlock Load(BlockKey key, TaskMetrics* metrics) const override;
  bool Contains(BlockKey key) const override;
  /// Frees the block's extent once no view pins it; the file is cut to
  /// length zero when no extent is left.
  void Drop(BlockKey key) override;
  void DropAll() override;
  uint64_t block_count() const override { return blocks_.size(); }

 private:
  struct Slot {
    StorageLevel level;
    uint32_t count = 0;
    uint64_t offset = 0;
    uint64_t bytes = 0;
  };
  /// The open file, its mapping and its extent map, shared with the views
  /// that pin extents of it.
  class SwapFile;

  const std::string path_;
  std::shared_ptr<SwapFile> file_;  // null until the first Store
  std::unordered_map<BlockKey, Slot, BlockKeyHash> blocks_;
};

}  // namespace deca::spark

#endif  // DECA_SPARK_TIER_BACKEND_H_
