#include "spark/block_store.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/clock.h"
#include "common/logging.h"
#include "obs/trace.h"

namespace deca::spark {

const char* StorageLevelName(StorageLevel s) {
  switch (s) {
    case StorageLevel::kMemoryObjects:
      return "MEMORY_OBJECTS";
    case StorageLevel::kMemorySerialized:
      return "MEMORY_SER";
    case StorageLevel::kDecaPages:
      return "DECA_PAGES";
  }
  return "?";
}

const char* EnumName(AdmitPolicy p) {
  switch (p) {
    case AdmitPolicy::kAlways:
      return "always";
    case AdmitPolicy::kOnSecondAccess:
      return "second_access";
    case AdmitPolicy::kNever:
      return "never";
  }
  return "?";
}

const char* EnumName(ShuffleTransport t) {
  switch (t) {
    case ShuffleTransport::kLocal:
      return "local";
    case ShuffleTransport::kLoopback:
      return "loopback";
    case ShuffleTransport::kTcp:
      return "tcp";
  }
  return "?";
}

CacheManager::CacheManager(jvm::Heap* heap, const SparkConfig* config,
                           int executor_id)
    : heap_(heap),
      cfg_(config),
      mm_(heap->memory_manager()),
      executor_id_(executor_id),
      t1_cap_bytes_(static_cast<uint64_t>(
          config->t1_fraction * static_cast<double>(mm_->total_bytes()))),
      t1_(mm_),
      t2_(config->spill_dir, executor_id) {
  heap_->AddRootProvider(this);
  std::error_code ec;
  std::filesystem::create_directories(cfg_->spill_dir, ec);
  DECA_CHECK(!ec) << "cannot create spill dir " << cfg_->spill_dir << ": "
                  << ec.message();
}

CacheManager::~CacheManager() {
  // The DiskTier destructor closes and unlinks T2's swap file.
  heap_->RemoveRootProvider(this);
}

void CacheManager::VisitRoots(const std::function<void(jvm::ObjRef*)>& fn) {
  // The collector evacuates as it visits, so visit order decides object
  // placement. `blocks_` is hashed for lookup speed; visit in sorted key
  // order so GC behavior stays bit-identical to the ordered-map store this
  // replaced (and independent of hash-table history).
  std::vector<std::pair<BlockKey, jvm::ObjRef*>> roots;
  roots.reserve(blocks_.size());
  for (auto& [key, e] : blocks_) {
    if (e.data != jvm::kNullRef) roots.emplace_back(key, &e.data);
  }
  std::sort(roots.begin(), roots.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [key, slot] : roots) fn(slot);
}

void CacheManager::RegisterOps(int rdd_id, const RecordOps* ops) {
  ops_[rdd_id] = ops;
}

uint64_t CacheManager::EstimateObjectBlockBytes(const RecordOps* ops,
                                                jvm::ObjRef records,
                                                uint32_t count) const {
  uint64_t bytes = jvm::kHeaderBytes + 4ull * count;  // the Object[] itself
  for (uint32_t i = 0; i < count; ++i) {
    bytes += ops->managed_bytes(heap_, heap_->GetRefElem(records, i));
  }
  return bytes;
}

void CacheManager::SerializeRecords(const RecordOps* ops, jvm::ObjRef records,
                                    uint32_t count, ByteWriter* out) {
  for (uint32_t i = 0; i < count; ++i) {
    ops->serialize(heap_, heap_->GetRefElem(records, i), out);
  }
}

jvm::ObjRef CacheManager::DeserializeRecords(const RecordOps* ops,
                                             const uint8_t* data, size_t size,
                                             uint32_t count,
                                             TaskMetrics* metrics) {
  ScopedTimerMs timer(&metrics->deser_ms);
  jvm::HandleScope scope(heap_);
  jvm::Handle arr = scope.Make(
      heap_->AllocateArray(heap_->registry()->ref_array_class(), count));
  ByteReader reader(data, size);
  for (uint32_t i = 0; i < count; ++i) {
    jvm::ObjRef rec = ops->deserialize(heap_, &reader);
    heap_->SetRefElem(arr.get(), i, rec);
  }
  return arr.get();
}

PackedBlock CacheManager::Pack(BlockKey key, const Entry& e,
                               TaskMetrics* metrics) {
  PackedBlock p;
  p.level = e.level;
  p.count = e.count;
  alloc::AllocCounter* counter = heap_->alloc_counter();
  switch (e.level) {
    case StorageLevel::kMemoryObjects: {
      const RecordOps* ops = ops_.at(key.rdd_id);
      ScopedTimerMs timer(&metrics->ser_ms);
      ByteWriter w;
      SerializeRecords(ops, e.data, e.count, &w);
      p.bytes = alloc::Bytes::FromWriter(counter, w.TakeBuffer());
      break;
    }
    case StorageLevel::kMemorySerialized: {
      // Already Kryo bytes; the packed form is the byte run itself.
      p.bytes = alloc::Bytes::Copy(counter, heap_->ArrayData(e.data),
                                   heap_->ArrayLength(e.data));
      break;
    }
    case StorageLevel::kDecaPages: {
      // Decomposed bytes pack as-is — no per-record serialization cost
      // (paper Appendix C). The staging buffer is sized exactly from
      // encoded_raw_bytes() and written in place, never round-tripping
      // through a growable vector.
      const size_t n = e.pages->encoded_raw_bytes();
      auto staged = alloc::Bytes::New(counter, n);
      const size_t written = e.pages->EncodeRawTo(staged->mutable_data());
      DECA_CHECK_EQ(written, n);
      p.bytes = std::move(staged);
      break;
    }
  }
  return p;
}

void CacheManager::Unpack(BlockKey key, const PackedBlock& packed,
                          LoadedBlock* block, TaskMetrics* metrics) {
  const alloc::Bytes& data = *packed.bytes;
  switch (packed.level) {
    case StorageLevel::kMemoryObjects: {
      const RecordOps* ops = ops_.at(key.rdd_id);
      block->object_array = DeserializeRecords(ops, data.data(), data.size(),
                                               packed.count, metrics);
      break;
    }
    case StorageLevel::kMemorySerialized: {
      jvm::ObjRef bytes = heap_->AllocateArray(
          heap_->registry()->byte_array_class(),
          static_cast<uint32_t>(data.size()));
      std::memcpy(heap_->ArrayData(bytes), data.data(), data.size());
      block->serialized = bytes;
      break;
    }
    case StorageLevel::kDecaPages: {
      // Raw page reload: no deserialization (paper Appendix C).
      block->pages = core::PageGroup::DecodeRaw(heap_, cfg_->deca_page_bytes,
                                                data.data(), data.size());
      break;
    }
  }
}

void CacheManager::PutObjects(BlockKey key, jvm::ObjRef records,
                              uint32_t count, TaskMetrics* metrics) {
  const RecordOps* ops = ops_.at(key.rdd_id);
  Entry e;
  e.count = count;
  if (cfg_->cache_level == StorageLevel::kMemorySerialized) {
    ByteWriter w;
    {
      ScopedTimerMs timer(&metrics->ser_ms);
      SerializeRecords(ops, records, count, &w);
    }
    jvm::HandleScope scope(heap_);
    jvm::Handle bytes = scope.Make(heap_->AllocateArray(
        heap_->registry()->byte_array_class(),
        static_cast<uint32_t>(w.size())));
    std::memcpy(heap_->ArrayData(bytes.get()), w.data(), w.size());
    e.level = StorageLevel::kMemorySerialized;
    e.data = bytes.get();
    e.bytes = jvm::kHeaderBytes + w.size();
  } else {
    e.level = StorageLevel::kMemoryObjects;
    e.data = records;
    e.bytes = EstimateObjectBlockBytes(ops, records, count);
  }
  e.charged_bytes = e.bytes;
  e.lru_tick = ++lru_clock_;
  // A retried task may re-deposit its block: replace the old copy.
  Evict(key);
  // The put itself never fails (MEMORY_AND_DISK semantics): overcommit is
  // granted, then EnforceBudget sheds LRU blocks until the pool fits.
  e.reservation = mm_->Reserve(memory::Pool::kStorage, e.bytes);
  uint64_t charged = e.bytes;
  blocks_.emplace(key, std::move(e));
  uint64_t now = memory_bytes_ += charged;
  if (now > peak_memory_bytes_.load(std::memory_order_relaxed)) {
    peak_memory_bytes_.store(now, std::memory_order_relaxed);
  }
  EnforceBudget(metrics);
}

std::shared_ptr<core::PageGroup> CacheManager::NewPages() const {
  return std::make_shared<core::PageGroup>(heap_, cfg_->deca_page_bytes);
}

void CacheManager::PutPages(BlockKey key,
                            std::shared_ptr<core::PageGroup> pages,
                            uint32_t count, TaskMetrics* metrics) {
  Entry e;
  e.level = StorageLevel::kDecaPages;
  e.count = count;
  e.pages = std::move(pages);
  e.bytes = e.pages->footprint_bytes();
  e.charged_bytes = e.bytes;
  e.lru_tick = ++lru_clock_;
  // A retried task may re-deposit its block: replace the old copy.
  Evict(key);
  // The group was built charging the execution pool (shuffle/agg path);
  // cache ownership moves its footprint to the storage pool.
  e.pages->SetChargePool(memory::Pool::kStorage);
  uint64_t charged = e.bytes;
  blocks_.emplace(key, std::move(e));
  uint64_t now = memory_bytes_ += charged;
  if (now > peak_memory_bytes_.load(std::memory_order_relaxed)) {
    peak_memory_bytes_.store(now, std::memory_order_relaxed);
  }
  EnforceBudget(metrics);
}

bool CacheManager::ShouldAdmit(uint64_t accesses) const {
  switch (cfg_->admit_policy) {
    case AdmitPolicy::kAlways:
      return true;
    case AdmitPolicy::kOnSecondAccess:
      return accesses >= 2;
    case AdmitPolicy::kNever:
      return false;
  }
  return false;
}

LoadedBlock CacheManager::Get(BlockKey key, TaskMetrics* metrics) {
  return GetInternal(key, /*lazy=*/false, metrics);
}

LoadedBlock CacheManager::GetLazy(BlockKey key, TaskMetrics* metrics) {
  return GetInternal(key, /*lazy=*/true, metrics);
}

LoadedBlock CacheManager::GetInternal(BlockKey key, bool lazy,
                                      TaskMetrics* metrics) {
  auto it = blocks_.find(key);
  if (it == blocks_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return {};
  }
  Entry& e = it->second;
  e.lru_tick = ++lru_clock_;
  LoadedBlock block;
  block.level = e.level;
  block.count = e.count;

  if (e.tier == Tier::kT0) {
    t0_hits_.fetch_add(1, std::memory_order_relaxed);
    block.object_array =
        e.level == StorageLevel::kMemoryObjects ? e.data : jvm::kNullRef;
    block.serialized =
        e.level == StorageLevel::kMemorySerialized ? e.data : jvm::kNullRef;
    block.pages = e.pages;
    return block;
  }

  if (e.tier == Tier::kT1) {
    t1_hits_.fetch_add(1, std::memory_order_relaxed);
    ++e.accesses_since_demote;
    PackedBlock packed = t1_.Load(key);
    DECA_CHECK(packed.valid()) << "T1 entry without off-heap payload";
    if (ShouldAdmit(e.accesses_since_demote)) {
      double ms = 0;
      {
        ScopedTimerMs timer(&ms);
        PromoteToT0(key, &e, packed, &block, metrics);
      }
      promote_ms_.Add(ms);
      promote_count_.fetch_add(1, std::memory_order_relaxed);
      obs::Instant(obs::Cat::kCache, "promote_t0",
                   static_cast<double>(e.bytes),
                   static_cast<double>(key.partition));
      EnforceBudget(metrics, &key);
      return block;
    }
    admit_rejects_.fetch_add(1, std::memory_order_relaxed);
    block.temporary = true;
    if (lazy) {
      block.packed = packed.bytes;
      return block;
    }
    Unpack(key, packed, &block, metrics);
    return block;
  }

  // T2: a view of the block's swap-file extent (it stays on disk —
  // Spark's MEMORY_AND_DISK re-reads swapped blocks on every access —
  // unless the admission policy re-admits it into T1).
  t2_hits_.fetch_add(1, std::memory_order_relaxed);
  obs::Instant(obs::Cat::kCache, "swap_in",
               static_cast<double>(e.charged_bytes),
               static_cast<double>(key.partition));
  PackedBlock packed = t2_.Load(key, metrics);
  DECA_CHECK(packed.valid()) << "T2 entry without a swap-file extent";
  if (cfg_->t1_enabled()) {
    ++e.accesses_since_demote;
    if (ShouldAdmit(e.accesses_since_demote)) {
      double ms = 0;
      {
        ScopedTimerMs timer(&ms);
        PromoteToT1(key, &e, &packed, metrics);
      }
      promote_ms_.Add(ms);
      promote_count_.fetch_add(1, std::memory_order_relaxed);
      obs::Instant(obs::Cat::kCache, "promote_t1",
                   static_cast<double>(packed.size()),
                   static_cast<double>(key.partition));
      EnforceBudget(metrics, &key);
    } else {
      admit_rejects_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  block.temporary = true;
  if (lazy) {
    block.packed = packed.bytes;
    return block;
  }
  Unpack(key, packed, &block, metrics);
  return block;
}

void CacheManager::DemoteToT1(BlockKey key, Entry* e, TaskMetrics* metrics) {
  DECA_CHECK(e->tier == Tier::kT0);
  PackedBlock packed = Pack(key, *e, metrics);
  uint64_t psize = packed.size();
  // Cascade LRU T1 blocks to disk first if this one would overflow the cap
  // (the T1 -> T2 edge); the demoting block itself is not in T1 yet.
  EnsureT1Room(psize, metrics);
  // Release the heap representation before taking the off-heap charge, so
  // the storage pool sheds the (larger) heap estimate first.
  e->data = jvm::kNullRef;
  e->pages.reset();
  e->reservation.Release();
  memory_bytes_ -= e->charged_bytes;
  t1_.Store(key, std::move(packed));
  memory_bytes_ += psize;
  e->packed_bytes = psize;
  e->charged_bytes = psize;
  e->tier = Tier::kT1;
  e->accesses_since_demote = 0;
  demote_t1_count_.fetch_add(1, std::memory_order_relaxed);
  obs::Instant(obs::Cat::kCache, "demote_t1", static_cast<double>(psize),
               static_cast<double>(key.partition));
}

void CacheManager::SpillToT2(BlockKey key, Entry* e, TaskMetrics* metrics) {
  DECA_CHECK(e->tier != Tier::kT2);
  uint64_t mem_charged = e->charged_bytes;
  PackedBlock packed;
  if (e->tier == Tier::kT0) {
    packed = Pack(key, *e, metrics);
  } else {
    packed = t1_.Load(key);
    DECA_CHECK(packed.valid());
    t1_.Drop(key);
  }
  e->packed_bytes = packed.size();
  t2_.Store(key, std::move(packed), metrics);
  e->data = jvm::kNullRef;
  e->pages.reset();
  e->reservation.Release();
  memory_bytes_ -= mem_charged;
  // A T0 spill keeps charging the heap estimate to the disk meter (the
  // pre-tier accounting); a T1 spill charges its packed payload.
  disk_bytes_ += mem_charged;
  e->charged_bytes = mem_charged;
  e->tier = Tier::kT2;
  e->accesses_since_demote = 0;
  ++swap_out_count_;
  obs::Instant(obs::Cat::kCache, "swap_out",
               static_cast<double>(mem_charged),
               static_cast<double>(key.partition));
}

void CacheManager::PromoteToT0(BlockKey key, Entry* e,
                               const PackedBlock& packed, LoadedBlock* block,
                               TaskMetrics* metrics) {
  DECA_CHECK(e->tier == Tier::kT1);
  // Unpack allocates; a collection it triggers can re-enter the eviction
  // paths, so pin the entry or a reentrant SwapOutLru/EnsureT1Room could
  // spill it mid-promotion and the meter would be debited twice.
  e->pinned = true;
  Unpack(key, packed, block, metrics);
  e->pinned = false;
  block->temporary = false;
  memory_bytes_ -= e->charged_bytes;
  t1_.Drop(key);  // releases the off-heap storage reservation
  switch (e->level) {
    case StorageLevel::kMemoryObjects: {
      const RecordOps* ops = ops_.at(key.rdd_id);
      e->data = block->object_array;
      e->bytes = EstimateObjectBlockBytes(ops, e->data, e->count);
      break;
    }
    case StorageLevel::kMemorySerialized:
      e->data = block->serialized;
      e->bytes = jvm::kHeaderBytes + packed.size();
      break;
    case StorageLevel::kDecaPages:
      e->pages = block->pages;
      e->bytes = e->pages->footprint_bytes();
      // The reloaded group charged the execution pool on allocation; cache
      // ownership moves it to storage (same as PutPages).
      e->pages->SetChargePool(memory::Pool::kStorage);
      break;
  }
  if (e->level != StorageLevel::kDecaPages) {
    e->reservation = mm_->Reserve(memory::Pool::kStorage, e->bytes);
  }
  uint64_t now = memory_bytes_ += e->bytes;
  if (now > peak_memory_bytes_.load(std::memory_order_relaxed)) {
    peak_memory_bytes_.store(now, std::memory_order_relaxed);
  }
  e->charged_bytes = e->bytes;
  e->packed_bytes = 0;
  e->tier = Tier::kT0;
  e->accesses_since_demote = 0;
}

void CacheManager::PromoteToT1(BlockKey key, Entry* e, PackedBlock* packed,
                               TaskMetrics* metrics) {
  DECA_CHECK(e->tier == Tier::kT2);
  // Replacing the view with an owned copy releases the view, so the Drop
  // below frees the extent at once.
  packed->bytes = alloc::Bytes::Copy(heap_->alloc_counter(),
                                     packed->bytes->data(), packed->size());
  uint64_t psize = packed->size();
  EnsureT1Room(psize, metrics);
  t2_.Drop(key);
  disk_bytes_ -= e->charged_bytes;
  t1_.Store(key, *packed);
  uint64_t now = memory_bytes_ += psize;
  if (now > peak_memory_bytes_.load(std::memory_order_relaxed)) {
    peak_memory_bytes_.store(now, std::memory_order_relaxed);
  }
  e->packed_bytes = psize;
  e->charged_bytes = psize;
  e->tier = Tier::kT1;
  e->accesses_since_demote = 0;
}

void CacheManager::Evict(BlockKey key) {
  auto it = blocks_.find(key);
  if (it == blocks_.end()) return;
  Entry& e = it->second;
  switch (e.tier) {
    case Tier::kT0:
      memory_bytes_ -= e.charged_bytes;
      break;
    case Tier::kT1:
      memory_bytes_ -= e.charged_bytes;
      t1_.Drop(key);
      break;
    case Tier::kT2:
      disk_bytes_ -= e.charged_bytes;
      t2_.Drop(key);
      break;
  }
  blocks_.erase(it);
}

void CacheManager::EnsureT1Room(uint64_t incoming, TaskMetrics* metrics) {
  while (t1_.resident_bytes() + incoming > t1_cap_bytes_) {
    // Pick the least-recently-used T1 block and cascade it to disk.
    const BlockKey* victim = nullptr;
    Entry* victim_e = nullptr;
    uint64_t best_tick = UINT64_MAX;
    for (auto& [key, e] : blocks_) {
      if (e.tier != Tier::kT1 || e.pinned) continue;
      if (e.lru_tick < best_tick) {
        best_tick = e.lru_tick;
        victim = &key;
        victim_e = &e;
      }
    }
    if (victim == nullptr) return;  // T1 is empty; the cap is just small
    SpillToT2(*victim, victim_e, metrics);
  }
}

void CacheManager::EnforceBudget(TaskMetrics* metrics,
                                 const BlockKey* exclude) {
  // The storage pool's limit is whatever the execution pool is not using
  // (Spark 1.6 borrowing); shed LRU blocks until it fits. A page-group
  // block shared with a live container keeps its charge until the last
  // reference drops, so the loop is bounded by the in-memory block count,
  // not by the charge reaching the limit.
  while (mm_->StorageOverLimit()) {
    if (cfg_->t1_enabled() && DemoteLru(metrics, exclude) > 0) continue;
    if (!SwapOutLru(metrics, exclude)) return;  // nothing left to evict
  }
}

bool CacheManager::SwapOutLru(TaskMetrics* metrics, const BlockKey* exclude) {
  // Pick the least-recently-used in-memory (T0 or T1) block. lru ticks are
  // unique, so the victim is unique — the hashed map's iteration order
  // cannot leak into the choice.
  const BlockKey* victim = nullptr;
  Entry* victim_e = nullptr;
  uint64_t best_tick = UINT64_MAX;
  for (auto& [key, e] : blocks_) {
    if (e.tier == Tier::kT2 || e.pinned) continue;
    if (exclude != nullptr && key == *exclude) continue;
    if (e.lru_tick < best_tick) {
      best_tick = e.lru_tick;
      victim = &key;
      victim_e = &e;
    }
  }
  if (victim == nullptr) return false;
  SpillToT2(*victim, victim_e, metrics);
  return true;
}

uint64_t CacheManager::DemoteLru(TaskMetrics* metrics,
                                 const BlockKey* exclude) {
  const BlockKey* victim = nullptr;
  Entry* victim_e = nullptr;
  uint64_t best_tick = UINT64_MAX;
  for (auto& [key, e] : blocks_) {
    if (e.tier != Tier::kT0 || e.pinned) continue;
    if (exclude != nullptr && key == *exclude) continue;
    if (e.lru_tick < best_tick) {
      best_tick = e.lru_tick;
      victim = &key;
      victim_e = &e;
    }
  }
  if (victim == nullptr) return 0;
  uint64_t heap_bytes = victim_e->bytes;
  DemoteToT1(*victim, victim_e, metrics);
  return heap_bytes;
}

uint64_t CacheManager::EvictBytes(uint64_t need_bytes) {
  // Swap in-memory blocks out to disk (LRU first) until roughly
  // `need_bytes` of managed memory has been unpinned.
  uint64_t freed = 0;
  uint64_t evicted = 0;
  // Memory-manager evictions run on behalf of no task: their disk and
  // serialization time lands in this throwaway TaskMetrics, so no task's
  // spill_ms or ser_ms is charged for it.
  TaskMetrics scratch;
  while (freed < need_bytes) {
    uint64_t before = memory_bytes_.load(std::memory_order_relaxed);
    if (!SwapOutLru(&scratch, nullptr)) break;
    freed += before - memory_bytes_.load(std::memory_order_relaxed);
    ++evicted;
  }
  return evicted;
}

uint64_t CacheManager::EvictUnderPressure(uint64_t need_bytes) {
  // Called from the heap's OOM handler (via the memory manager): unpin
  // managed memory so the follow-up full collection can reclaim it.
  uint64_t evicted = EvictBytes(need_bytes);
  pressure_evictions_.fetch_add(evicted, std::memory_order_relaxed);
  obs::Instant(obs::Cat::kCache, "evict_pressure",
               static_cast<double>(need_bytes),
               static_cast<double>(evicted));
  return evicted;
}

uint64_t CacheManager::EvictForExecution(uint64_t need_bytes) {
  // Execution-pool borrowing: routine pool arbitration, so it does not
  // count toward the OOM-pressure metric.
  uint64_t evicted = EvictBytes(need_bytes);
  obs::Instant(obs::Cat::kCache, "evict_exec",
               static_cast<double>(need_bytes),
               static_cast<double>(evicted));
  return evicted;
}

uint64_t CacheManager::DemoteUnderPressure(uint64_t need_bytes,
                                           bool for_oom) {
  // Demote stage of the two-stage eviction: a no-op with the off-heap
  // tier disabled, so the manager falls straight through to the legacy
  // spill stage with nothing observed.
  if (!cfg_->t1_enabled()) return 0;
  uint64_t freed = 0;
  uint64_t demoted = 0;
  TaskMetrics scratch;  // charged to no task, as in EvictBytes
  while (freed < need_bytes) {
    uint64_t heap_bytes = DemoteLru(&scratch, nullptr);
    if (heap_bytes == 0) break;
    // What matters for heap pressure is the heap footprint unpinned, not
    // the (smaller) storage-pool delta.
    freed += heap_bytes;
    ++demoted;
  }
  if (for_oom) {
    pressure_evictions_.fetch_add(demoted, std::memory_order_relaxed);
  }
  obs::Instant(obs::Cat::kCache, "demote_pressure",
               static_cast<double>(need_bytes),
               static_cast<double>(demoted));
  return demoted;
}

void CacheManager::DropAllForWipe() {
  // A crash-wipe loses everything the executor held: in-memory blocks,
  // off-heap buffers, and the swap file alike. Lineage recovery rebuilds
  // them on next access.
  blocks_.clear();  // releases T0 reservations and page groups
  t1_.DropAll();
  t2_.DropAll();
  memory_bytes_.store(0, std::memory_order_relaxed);
  disk_bytes_.store(0, std::memory_order_relaxed);
}

void CacheManager::VerifyAccounting() const {
  uint64_t reserved = 0;
  uint64_t mem = 0;
  uint64_t disk = 0;
  for (const auto& [key, e] : blocks_) {
    reserved += e.reservation.bytes();
    if (e.tier == Tier::kT2) {
      disk += e.charged_bytes;
    } else {
      mem += e.charged_bytes;
    }
  }
  DECA_CHECK_EQ(mem, memory_bytes())
      << "cache memory meter diverged from per-entry charges";
  DECA_CHECK_EQ(disk, disk_bytes())
      << "cache disk meter diverged from per-entry charges";
  // The cache plane is the only storage-pool reserver, so its per-entry
  // grants plus the off-heap tier's per-slot grants must equal the pool's
  // reserved bytes exactly. A `temporary` block that charged the pool (a
  // double charge — the entry still holds the canonical grant) breaks this
  // identity immediately.
  DECA_CHECK_EQ(reserved + t1_.reserved_bytes(), mm_->storage_reserved())
      << "storage-pool reservations diverged from cache-held grants";
}

TierCounters CacheManager::tier_counters() const {
  TierCounters t;
  uint64_t mem = memory_bytes();
  uint64_t t1b = t1_.resident_bytes();
  t.t0_resident_bytes = mem > t1b ? mem - t1b : 0;
  t.t1_resident_bytes = t1b;
  t.t2_resident_bytes = t2_.resident_bytes();
  t.t1_peak_bytes = t1_.peak_resident_bytes();
  t.t0_hits = t0_hits_.load(std::memory_order_relaxed);
  t.t1_hits = t1_hits_.load(std::memory_order_relaxed);
  t.t2_hits = t2_hits_.load(std::memory_order_relaxed);
  t.misses = misses_.load(std::memory_order_relaxed);
  t.demotes_to_t1 = demote_t1_count_.load(std::memory_order_relaxed);
  t.demotes_to_t2 = swap_out_count_.load(std::memory_order_relaxed);
  t.promotes = promote_count_.load(std::memory_order_relaxed);
  t.admit_rejects = admit_rejects_.load(std::memory_order_relaxed);
  if (promote_ms_.count() > 0) {
    t.promote_p50_ms = promote_ms_.Percentile(50);
    t.promote_p99_ms = promote_ms_.Percentile(99);
  }
  return t;
}

}  // namespace deca::spark
