#include "spark/shuffle.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.h"
#include "obs/trace.h"

namespace deca::spark {

// -- LocalShuffleService ------------------------------------------------------

LocalShuffleService::ShuffleData* LocalShuffleService::Find(int shuffle_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return &shuffles_[static_cast<size_t>(shuffle_id)];
}

int LocalShuffleService::RegisterShuffle(int num_reducers) {
  std::lock_guard<std::mutex> lock(mu_);
  ShuffleData& d = shuffles_.emplace_back();
  d.num_reducers = num_reducers;
  d.buckets.reserve(static_cast<size_t>(num_reducers));
  for (int r = 0; r < num_reducers; ++r) {
    d.buckets.push_back(std::make_unique<ReducerBucket>());
  }
  return static_cast<int>(shuffles_.size() - 1);
}

void LocalShuffleService::PutChunk(int shuffle_id, int reducer,
                                   int map_partition,
                                   std::vector<uint8_t> bytes,
                                   const net::ChunkMeta& meta) {
  (void)meta;  // record boundaries only matter on a wire
  if (bytes.empty()) return;
  obs::Instant(obs::Cat::kShuffle, "shuffle_put",
               static_cast<double>(bytes.size()),
               static_cast<double>(reducer));
  ReducerBucket& b = *Find(shuffle_id)->buckets[static_cast<size_t>(reducer)];
  std::lock_guard<std::mutex> lock(b.mu);
  // Keep chunks sorted by map partition id so the reducer reads them in
  // the same order regardless of map-task completion order.
  auto it = std::upper_bound(b.mappers.begin(), b.mappers.end(),
                             map_partition);
  size_t pos = static_cast<size_t>(it - b.mappers.begin());
  if (pos > 0 && b.mappers[pos - 1] == map_partition) {
    // A retried (or re-executed after map-output loss) map task replaces
    // its previous deposit.
    b.chunks[pos - 1] = std::move(bytes);
    return;
  }
  b.mappers.insert(it, map_partition);
  b.chunks.insert(b.chunks.begin() + static_cast<ptrdiff_t>(pos),
                  std::move(bytes));
}

void LocalShuffleService::DropMapOutput(int shuffle_id, int map_partition) {
  for (auto& bucket : Find(shuffle_id)->buckets) {
    std::lock_guard<std::mutex> lock(bucket->mu);
    auto it = std::lower_bound(bucket->mappers.begin(), bucket->mappers.end(),
                               map_partition);
    if (it == bucket->mappers.end() || *it != map_partition) continue;
    size_t pos = static_cast<size_t>(it - bucket->mappers.begin());
    bucket->mappers.erase(it);
    bucket->chunks.erase(bucket->chunks.begin() +
                         static_cast<ptrdiff_t>(pos));
  }
}

const std::vector<std::vector<uint8_t>>& LocalShuffleService::GetChunks(
    int shuffle_id, int reducer) const {
  const auto& chunks =
      Find(shuffle_id)->buckets[static_cast<size_t>(reducer)]->chunks;
  obs::Instant(obs::Cat::kShuffle, "shuffle_fetch",
               static_cast<double>(chunks.size()),
               static_cast<double>(reducer));
  return chunks;
}

int LocalShuffleService::num_reducers(int shuffle_id) const {
  return Find(shuffle_id)->num_reducers;
}

int LocalShuffleService::num_shuffles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(shuffles_.size());
}

uint64_t LocalShuffleService::total_bytes(int shuffle_id) const {
  uint64_t total = 0;
  for (const auto& bucket : Find(shuffle_id)->buckets) {
    for (const auto& chunk : bucket->chunks) total += chunk.size();
  }
  return total;
}

void LocalShuffleService::Release(int shuffle_id) {
  for (auto& bucket : Find(shuffle_id)->buckets) {
    bucket->mappers.clear();
    bucket->chunks.clear();
    bucket->mappers.shrink_to_fit();
    bucket->chunks.shrink_to_fit();
  }
}

// -- ObjectHashShuffleBuffer --------------------------------------------------

ObjectHashShuffleBuffer::ObjectHashShuffleBuffer(jvm::Heap* heap,
                                                 const ShuffleOps* ops,
                                                 uint32_t initial_capacity)
    : heap_(heap), ops_(ops), capacity_(initial_capacity) {
  // Allocate before registering the root provider: if the allocation
  // throws (OOM), the heap must not keep a pointer to this dying buffer.
  jvm::ObjRef table = heap_->AllocateArray(
      heap_->registry()->ref_array_class(), 2 * capacity_);
  heap_->AddRootProvider(&table_root_);
  table_root_.refs().push_back(table);
}

ObjectHashShuffleBuffer::~ObjectHashShuffleBuffer() {
  heap_->RemoveRootProvider(&table_root_);
}

void ObjectHashShuffleBuffer::Insert(jvm::ObjRef key0, jvm::ObjRef value0) {
  jvm::HandleScope scope(heap_);
  jvm::Handle hk = scope.Make(key0);
  jvm::Handle hv = scope.Make(value0);
  if ((size_ + 1) * 10 > capacity_ * 7) Grow();
  uint64_t h = ops_->key_hash(heap_, hk.get());
  for (uint32_t probe = 0;; ++probe) {
    uint32_t i = static_cast<uint32_t>((h + probe) % capacity_);
    jvm::ObjRef k = heap_->GetRefElem(table(), 2 * i);
    if (k == jvm::kNullRef) {
      heap_->SetRefElem(table(), 2 * i, hk.get());
      heap_->SetRefElem(table(), 2 * i + 1, hv.get());
      ++size_;
      estimated_bytes_ += ops_->entry_bytes(heap_, hk.get(), hv.get());
      return;
    }
    if (ops_->key_equals(heap_, k, hk.get())) {
      jvm::ObjRef agg = heap_->GetRefElem(table(), 2 * i + 1);
      // Eager combining: like Spark's aggregator this allocates a fresh
      // aggregate object, killing the previous one.
      jvm::ObjRef merged = ops_->combine(heap_, agg, hv.get());
      heap_->SetRefElem(table(), 2 * i + 1, merged);
      return;
    }
  }
}

void ObjectHashShuffleBuffer::Grow() {
  uint32_t new_capacity = capacity_ * 2;
  jvm::ObjRef fresh = heap_->AllocateArray(
      heap_->registry()->ref_array_class(), 2 * new_capacity);
  table_root_.refs().push_back(fresh);  // root it during rehash
  jvm::ObjRef old = table_root_.refs()[0];
  fresh = table_root_.refs()[1];
  for (uint32_t i = 0; i < capacity_; ++i) {
    jvm::ObjRef k = heap_->GetRefElem(old, 2 * i);
    if (k == jvm::kNullRef) continue;
    jvm::ObjRef v = heap_->GetRefElem(old, 2 * i + 1);
    uint64_t h = ops_->key_hash(heap_, k);
    for (uint32_t probe = 0;; ++probe) {
      uint32_t j = static_cast<uint32_t>((h + probe) % new_capacity);
      if (heap_->GetRefElem(fresh, 2 * j) == jvm::kNullRef) {
        heap_->SetRefElem(fresh, 2 * j, k);
        heap_->SetRefElem(fresh, 2 * j + 1, v);
        break;
      }
    }
  }
  table_root_.refs().erase(table_root_.refs().begin());
  capacity_ = new_capacity;
}

void ObjectHashShuffleBuffer::ForEach(
    const std::function<void(jvm::ObjRef, jvm::ObjRef)>& fn) const {
  for (uint32_t i = 0; i < capacity_; ++i) {
    jvm::ObjRef k = heap_->GetRefElem(table(), 2 * i);
    if (k == jvm::kNullRef) continue;
    fn(k, heap_->GetRefElem(table(), 2 * i + 1));
  }
}

void ObjectHashShuffleBuffer::Clear() {
  size_ = 0;
  estimated_bytes_ = 0;
  capacity_ = 64;
  table_root_.refs().clear();
  table_root_.refs().push_back(heap_->AllocateArray(
      heap_->registry()->ref_array_class(), 2 * capacity_));
}

// -- DecaHashShuffleBuffer ----------------------------------------------------

constexpr core::SegPtr DecaHashShuffleBuffer::kEmpty;

DecaHashShuffleBuffer::DecaHashShuffleBuffer(jvm::Heap* heap,
                                             const ShuffleOps* ops,
                                             uint32_t page_bytes,
                                             uint32_t initial_capacity)
    : heap_(heap),
      ops_(ops),
      pages_(std::make_shared<core::PageGroup>(heap, page_bytes)),
      slots_(std::bit_ceil(size_t{initial_capacity}), Slot{kEmpty, 0}),
      mask_(slots_.size() - 1),
      entry_bytes_(ops->deca_key_bytes + ops->deca_value_bytes) {
  DECA_CHECK_GT(ops->deca_key_bytes, 0u)
      << "Deca shuffle requires SFST keys/values";
}

void DecaHashShuffleBuffer::Insert(const uint8_t* key, const uint8_t* value) {
  if ((size_ + 1) * 10 > slots_.size() * 7) Grow();
  uint64_t h = ops_->deca_key_hash(key);
  uint32_t tag = static_cast<uint32_t>(h);
  for (size_t i = h & mask_;; i = (i + 1) & mask_) {
    Slot& slot = slots_[i];
    if (slot.seg == kEmpty) {
      core::SegPtr seg = pages_->Append(entry_bytes_);
      uint8_t* p = pages_->Resolve(seg);
      std::memcpy(p, key, ops_->deca_key_bytes);
      std::memcpy(p + ops_->deca_key_bytes, value, ops_->deca_value_bytes);
      slot = {seg, tag};
      ++size_;
      return;
    }
    if (slot.tag != tag) continue;
    uint8_t* p = pages_->Resolve(slot.seg);
    if (std::memcmp(p, key, ops_->deca_key_bytes) == 0) {
      // In-place combining: the aggregate's page segment is reused
      // (paper Section 4.3.2) — no allocation, nothing for the GC.
      ops_->deca_combine(p + ops_->deca_key_bytes, value);
      return;
    }
  }
}

void DecaHashShuffleBuffer::Grow() {
  // The home slot is the hash's low bits, which the tag holds only while
  // the table has at most 2^32 slots.
  DECA_CHECK_LE(slots_.size() * 2, size_t{1} << 32)
      << "hash shuffle buffer outgrew its 32-bit slot tags";
  std::vector<Slot> fresh(slots_.size() * 2, Slot{kEmpty, 0});
  size_t mask = fresh.size() - 1;
  for (const Slot& s : slots_) {
    if (s.seg == kEmpty) continue;
    size_t j = s.tag & mask;
    while (fresh[j].seg != kEmpty) j = (j + 1) & mask;
    fresh[j] = s;
  }
  slots_.swap(fresh);
  mask_ = mask;
}

void DecaHashShuffleBuffer::ForEach(
    const std::function<void(const uint8_t*)>& fn) const {
  for (const Slot& s : slots_) {
    if (s.seg == kEmpty) continue;
    fn(pages_->Resolve(s.seg));
  }
}

void DecaHashShuffleBuffer::Clear() {
  pages_ = std::make_shared<core::PageGroup>(heap_, pages_->page_bytes());
  slots_.assign(64, Slot{kEmpty, 0});
  mask_ = slots_.size() - 1;
  size_ = 0;
}

// -- ObjectGroupByBuffer ------------------------------------------------------

ObjectGroupByBuffer::ObjectGroupByBuffer(jvm::Heap* heap,
                                         const ShuffleOps* ops,
                                         uint32_t initial_capacity)
    : heap_(heap), ops_(ops), capacity_(initial_capacity) {
  // Allocate before registering the root provider (see
  // ObjectHashShuffleBuffer): an OOM here must not leave a dangling root.
  jvm::HandleScope scope(heap_);
  jvm::Handle keys = scope.Make(heap_->AllocateArray(
      heap_->registry()->ref_array_class(), capacity_));
  jvm::Handle vals = scope.Make(heap_->AllocateArray(
      heap_->registry()->ref_array_class(), capacity_));
  heap_->AddRootProvider(&roots_);
  roots_.refs().push_back(keys.get());
  roots_.refs().push_back(vals.get());
  counts_.assign(capacity_, 0);
}

ObjectGroupByBuffer::~ObjectGroupByBuffer() {
  heap_->RemoveRootProvider(&roots_);
}

void ObjectGroupByBuffer::Insert(jvm::ObjRef key0, jvm::ObjRef value0) {
  jvm::HandleScope scope(heap_);
  jvm::Handle hk = scope.Make(key0);
  jvm::Handle hv = scope.Make(value0);
  if ((size_ + 1) * 10 > capacity_ * 7) Grow();
  uint64_t h = ops_->key_hash(heap_, hk.get());
  for (uint32_t probe = 0;; ++probe) {
    uint32_t i = static_cast<uint32_t>((h + probe) % capacity_);
    jvm::ObjRef k = heap_->GetRefElem(keys(), i);
    if (k == jvm::kNullRef) {
      jvm::ObjRef arr =
          heap_->AllocateArray(heap_->registry()->ref_array_class(), 4);
      heap_->SetRefElem(keys(), i, hk.get());
      heap_->SetRefElem(vals(), i, arr);
      heap_->SetRefElem(arr, 0, hv.get());
      counts_[i] = 1;
      ++size_;
      estimated_bytes_ += ops_->entry_bytes(heap_, hk.get(), hv.get()) +
                          jvm::kHeaderBytes + 16;
      return;
    }
    if (ops_->key_equals(heap_, k, hk.get())) {
      jvm::ObjRef arr = heap_->GetRefElem(vals(), i);
      uint32_t len = heap_->ArrayLength(arr);
      if (counts_[i] == len) {
        // Grow the group's value array (ArrayBuffer doubling).
        jvm::ObjRef bigger = heap_->AllocateArray(
            heap_->registry()->ref_array_class(), len * 2);
        arr = heap_->GetRefElem(vals(), i);  // re-read after allocation
        for (uint32_t j = 0; j < len; ++j) {
          heap_->SetRefElem(bigger, j, heap_->GetRefElem(arr, j));
        }
        heap_->SetRefElem(vals(), i, bigger);
        arr = bigger;
        estimated_bytes_ += 4ull * len;
      }
      heap_->SetRefElem(arr, counts_[i], hv.get());
      counts_[i] += 1;
      estimated_bytes_ +=
          ops_->entry_bytes(heap_, hk.get(), hv.get());
      return;
    }
  }
}

void ObjectGroupByBuffer::Grow() {
  uint32_t new_capacity = capacity_ * 2;
  // Allocate both new tables first (rooted during rehash).
  roots_.refs().push_back(heap_->AllocateArray(
      heap_->registry()->ref_array_class(), new_capacity));
  roots_.refs().push_back(heap_->AllocateArray(
      heap_->registry()->ref_array_class(), new_capacity));
  std::vector<uint32_t> new_counts(new_capacity, 0);
  jvm::ObjRef old_keys = roots_.refs()[0];
  jvm::ObjRef old_vals = roots_.refs()[1];
  jvm::ObjRef new_keys = roots_.refs()[2];
  jvm::ObjRef new_vals = roots_.refs()[3];
  for (uint32_t i = 0; i < capacity_; ++i) {
    jvm::ObjRef k = heap_->GetRefElem(old_keys, i);
    if (k == jvm::kNullRef) continue;
    uint64_t h = ops_->key_hash(heap_, k);
    for (uint32_t probe = 0;; ++probe) {
      uint32_t j = static_cast<uint32_t>((h + probe) % new_capacity);
      if (heap_->GetRefElem(new_keys, j) == jvm::kNullRef) {
        heap_->SetRefElem(new_keys, j, k);
        heap_->SetRefElem(new_vals, j, heap_->GetRefElem(old_vals, i));
        new_counts[j] = counts_[i];
        break;
      }
    }
  }
  roots_.refs().erase(roots_.refs().begin(), roots_.refs().begin() + 2);
  counts_.swap(new_counts);
  capacity_ = new_capacity;
}

void ObjectGroupByBuffer::ForEach(
    const std::function<void(jvm::ObjRef, jvm::ObjRef, uint32_t)>& fn) const {
  for (uint32_t i = 0; i < capacity_; ++i) {
    jvm::ObjRef k = heap_->GetRefElem(keys(), i);
    if (k == jvm::kNullRef) continue;
    fn(k, heap_->GetRefElem(vals(), i), counts_[i]);
  }
}

}  // namespace deca::spark
