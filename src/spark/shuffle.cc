#include "spark/shuffle.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "alloc/buffers.h"
#include "common/clock.h"
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
      slots_(initial_capacity, kEmpty),
      entry_bytes_(ops->deca_key_bytes + ops->deca_value_bytes) {
  DECA_CHECK_GT(ops->deca_key_bytes, 0u)
      << "Deca shuffle requires SFST keys/values";
}

void DecaHashShuffleBuffer::Insert(const uint8_t* key, const uint8_t* value) {
  if ((size_ + 1) * 10 > slots_.size() * 7) Grow();
  uint64_t h = ops_->deca_key_hash(key);
  for (size_t probe = 0;; ++probe) {
    size_t i = (h + probe) % slots_.size();
    if (slots_[i] == kEmpty) {
      core::SegPtr seg = pages_->Append(entry_bytes_);
      uint8_t* p = pages_->Resolve(seg);
      std::memcpy(p, key, ops_->deca_key_bytes);
      std::memcpy(p + ops_->deca_key_bytes, value, ops_->deca_value_bytes);
      slots_[i] = seg;
      ++size_;
      return;
    }
    uint8_t* p = pages_->Resolve(slots_[i]);
    if (std::memcmp(p, key, ops_->deca_key_bytes) == 0) {
      // In-place combining: the aggregate's page segment is reused
      // (paper Section 4.3.2) — no allocation, nothing for the GC.
      ops_->deca_combine(p + ops_->deca_key_bytes, value);
      return;
    }
  }
}

void DecaHashShuffleBuffer::Grow() {
  std::vector<core::SegPtr> fresh(slots_.size() * 2, kEmpty);
  for (core::SegPtr s : slots_) {
    if (s == kEmpty) continue;
    uint64_t h = ops_->deca_key_hash(pages_->Resolve(s));
    for (size_t probe = 0;; ++probe) {
      size_t j = (h + probe) % fresh.size();
      if (fresh[j] == kEmpty) {
        fresh[j] = s;
        break;
      }
    }
  }
  slots_.swap(fresh);
}

void DecaHashShuffleBuffer::ForEach(
    const std::function<void(const uint8_t*)>& fn) const {
  for (core::SegPtr s : slots_) {
    if (s == kEmpty) continue;
    fn(pages_->Resolve(s));
  }
}

void DecaHashShuffleBuffer::Clear() {
  pages_ = std::make_shared<core::PageGroup>(heap_, pages_->page_bytes());
  slots_.assign(64, kEmpty);
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

// -- DecaStaticHashShuffleBuffer ----------------------------------------------

DecaStaticHashShuffleBuffer::DecaStaticHashShuffleBuffer(
    jvm::Heap* heap, const ShuffleOps* ops, uint32_t page_bytes,
    uint32_t initial_capacity)
    : heap_(heap), ops_(ops), page_bytes_(page_bytes) {
  DECA_CHECK_GT(ops->deca_key_bytes, 0u);
  slot_bytes_ = static_cast<uint32_t>(
      AlignUp(1 + ops->deca_key_bytes + ops->deca_value_bytes, 8));
  slots_per_page_ = page_bytes_ / slot_bytes_;
  DECA_CHECK_GT(slots_per_page_, 0u);
  capacity_ = initial_capacity;
  pages_ = MakeTable(capacity_);
}

std::shared_ptr<core::PageGroup> DecaStaticHashShuffleBuffer::MakeTable(
    uint32_t capacity) {
  auto table = std::make_shared<core::PageGroup>(heap_, page_bytes_);
  uint32_t pages = (capacity + slots_per_page_ - 1) / slots_per_page_;
  for (uint32_t i = 0; i < pages; ++i) {
    // Materialize full pages so any slot offset resolves; fresh pages are
    // zeroed by the allocator (occupancy tag 0 = empty).
    table->Append(slots_per_page_ * slot_bytes_);
  }
  return table;
}

void DecaStaticHashShuffleBuffer::Insert(const uint8_t* key,
                                         const uint8_t* value) {
  if ((size_ + 1) * 10 > capacity_ * 7) Grow();
  uint64_t h = ops_->deca_key_hash(key);
  for (uint32_t probe = 0;; ++probe) {
    uint32_t i = static_cast<uint32_t>((h + probe) % capacity_);
    uint8_t* slot = Slot(i);
    if (slot[0] == 0) {
      slot[0] = 1;
      std::memcpy(slot + 1, key, ops_->deca_key_bytes);
      std::memcpy(slot + 1 + ops_->deca_key_bytes, value,
                  ops_->deca_value_bytes);
      ++size_;
      return;
    }
    if (std::memcmp(slot + 1, key, ops_->deca_key_bytes) == 0) {
      ops_->deca_combine(slot + 1 + ops_->deca_key_bytes, value);
      return;
    }
  }
}

void DecaStaticHashShuffleBuffer::Grow() {
  uint32_t old_capacity = capacity_;
  auto old_pages = pages_;
  uint32_t old_spp = slots_per_page_;
  capacity_ = old_capacity * 2;
  pages_ = MakeTable(capacity_);
  for (uint32_t i = 0; i < old_capacity; ++i) {
    uint8_t* slot =
        old_pages->Resolve({i / old_spp, (i % old_spp) * slot_bytes_});
    if (slot[0] == 0) continue;
    uint64_t h = ops_->deca_key_hash(slot + 1);
    for (uint32_t probe = 0;; ++probe) {
      uint32_t j = static_cast<uint32_t>((h + probe) % capacity_);
      uint8_t* dst = Slot(j);
      if (dst[0] == 0) {
        std::memcpy(dst, slot, slot_bytes_);
        break;
      }
    }
  }
}

void DecaStaticHashShuffleBuffer::ForEach(
    const std::function<void(const uint8_t*)>& fn) const {
  for (uint32_t i = 0; i < capacity_; ++i) {
    uint8_t* slot = Slot(i);
    if (slot[0] != 0) fn(slot + 1);
  }
}

// -- DecaSortSpillWriter --------------------------------------------------------

DecaSortSpillWriter::DecaSortSpillWriter(jvm::Heap* heap, uint32_t page_bytes,
                                         std::string spill_dir, Less less)
    : heap_(heap),
      page_bytes_(page_bytes),
      mm_(heap->memory_manager()),
      dir_(std::move(spill_dir)),
      less_(std::move(less)),
      pages_(std::make_shared<core::PageGroup>(heap, page_bytes)) {}

DecaSortSpillWriter::~DecaSortSpillWriter() {
  for (const auto& f : files_) std::remove(f.c_str());
}

void DecaSortSpillWriter::Append(const uint8_t* data, uint32_t bytes) {
  // Spill is reservation-denial driven: before committing to a fresh
  // page, probe the execution pool (which may first evict storage down to
  // its floor). Denied -> sort and spill the current run, freeing its
  // pages, then start the new run.
  if (mm_ != nullptr && pages_->page_count() > 0 &&
      pages_->NeedsNewPage(bytes) &&
      !mm_->TryExecutionRoom(pages_->page_cost_bytes())) {
    SpillCurrentRun();
  }
  core::SegPtr seg = pages_->Append(bytes);
  std::memcpy(pages_->Resolve(seg), data, bytes);
  entries_.emplace_back(seg, bytes);
}

void DecaSortSpillWriter::SpillCurrentRun() {
  if (entries_.empty()) return;
  std::sort(entries_.begin(), entries_.end(),
            [&](const auto& a, const auto& b) {
              return less_(pages_->Resolve(a.first),
                           pages_->Resolve(b.first));
            });
  std::string path = dir_ + "/sortspill_" + std::to_string(files_.size()) +
                     "_" + std::to_string(reinterpret_cast<uintptr_t>(this));
  std::FILE* f = std::fopen(path.c_str(), "wb");
  DECA_CHECK(f != nullptr) << "cannot open spill file for writing: " << path
                           << ": " << std::strerror(errno);
  for (const auto& [seg, bytes] : entries_) {
    // Decomposed bytes go to disk as-is, length-prefixed.
    DECA_CHECK(std::fwrite(&bytes, sizeof(bytes), 1, f) == 1 &&
               std::fwrite(pages_->Resolve(seg), 1, bytes, f) == bytes)
        << "cannot write spill file " << path << ": " << std::strerror(errno);
    spilled_bytes_ += bytes + sizeof(bytes);
  }
  // fclose flushes the stdio buffer: a full disk can surface only here.
  const int closed = std::fclose(f);
  DECA_CHECK_EQ(closed, 0) << "cannot write spill file " << path << ": "
                           << std::strerror(errno);
  files_.push_back(path);
  entries_.clear();
  pages_ = std::make_shared<core::PageGroup>(heap_, page_bytes_);
}

void DecaSortSpillWriter::Merge(
    const std::function<void(const uint8_t*, uint32_t)>& fn,
    double* spill_ms) {
  Stopwatch sw;
  // Sort the in-memory run.
  std::sort(entries_.begin(), entries_.end(),
            [&](const auto& a, const auto& b) {
              return less_(pages_->Resolve(a.first),
                           pages_->Resolve(b.first));
            });
  // One cursor per spilled run, each holding a single record in a counted
  // scratch buffer.
  struct Run {
    const char* path = nullptr;
    std::FILE* file = nullptr;
    alloc::ScratchBuffer record;
    uint32_t size = 0;
    // False only at a clean end of run, EOF exactly at a length prefix;
    // a short prefix or record means the file lost bytes.
    bool Next() {
      uint32_t bytes = 0;
      const size_t got = std::fread(&bytes, 1, sizeof(bytes), file);
      if (got == 0 && std::feof(file)) return false;
      DECA_CHECK_EQ(got, sizeof(bytes))
          << "short length prefix in spill file " << path;
      record.Reserve(bytes);
      size = bytes;
      const size_t read = std::fread(record.data(), 1, bytes, file);
      DECA_CHECK_EQ(read, bytes) << "short record in spill file " << path;
      return true;
    }
  };
  std::vector<Run> runs;
  runs.reserve(files_.size());
  for (size_t i = 0; i < files_.size(); ++i) {
    runs.push_back(Run{files_[i].c_str(), nullptr,
                       alloc::ScratchBuffer(heap_->alloc_counter()), 0});
    runs[i].file = std::fopen(files_[i].c_str(), "rb");
    DECA_CHECK(runs[i].file != nullptr)
        << "cannot open spill file for reading: " << files_[i] << ": "
        << std::strerror(errno);
    DECA_CHECK(runs[i].Next());
  }
  size_t mem_pos = 0;
  std::vector<bool> run_alive(runs.size(), true);
  size_t alive = runs.size();
  while (alive > 0 || mem_pos < entries_.size()) {
    // Pick the smallest head among spilled runs and the in-memory run.
    int best = -1;
    const uint8_t* best_rec = nullptr;
    for (size_t i = 0; i < runs.size(); ++i) {
      if (!run_alive[i]) continue;
      if (best_rec == nullptr || less_(runs[i].record.data(), best_rec)) {
        best = static_cast<int>(i);
        best_rec = runs[i].record.data();
      }
    }
    bool take_memory = false;
    if (mem_pos < entries_.size()) {
      const uint8_t* mem_rec = pages_->Resolve(entries_[mem_pos].first);
      if (best_rec == nullptr || less_(mem_rec, best_rec)) {
        take_memory = true;
      }
    }
    if (take_memory) {
      fn(pages_->Resolve(entries_[mem_pos].first), entries_[mem_pos].second);
      ++mem_pos;
    } else {
      Run& r = runs[static_cast<size_t>(best)];
      fn(r.record.data(), r.size);
      if (!r.Next()) {
        run_alive[static_cast<size_t>(best)] = false;
        --alive;
      }
    }
  }
  for (auto& r : runs) {
    if (r.file != nullptr) std::fclose(r.file);
  }
  if (spill_ms != nullptr) *spill_ms += sw.ElapsedMillis();
}

// -- DecaSortShuffleBuffer ----------------------------------------------------

DecaSortShuffleBuffer::DecaSortShuffleBuffer(jvm::Heap* heap,
                                             uint32_t page_bytes)
    : pages_(std::make_shared<core::PageGroup>(heap, page_bytes)) {}

core::SegPtr DecaSortShuffleBuffer::Append(const uint8_t* data,
                                           uint32_t bytes) {
  core::SegPtr seg = pages_->Append(bytes);
  std::memcpy(pages_->Resolve(seg), data, bytes);
  entries_.emplace_back(seg, bytes);
  return seg;
}

void DecaSortShuffleBuffer::SortAndVisit(
    const std::function<bool(const uint8_t*, const uint8_t*)>& less,
    const std::function<void(const uint8_t*, uint32_t)>& fn) {
  std::sort(entries_.begin(), entries_.end(),
            [&](const auto& a, const auto& b) {
              return less(pages_->Resolve(a.first),
                          pages_->Resolve(b.first));
            });
  for (const auto& [seg, bytes] : entries_) {
    fn(pages_->Resolve(seg), bytes);
  }
}

}  // namespace deca::spark
