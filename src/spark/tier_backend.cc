#include "spark/tier_backend.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/clock.h"
#include "common/logging.h"

namespace deca::spark {

namespace {

void WriteFileBytes(const std::string& path, const uint8_t* data,
                    size_t size) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  DECA_CHECK(f != nullptr) << "cannot open swap file for writing: " << path
                           << ": " << std::strerror(errno);
  if (size > 0) {
    size_t n = std::fwrite(data, 1, size, f);
    DECA_CHECK_EQ(n, size);
  }
  // fclose flushes the stdio buffer: a full disk can surface only here.
  const int closed = std::fclose(f);
  DECA_CHECK_EQ(closed, 0) << "cannot write swap file " << path << ": "
                           << std::strerror(errno);
}

/// Reads a whole swap file into a counted `new[]` buffer.
alloc::BytesPtr ReadFileBytes(const std::string& path,
                              alloc::AllocCounter* counter) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  DECA_CHECK(f != nullptr) << "cannot open swap file for reading: " << path
                           << ": " << std::strerror(errno);
  DECA_CHECK(std::fseek(f, 0, SEEK_END) == 0)
      << "cannot seek swap file " << path << ": " << std::strerror(errno);
  const long size = std::ftell(f);
  DECA_CHECK(size >= 0 && std::fseek(f, 0, SEEK_SET) == 0)
      << "cannot size swap file " << path << ": " << std::strerror(errno);
  auto data = alloc::Bytes::New(counter, static_cast<size_t>(size));
  if (size > 0) {
    size_t n = std::fread(data->mutable_data(), 1, data->size(), f);
    DECA_CHECK_EQ(n, data->size());
  }
  const int closed = std::fclose(f);
  DECA_CHECK_EQ(closed, 0) << "cannot close swap file " << path << ": "
                           << std::strerror(errno);
  return data;
}

}  // namespace

// -- OffHeapTier -------------------------------------------------------------

void OffHeapTier::Store(BlockKey key, PackedBlock block,
                        TaskMetrics* metrics) {
  (void)metrics;  // native memcpy-speed store; nothing worth attributing
  DECA_CHECK(block.valid());
  Drop(key);
  Slot slot;
  uint64_t bytes = block.size();
  slot.block = std::move(block);
  if (mm_ != nullptr) {
    // Overcommit is allowed (counting a denial when the pool is full) —
    // the CacheManager sheds overflow right after, same contract as heap
    // block puts.
    slot.reservation = mm_->Reserve(memory::Pool::kStorage, bytes);
  }
  blocks_.emplace(key, std::move(slot));
  AddResident(bytes);
}

PackedBlock OffHeapTier::Load(BlockKey key, TaskMetrics* metrics) const {
  (void)metrics;
  auto it = blocks_.find(key);
  if (it == blocks_.end()) return {};
  return it->second.block;
}

bool OffHeapTier::Contains(BlockKey key) const {
  return blocks_.find(key) != blocks_.end();
}

void OffHeapTier::Drop(BlockKey key) {
  auto it = blocks_.find(key);
  if (it == blocks_.end()) return;
  SubResident(it->second.block.size());
  blocks_.erase(it);  // the slot's reservation releases on destruction
}

void OffHeapTier::DropAll() {
  blocks_.clear();
  ZeroResident();
}

uint64_t OffHeapTier::reserved_bytes() const {
  uint64_t total = 0;
  for (const auto& [key, slot] : blocks_) total += slot.reservation.bytes();
  return total;
}

// -- DiskTier ----------------------------------------------------------------

DiskTier::~DiskTier() {
  for (const auto& [key, slot] : blocks_) std::remove(slot.path.c_str());
}

std::string DiskTier::SwapPath(BlockKey key) const {
  return dir_ + "/swap_e" + std::to_string(executor_id_) + "_r" +
         std::to_string(key.rdd_id) + "_p" + std::to_string(key.partition);
}

void DiskTier::Store(BlockKey key, PackedBlock block, TaskMetrics* metrics) {
  DECA_CHECK(block.valid());
  Drop(key);
  Slot slot;
  slot.level = block.level;
  slot.count = block.count;
  slot.bytes = block.size();
  slot.path = SwapPath(key);
  {
    ScopedTimerMs timer(&metrics->spill_ms);
    WriteFileBytes(slot.path, block.bytes->data(), block.bytes->size());
  }
  AddResident(slot.bytes);
  blocks_.emplace(key, std::move(slot));
}

PackedBlock DiskTier::Load(BlockKey key, TaskMetrics* metrics) const {
  auto it = blocks_.find(key);
  if (it == blocks_.end()) return {};
  PackedBlock block;
  block.level = it->second.level;
  block.count = it->second.count;
  {
    ScopedTimerMs timer(&metrics->spill_ms);
    block.bytes = ReadFileBytes(it->second.path, counter_);
  }
  return block;
}

bool DiskTier::Contains(BlockKey key) const {
  return blocks_.find(key) != blocks_.end();
}

void DiskTier::Drop(BlockKey key) {
  auto it = blocks_.find(key);
  if (it == blocks_.end()) return;
  std::remove(it->second.path.c_str());
  SubResident(it->second.bytes);
  blocks_.erase(it);
}

void DiskTier::DropAll() {
  for (const auto& [key, slot] : blocks_) std::remove(slot.path.c_str());
  blocks_.clear();
  ZeroResident();
}

}  // namespace deca::spark
