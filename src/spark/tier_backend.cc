#include "spark/tier_backend.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iterator>

#include "common/clock.h"
#include "common/logging.h"

namespace deca::spark {

namespace {

/// pwrite of all `size` bytes at `offset`, retrying on EINTR.
void WriteAt(int fd, const std::string& path, const uint8_t* data,
             uint64_t size, uint64_t offset) {
  uint64_t done = 0;
  while (done < size) {
    const ssize_t n = ::pwrite(fd, data + done, size - done,
                               static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    const int err = n < 0 ? errno : 0;
    DECA_CHECK(n > 0) << "cannot write swap file " << path << " at offset "
                      << offset << " (" << done << " of " << size
                      << " bytes written): "
                      << (err != 0 ? std::strerror(err) : "no progress");
    done += static_cast<uint64_t>(n);
  }
}

/// pread of exactly `size` bytes at `offset`, retrying on EINTR. A file
/// that ends early (truncated under the tier) fails like an I/O error.
void ReadAt(int fd, const std::string& path, uint8_t* data, uint64_t size,
            uint64_t offset) {
  uint64_t done = 0;
  while (done < size) {
    const ssize_t n = ::pread(fd, data + done, size - done,
                              static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    const int err = n < 0 ? errno : 0;
    DECA_CHECK(n > 0) << "cannot read swap file " << path << " at offset "
                      << offset << " (" << done << " of " << size
                      << " bytes read): "
                      << (err != 0 ? std::strerror(err)
                                   : "unexpected end of file");
    done += static_cast<uint64_t>(n);
  }
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
  // Overcommit is allowed (counting a denial when the pool is full) — the
  // CacheManager sheds overflow right after, same contract as heap block
  // puts.
  slot.reservation = mm_->Reserve(memory::Pool::kStorage, bytes);
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
  if (fd_ < 0) return;
  ::close(fd_);
  ::unlink(path_.c_str());
}

void DiskTier::Store(BlockKey key, PackedBlock block, TaskMetrics* metrics) {
  DECA_CHECK(block.valid());
  Drop(key);
  Slot slot;
  slot.level = block.level;
  slot.count = block.count;
  slot.bytes = block.size();
  slot.offset = TakeExtent(slot.bytes);
  {
    ScopedTimerMs timer(&metrics->spill_ms);
    if (fd_ < 0) {
      // Close-on-exec: the driver forks executor daemons.
      fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                   0600);
      DECA_CHECK(fd_ >= 0) << "cannot open swap file " << path_ << ": "
                           << std::strerror(errno);
    }
    WriteAt(fd_, path_, block.bytes->data(), slot.bytes, slot.offset);
  }
  AddResident(slot.bytes);
  blocks_.emplace(key, slot);
}

PackedBlock DiskTier::Load(BlockKey key, TaskMetrics* metrics) const {
  auto it = blocks_.find(key);
  if (it == blocks_.end()) return {};
  const Slot& slot = it->second;
  PackedBlock block;
  block.level = slot.level;
  block.count = slot.count;
  {
    ScopedTimerMs timer(&metrics->spill_ms);
    auto data = alloc::Bytes::New(counter_, slot.bytes);
    ReadAt(fd_, path_, data->mutable_data(), slot.bytes, slot.offset);
    block.bytes = std::move(data);
  }
  return block;
}

bool DiskTier::Contains(BlockKey key) const {
  return blocks_.find(key) != blocks_.end();
}

void DiskTier::Drop(BlockKey key) {
  auto it = blocks_.find(key);
  if (it == blocks_.end()) return;
  SubResident(it->second.bytes);
  ReturnExtent(it->second.offset, it->second.bytes);
  blocks_.erase(it);
  if (blocks_.empty()) Reset();
}

void DiskTier::DropAll() {
  blocks_.clear();
  ZeroResident();
  Reset();
}

uint64_t DiskTier::TakeExtent(uint64_t bytes) {
  if (bytes == 0) return 0;  // empty payloads take no extent
  auto fit = free_by_size_.lower_bound({bytes, 0});
  if (fit == free_by_size_.end()) {
    const uint64_t offset = end_;
    end_ += bytes;
    return offset;
  }
  const auto [size, offset] = *fit;
  EraseFree(free_by_offset_.find(offset));
  if (size > bytes) AddFree(offset + bytes, size - bytes);
  return offset;
}

void DiskTier::ReturnExtent(uint64_t offset, uint64_t bytes) {
  if (bytes == 0) return;
  auto next = free_by_offset_.lower_bound(offset);
  if (next != free_by_offset_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == offset) {
      offset = prev->first;
      bytes += prev->second;
      EraseFree(prev);
    }
  }
  if (next != free_by_offset_.end() && next->first == offset + bytes) {
    bytes += next->second;
    EraseFree(next);
  }
  if (offset + bytes == end_) {
    end_ = offset;  // a free tail needs no entry: the next append reuses it
  } else {
    AddFree(offset, bytes);
  }
}

void DiskTier::AddFree(uint64_t offset, uint64_t bytes) {
  free_by_offset_.emplace(offset, bytes);
  free_by_size_.emplace(bytes, offset);
}

void DiskTier::EraseFree(std::map<uint64_t, uint64_t>::iterator it) {
  free_by_size_.erase(std::make_pair(it->second, it->first));
  free_by_offset_.erase(it);
}

void DiskTier::Reset() {
  free_by_offset_.clear();
  free_by_size_.clear();
  end_ = 0;
  if (fd_ < 0) return;
  const int rc = ::ftruncate(fd_, 0);
  DECA_CHECK(rc == 0) << "cannot truncate swap file " << path_ << ": "
                      << std::strerror(errno);
}

}  // namespace deca::spark
