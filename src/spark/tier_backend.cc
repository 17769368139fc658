#include "spark/tier_backend.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iterator>
#include <map>
#include <mutex>
#include <set>
#include <utility>

#include "common/clock.h"
#include "common/logging.h"

namespace deca::spark {

// -- OffHeapTier -------------------------------------------------------------

void OffHeapTier::Store(BlockKey key, PackedBlock block) {
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

PackedBlock OffHeapTier::Load(BlockKey key) const {
  auto it = blocks_.find(key);
  if (it == blocks_.end()) return {};
  return it->second.block;
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

class DiskTier::SwapFile : public std::enable_shared_from_this<SwapFile> {
 public:
  /// Creates (or empties) the file and maps a kWindowBytes address range
  /// of it, read-write and shared, so stores and views go through one
  /// mapping that never moves.
  explicit SwapFile(std::string path);
  ~SwapFile();

  SwapFile(const SwapFile&) = delete;
  SwapFile& operator=(const SwapFile&) = delete;

  uint8_t* at(uint64_t offset) const { return base_ + offset; }

  /// Best-fitting free extent of `bytes` (the remainder stays free), or a
  /// new one at the end of the used file, which grows to cover it.
  uint64_t Take(uint64_t bytes);
  /// Frees an extent, or leaves that to the last view still pinning it.
  void Release(uint64_t offset, uint64_t bytes);
  /// A view of a live extent, after checking that the file (which could
  /// have been cut under the tier) still covers it. The view pins the
  /// extent and keeps this file mapped until its last reference goes.
  alloc::BytesPtr View(uint64_t offset, uint64_t bytes);

 private:
  struct Pin {
    uint32_t views = 0;
    uint64_t released_bytes = 0;  // nonzero once Release deferred to views
  };

  void Unpin(uint64_t offset);
  /// Frees an extent, merged with its free neighbours; an extent that
  /// ends the used file shortens it instead, and a file left with no
  /// extent is cut to length zero.
  void ReturnExtent(uint64_t offset, uint64_t bytes);
  void AddFree(uint64_t offset, uint64_t bytes);
  void EraseFree(std::map<uint64_t, uint64_t>::iterator it);
  /// Extends the file to `bytes`, allocating the new blocks now: a full
  /// disk then fails here, naming the file, and not as a SIGBUS when the
  /// copy into the mapping touches a page the disk cannot back.
  void Grow(uint64_t bytes);
  void Cut();

  const std::string path_;
  int fd_ = -1;
  uint8_t* base_ = nullptr;
  // Guards everything below: views unpin from whichever thread drops them.
  std::mutex mu_;
  uint64_t end_ = 0;         // end of the last allocated extent
  uint64_t file_bytes_ = 0;  // the file's length
  std::map<uint64_t, uint64_t> free_by_offset_;           // offset -> bytes
  std::set<std::pair<uint64_t, uint64_t>> free_by_size_;  // (bytes, offset)
  std::unordered_map<uint64_t, Pin> pins_;  // extent offset -> its views
};

DiskTier::SwapFile::SwapFile(std::string path) : path_(std::move(path)) {
  // Close-on-exec: the cluster manager forks executor daemons.
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0600);
  DECA_CHECK(fd_ >= 0) << "cannot open swap file " << path_ << ": "
                       << std::strerror(errno);
  void* base = ::mmap(nullptr, kWindowBytes, PROT_READ | PROT_WRITE,
                      MAP_SHARED, fd_, 0);
  DECA_CHECK(base != MAP_FAILED) << "cannot map " << kWindowBytes
                                 << " bytes of swap file " << path_ << ": "
                                 << std::strerror(errno);
  base_ = static_cast<uint8_t*>(base);
}

DiskTier::SwapFile::~SwapFile() {
  ::munmap(base_, kWindowBytes);
  ::close(fd_);
}

uint64_t DiskTier::SwapFile::Take(uint64_t bytes) {
  if (bytes == 0) return 0;  // empty payloads take no extent
  std::lock_guard<std::mutex> lock(mu_);
  auto fit = free_by_size_.lower_bound({bytes, 0});
  if (fit == free_by_size_.end()) {
    const uint64_t offset = end_;
    DECA_CHECK(bytes <= kWindowBytes - offset)
        << "swap file " << path_ << " is full: a " << bytes
        << "-byte extent at offset " << offset << " runs past its "
        << kWindowBytes << "-byte mapping";
    end_ += bytes;
    if (end_ > file_bytes_) Grow(end_);
    return offset;
  }
  const auto [size, offset] = *fit;
  EraseFree(free_by_offset_.find(offset));
  if (size > bytes) AddFree(offset + bytes, size - bytes);
  return offset;
}

void DiskTier::SwapFile::Release(uint64_t offset, uint64_t bytes) {
  if (bytes == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto pin = pins_.find(offset);
  if (pin != pins_.end()) {
    pin->second.released_bytes = bytes;
    return;
  }
  ReturnExtent(offset, bytes);
}

alloc::BytesPtr DiskTier::SwapFile::View(uint64_t offset, uint64_t bytes) {
  if (bytes == 0) return alloc::Bytes::New(nullptr, 0);
  struct stat st;
  DECA_CHECK(::fstat(fd_, &st) == 0)
      << "cannot stat swap file " << path_ << ": " << std::strerror(errno);
  DECA_CHECK(static_cast<uint64_t>(st.st_size) >= offset + bytes)
      << "cannot read swap file " << path_ << " at offset " << offset << " ("
      << bytes << " bytes): the file ends at byte " << st.st_size;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++pins_[offset].views;
  }
  // The view's handle on this file unpins the extent when it is dropped.
  std::shared_ptr<const void> handle(
      static_cast<const void*>(this),
      [file = shared_from_this(), offset](const void*) {
        file->Unpin(offset);
      });
  return alloc::Bytes::View(at(offset), bytes, std::move(handle));
}

void DiskTier::SwapFile::Unpin(uint64_t offset) {
  std::lock_guard<std::mutex> lock(mu_);
  auto pin = pins_.find(offset);
  if (--pin->second.views > 0) return;
  const uint64_t released = pin->second.released_bytes;
  pins_.erase(pin);
  if (released > 0) ReturnExtent(offset, released);
}

void DiskTier::SwapFile::ReturnExtent(uint64_t offset, uint64_t bytes) {
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
  if (offset + bytes != end_) {
    AddFree(offset, bytes);
    return;
  }
  end_ = offset;  // a free tail needs no entry: the next append reuses it
  if (end_ == 0) Cut();
}

void DiskTier::SwapFile::AddFree(uint64_t offset, uint64_t bytes) {
  free_by_offset_.emplace(offset, bytes);
  free_by_size_.emplace(bytes, offset);
}

void DiskTier::SwapFile::EraseFree(std::map<uint64_t, uint64_t>::iterator it) {
  free_by_size_.erase(std::make_pair(it->second, it->first));
  free_by_offset_.erase(it);
}

void DiskTier::SwapFile::Grow(uint64_t bytes) {
  const int rc =
      ::posix_fallocate(fd_, static_cast<off_t>(file_bytes_),
                        static_cast<off_t>(bytes - file_bytes_));
  DECA_CHECK(rc == 0) << "cannot grow swap file " << path_ << " to " << bytes
                      << " bytes: " << std::strerror(rc);
  file_bytes_ = bytes;
}

void DiskTier::SwapFile::Cut() {
  const int rc = ::ftruncate(fd_, 0);
  DECA_CHECK(rc == 0) << "cannot truncate swap file " << path_ << ": "
                      << std::strerror(errno);
  file_bytes_ = 0;
}

DiskTier::~DiskTier() {
  if (file_ != nullptr) ::unlink(path_.c_str());
}

void DiskTier::Store(BlockKey key, PackedBlock block, TaskMetrics* metrics) {
  DECA_CHECK(block.valid());
  Drop(key);
  Slot slot;
  slot.level = block.level;
  slot.count = block.count;
  slot.bytes = block.size();
  {
    ScopedTimerMs timer(&metrics->spill_ms);
    if (file_ == nullptr) file_ = std::make_shared<SwapFile>(path_);
    slot.offset = file_->Take(slot.bytes);
    if (slot.bytes > 0) {
      std::memcpy(file_->at(slot.offset), block.bytes->data(), slot.bytes);
    }
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
  ScopedTimerMs timer(&metrics->spill_ms);
  block.bytes = file_->View(slot.offset, slot.bytes);
  return block;
}

bool DiskTier::Contains(BlockKey key) const {
  return blocks_.find(key) != blocks_.end();
}

void DiskTier::Drop(BlockKey key) {
  auto it = blocks_.find(key);
  if (it == blocks_.end()) return;
  SubResident(it->second.bytes);
  file_->Release(it->second.offset, it->second.bytes);
  blocks_.erase(it);
}

void DiskTier::DropAll() {
  for (const auto& [key, slot] : blocks_) {
    file_->Release(slot.offset, slot.bytes);
  }
  blocks_.clear();
  ZeroResident();
}

}  // namespace deca::spark
