#ifndef DECA_CORE_PAGE_H_
#define DECA_CORE_PAGE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/logging.h"
#include "jvm/heap.h"
#include "memory/memory_manager.h"

namespace deca::core {

/// Location of a byte segment inside a page group: (page index, byte
/// offset). Stable across garbage collections (pages are managed byte
/// arrays that moving collectors may relocate; the group's root provider
/// keeps the page references up to date).
struct SegPtr {
  uint32_t page = 0;
  uint32_t offset = 0;

  bool operator==(const SegPtr& o) const {
    return page == o.page && offset == o.offset;
  }
};

/// A group of fixed-size logical memory pages owned by one data container
/// (paper Section 4.3.1). Each page is a single managed byte array in the
/// executor's heap, so a container holding millions of decomposed objects
/// contributes only a handful of GC roots; destroying the group releases
/// the page references and the GC reclaims all of the data at once.
///
/// Share groups between containers with std::shared_ptr — this is the
/// paper's reference-counting reclamation of shared page groups. A
/// secondary container that stores pointers into a primary's pages keeps
/// the primary group alive through `AddDependency` (the paper's depPages).
///
/// When the owning heap has a memory::ExecutorMemoryManager attached,
/// every page allocation/release charges the group's footprint to the
/// manager — by default to the execution pool (shuffle buffers, agg
/// tables, sort runs); the cache re-tags groups it takes ownership of via
/// `SetChargePool(kStorage)`.
class PageGroup : public memory::PageFootprintSource {
 public:
  /// `page_bytes` is the common fixed page size; segments never straddle
  /// pages, so it bounds the largest record.
  PageGroup(jvm::Heap* heap, uint32_t page_bytes);
  ~PageGroup() override;

  PageGroup(const PageGroup&) = delete;
  PageGroup& operator=(const PageGroup&) = delete;

  /// Reserves a `bytes`-long segment at the end of the group (allocating a
  /// fresh page when the current one cannot fit it) and returns its
  /// location. `bytes` must be <= page_bytes. May trigger GC.
  SegPtr Append(uint32_t bytes);

  /// Returns the raw address of a segment. Valid only until the next
  /// managed-heap allocation (which may move pages).
  uint8_t* Resolve(SegPtr p) const {
    DECA_DCHECK_LT(p.page, pages_.refs().size());
    return heap_->ArrayData(pages_.refs()[p.page]) + p.offset;
  }

  /// Records that this group's segments point into `dep`'s pages, keeping
  /// `dep` alive for this group's lifetime (paper's depPages field).
  void AddDependency(std::shared_ptr<PageGroup> dep) {
    dep_groups_.push_back(std::move(dep));
  }

  jvm::Heap* heap() const { return heap_; }
  uint32_t page_bytes() const { return page_bytes_; }
  uint32_t page_count() const {
    return static_cast<uint32_t>(pages_.refs().size());
  }
  /// Bytes appended into page `i`.
  uint32_t page_used(uint32_t i) const { return used_[i]; }
  /// Total data bytes across all pages.
  uint64_t used_bytes() const;
  /// Total heap footprint (page_count * page size, headers included).
  uint64_t footprint_bytes() const override;
  /// Number of appended segments.
  uint64_t segment_count() const { return segment_count_; }

  /// True when appending `bytes` would allocate a fresh page.
  bool NeedsNewPage(uint32_t bytes) const {
    return used_.empty() || used_.back() + bytes > page_bytes_;
  }
  /// Heap footprint one page costs (header included).
  uint64_t page_cost_bytes() const {
    return static_cast<uint64_t>(page_bytes_) + jvm::kHeaderBytes;
  }

  /// Raw page-bytes fast path (paper Appendix C): writes `page count,
  /// then per page (used bytes, raw data)` into a caller-sized buffer of
  /// at least encoded_raw_bytes() and returns the bytes written.
  /// Decomposed segments are already GC-free bytes, so demoting or
  /// swapping a kDecaPages block is a header plus memcpys — no per-record
  /// serialization. The format is shared by the off-heap tier (T1) and
  /// the swap file (T2).
  size_t EncodeRawTo(uint8_t* dst) const;
  /// Rebuilds a group from the EncodeRawTo bytes `[data, data+size)`
  /// (allocating managed pages on `heap`; charges the execution pool like
  /// any fresh group). Aborts, naming the offset, on a page header that
  /// claims more than `page_bytes` or than the payload holds.
  static std::shared_ptr<PageGroup> DecodeRaw(jvm::Heap* heap,
                                              uint32_t page_bytes,
                                              const uint8_t* data,
                                              size_t size);
  /// Size EncodeRawTo will write, without materializing it.
  uint64_t encoded_raw_bytes() const;

  /// Moves this group's charged footprint to `pool` (and tags future
  /// pages). No-op without a memory manager.
  void SetChargePool(memory::Pool pool);
  memory::Pool charge_pool() const { return pool_; }

  /// Drops all pages and dependencies (the group becomes empty; the GC can
  /// reclaim the space at the next collection).
  void Clear();

 private:
  jvm::Heap* heap_;
  uint32_t page_bytes_;
  memory::ExecutorMemoryManager* mm_;  // may be null (standalone heaps)
  memory::Pool pool_ = memory::Pool::kExecution;
  jvm::VectorRootProvider pages_;  // registered with the heap
  std::vector<uint32_t> used_;     // bytes used per page
  uint64_t segment_count_ = 0;
  std::vector<std::shared_ptr<PageGroup>> dep_groups_;
};

/// Sequential scanner over a page group's segments (the paper's
/// curPage/curOffset cursor). The caller supplies record sizes (records
/// are fixed-size for SFSTs or self-describing for RFSTs).
class PageScanner {
 public:
  explicit PageScanner(const PageGroup* group) : group_(group) {}

  bool AtEnd() {
    Normalize();
    return page_ >= group_->page_count();
  }

  /// Raw pointer at the cursor (valid until the next allocation).
  uint8_t* Cur() {
    Normalize();
    return group_->Resolve({page_, offset_});
  }

  void Advance(uint32_t bytes) { offset_ += bytes; }

  void Reset() {
    page_ = 0;
    offset_ = 0;
  }

 private:
  void Normalize() {
    while (page_ < group_->page_count() &&
           offset_ >= group_->page_used(page_)) {
      ++page_;
      offset_ = 0;
    }
  }

  const PageGroup* group_;
  uint32_t page_ = 0;
  uint32_t offset_ = 0;
};

/// Sequential scanner over EncodeRawTo bytes without rebuilding a page
/// group: yields each encoded page's (data pointer, used bytes). This is
/// the zero-copy serving path for demoted kDecaPages blocks — a query
/// walks fixed-size decomposed records straight out of the packed T1
/// buffer or the mapped T2 extent, allocating nothing on the managed
/// heap. The payload may be corrupt, so a header that claims more bytes
/// than the payload holds aborts, naming its offset, instead of reading
/// past the payload.
class RawPageCursor {
 public:
  RawPageCursor(const uint8_t* data, size_t size) : reader_(data, size) {
    DECA_CHECK(size >= sizeof(uint32_t))
        << "raw page payload of " << size << " bytes has no page count";
    page_count_ = reader_.Read<uint32_t>();
    // Every page header must fit; Next keeps that true for the headers
    // still to come, so it reads each one in bounds.
    DECA_CHECK(page_count_ <= reader_.remaining() / sizeof(uint32_t))
        << "raw page payload at offset 0 claims " << page_count_
        << " pages, but only " << reader_.remaining() << " bytes follow";
  }

  /// Advances to the next encoded page; false once all pages are read.
  bool Next(const uint8_t** page_data, uint32_t* used) {
    if (index_ >= page_count_) return false;
    const size_t offset = reader_.position();
    uint32_t u = reader_.Read<uint32_t>();
    ++index_;
    const size_t later_headers = (page_count_ - index_) * sizeof(uint32_t);
    DECA_CHECK(u <= reader_.remaining() - later_headers)
        << "raw page payload: page " << index_ - 1 << " at offset " << offset
        << " claims " << u << " bytes, but only "
        << reader_.remaining() - later_headers << " are left for it";
    *used = u;
    *page_data = reader_.Skip(u);
    return true;
  }

  uint32_t page_count() const { return page_count_; }

 private:
  ByteReader reader_;
  uint32_t page_count_ = 0;
  uint32_t index_ = 0;
};

}  // namespace deca::core

#endif  // DECA_CORE_PAGE_H_
