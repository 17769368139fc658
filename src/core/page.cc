#include "core/page.h"

namespace deca::core {

PageGroup::PageGroup(jvm::Heap* heap, uint32_t page_bytes)
    : heap_(heap), page_bytes_(page_bytes), mm_(heap->memory_manager()) {
  DECA_CHECK_GT(page_bytes, 0u);
  heap_->AddRootProvider(&pages_);
  if (mm_ != nullptr) mm_->RegisterPageSource(this);
}

PageGroup::~PageGroup() {
  if (mm_ != nullptr) {
    mm_->UnchargePages(pool_, footprint_bytes());
    mm_->UnregisterPageSource(this);
  }
  heap_->RemoveRootProvider(&pages_);
}

SegPtr PageGroup::Append(uint32_t bytes) {
  DECA_CHECK_LE(bytes, page_bytes_)
      << "record larger than the Deca page size";
  if (NeedsNewPage(bytes)) {
    // Pages are large objects: allocated directly in the old generation,
    // where they stay for the lifetime of their container.
    jvm::ObjRef page =
        heap_->AllocateArray(heap_->registry()->byte_array_class(),
                             page_bytes_);
    pages_.refs().push_back(page);
    used_.push_back(0);
    if (mm_ != nullptr) mm_->ChargePages(pool_, page_cost_bytes());
  }
  uint32_t page_idx = static_cast<uint32_t>(used_.size() - 1);
  SegPtr seg{page_idx, used_.back()};
  used_.back() += bytes;
  ++segment_count_;
  return seg;
}

void PageGroup::EncodeRaw(ByteWriter* out) const {
  out->Write<uint32_t>(page_count());
  for (uint32_t i = 0; i < page_count(); ++i) {
    uint32_t used = used_[i];
    out->Write<uint32_t>(used);
    out->WriteBytes(Resolve({i, 0}), used);
  }
}

size_t PageGroup::EncodeRawTo(uint8_t* dst) const {
  uint8_t* p = dst;
  StoreRaw<uint32_t>(p, page_count());
  p += sizeof(uint32_t);
  for (uint32_t i = 0; i < page_count(); ++i) {
    uint32_t used = used_[i];
    StoreRaw<uint32_t>(p, used);
    p += sizeof(uint32_t);
    std::memcpy(p, Resolve({i, 0}), used);
    p += used;
  }
  return static_cast<size_t>(p - dst);
}

std::shared_ptr<PageGroup> PageGroup::DecodeRaw(jvm::Heap* heap,
                                                uint32_t page_bytes,
                                                const uint8_t* data,
                                                size_t size) {
  auto group = std::make_shared<PageGroup>(heap, page_bytes);
  RawPageCursor cursor(data, size);
  const uint8_t* page = nullptr;
  uint32_t used = 0;
  while (cursor.Next(&page, &used)) {
    DECA_CHECK(used <= page_bytes)
        << "raw page payload: page at offset "
        << static_cast<size_t>(page - data) - sizeof(uint32_t) << " claims "
        << used << " bytes, more than a " << page_bytes << "-byte page";
    SegPtr seg = group->Append(used);
    std::memcpy(group->Resolve(seg), page, used);
  }
  return group;
}

uint64_t PageGroup::encoded_raw_bytes() const {
  return 4 + 4ull * page_count() + used_bytes();
}

uint64_t PageGroup::used_bytes() const {
  uint64_t total = 0;
  for (uint32_t u : used_) total += u;
  return total;
}

uint64_t PageGroup::footprint_bytes() const {
  return static_cast<uint64_t>(page_count()) *
         (page_bytes_ + jvm::kHeaderBytes);
}

void PageGroup::SetChargePool(memory::Pool pool) {
  if (mm_ != nullptr && pool != pool_) {
    mm_->TransferPages(pool_, pool, footprint_bytes());
  }
  pool_ = pool;
}

void PageGroup::Clear() {
  if (mm_ != nullptr) mm_->UnchargePages(pool_, footprint_bytes());
  pages_.refs().clear();
  used_.clear();
  segment_count_ = 0;
  dep_groups_.clear();
}

}  // namespace deca::core
