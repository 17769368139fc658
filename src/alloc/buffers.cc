#include "alloc/buffers.h"

#include <cstring>
#include <utility>

namespace deca::alloc {

std::shared_ptr<Bytes> Bytes::New(AllocCounter* counter, size_t n) {
  auto b = std::shared_ptr<Bytes>(new Bytes());
  if (n > 0) {
    b->raw_ = std::make_unique_for_overwrite<uint8_t[]>(n);
    b->data_ = b->raw_.get();
    b->size_ = n;
    if (counter != nullptr) {
      counter->CountAlloc(n);
      b->counter_ = counter;
    }
  }
  return b;
}

std::shared_ptr<const Bytes> Bytes::Copy(AllocCounter* counter,
                                         const uint8_t* src, size_t n) {
  auto b = New(counter, n);
  if (n > 0) std::memcpy(b->mutable_data(), src, n);
  return b;
}

std::shared_ptr<const Bytes> Bytes::FromWriter(AllocCounter* counter,
                                               std::vector<uint8_t> buf) {
  auto b = std::shared_ptr<Bytes>(new Bytes());
  b->adopted_ = std::move(buf);
  b->data_ = b->adopted_.data();
  b->size_ = b->adopted_.size();
  if (counter != nullptr) {
    counter->CountAlloc(b->size_);
    b->counter_ = counter;
  }
  return b;
}

Bytes::~Bytes() {
  if (counter_ != nullptr) counter_->CountFree();
}

ScratchBuffer::ScratchBuffer(ScratchBuffer&& o) noexcept
    : counter_(o.counter_),
      buf_(std::move(o.buf_)),
      capacity_(std::exchange(o.capacity_, 0)) {}

void ScratchBuffer::Reserve(size_t n) {
  if (n <= capacity_) return;
  Release();
  buf_ = std::make_unique_for_overwrite<uint8_t[]>(n);
  capacity_ = n;
  if (counter_ != nullptr) counter_->CountAlloc(n);
}

void ScratchBuffer::Release() {
  if (buf_ != nullptr && counter_ != nullptr) counter_->CountFree();
  buf_.reset();
  capacity_ = 0;
}

}  // namespace deca::alloc
