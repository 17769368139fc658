#ifndef DECA_ALLOC_BUFFERS_H_
#define DECA_ALLOC_BUFFERS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "alloc/arena.h"

namespace deca::alloc {

/// Immutable shared byte buffer: the block store's T1/T2 payloads and lazy
/// reads. It owns either a `new[]` buffer or a serializer's adopted
/// vector, and charges either one to `counter` (when set) on creation and
/// destruction, from whichever thread drops the last reference.
class Bytes {
 public:
  /// Uninitialized buffer of `n` bytes; fill via mutable_data() before
  /// sharing.
  static std::shared_ptr<Bytes> New(AllocCounter* counter, size_t n);

  /// Copy of `[src, src+n)`.
  static std::shared_ptr<const Bytes> Copy(AllocCounter* counter,
                                           const uint8_t* src, size_t n);

  /// Zero-copy adoption of serializer output.
  static std::shared_ptr<const Bytes> FromWriter(AllocCounter* counter,
                                                 std::vector<uint8_t> buf);

  ~Bytes();

  Bytes(const Bytes&) = delete;
  Bytes& operator=(const Bytes&) = delete;

  const uint8_t* data() const { return data_; }
  uint8_t* mutable_data() { return data_; }
  size_t size() const { return size_; }

 private:
  Bytes() = default;

  AllocCounter* counter_ = nullptr;  // set when this buffer was counted
  std::unique_ptr<uint8_t[]> raw_;   // New/Copy storage
  std::vector<uint8_t> adopted_;     // FromWriter storage
  uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

using BytesPtr = std::shared_ptr<const Bytes>;

/// Reusable grow-only scratch buffer for file I/O (spill-run merge
/// records). Reserve discards contents; every (re)allocation is counted on
/// `counter` when set.
class ScratchBuffer {
 public:
  explicit ScratchBuffer(AllocCounter* counter) : counter_(counter) {}
  ~ScratchBuffer() { Release(); }

  ScratchBuffer(ScratchBuffer&& o) noexcept;

  /// Ensures capacity >= n; existing contents are NOT preserved.
  void Reserve(size_t n);

  uint8_t* data() { return buf_.get(); }

 private:
  void Release();

  AllocCounter* counter_ = nullptr;
  std::unique_ptr<uint8_t[]> buf_;
  size_t capacity_ = 0;
};

}  // namespace deca::alloc

#endif  // DECA_ALLOC_BUFFERS_H_
