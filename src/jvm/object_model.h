#ifndef DECA_JVM_OBJECT_MODEL_H_
#define DECA_JVM_OBJECT_MODEL_H_

#include <cstdint>

namespace deca::jvm {

/// A managed reference: index of an 8-byte word from the heap base.
/// 0 is the null reference (the first heap word is reserved). 32-bit word
/// indices address up to 32 GB of simulated heap.
using ObjRef = uint32_t;

inline constexpr ObjRef kNullRef = 0;
inline constexpr uint32_t kWordSize = 8;

/// Every managed object carries a 16-byte header:
///   word 0: [ meta : 32 | array length : 32 ]
///   word 1: gcword (mark / forwarding state, zero outside collections)
/// This mirrors the 12–16 byte headers of production JVMs; Deca's benefit of
/// eliminating per-object headers is measured against this overhead.
inline constexpr uint32_t kHeaderBytes = 16;

// -- meta word layout ---------------------------------------------------
inline constexpr uint32_t kClassIdBits = 20;
inline constexpr uint32_t kClassIdMask = (1u << kClassIdBits) - 1;
inline constexpr uint32_t kAgeShift = 20;
inline constexpr uint32_t kAgeMask = 0xFu << kAgeShift;
inline constexpr uint32_t kInRemsetBit = 1u << 24;
/// Set when the allocator granted the object 8 bytes of trailing slack to
/// avoid leaving an unparsable sub-minimum hole (CMS free-list splits).
inline constexpr uint32_t kSlack8Bit = 1u << 25;

inline uint32_t MetaClassId(uint32_t meta) { return meta & kClassIdMask; }
inline uint32_t MetaAge(uint32_t meta) { return (meta & kAgeMask) >> kAgeShift; }
inline uint32_t MetaWithAge(uint32_t meta, uint32_t age) {
  return (meta & ~kAgeMask) | (age << kAgeShift);
}

// -- gcword layout ------------------------------------------------------
inline constexpr uint64_t kGcMarkBit = 1;
inline constexpr uint64_t kGcForwardBit = 2;
inline constexpr uint32_t kGcForwardShift = 2;

inline bool GcIsForwarded(uint64_t gcword) {
  return (gcword & kGcForwardBit) != 0;
}
inline ObjRef GcForwardRef(uint64_t gcword) {
  return static_cast<ObjRef>(gcword >> kGcForwardShift);
}
inline uint64_t GcMakeForward(ObjRef target, bool keep_mark) {
  return (static_cast<uint64_t>(target) << kGcForwardShift) | kGcForwardBit |
         (keep_mark ? kGcMarkBit : 0);
}

// Mark state is tagged with a collection epoch (bits 34..63) so collectors
// never need a separate pass to clear mark bits: a mark from an older epoch
// simply reads as unmarked.
inline constexpr uint32_t kGcEpochShift = 34;

inline bool GcIsMarkedIn(uint64_t gcword, uint64_t epoch) {
  return (gcword & kGcMarkBit) != 0 && (gcword >> kGcEpochShift) == epoch;
}
inline uint64_t GcMakeMark(uint64_t epoch) {
  return (epoch << kGcEpochShift) | kGcMarkBit;
}
inline uint64_t GcMakeForwardMarked(ObjRef target, uint64_t epoch) {
  return (epoch << kGcEpochShift) |
         (static_cast<uint64_t>(target) << kGcForwardShift) | kGcForwardBit |
         kGcMarkBit;
}

/// Element kinds for managed arrays and field kinds for instances.
enum class FieldKind : uint8_t {
  kBool,
  kByte,
  kShort,
  kChar,
  kInt,
  kFloat,
  kLong,
  kDouble,
  kRef,
};

/// Size in bytes of one value of the given kind (references are 4-byte
/// compressed oops, as in a JVM with CompressedOops enabled).
inline uint32_t FieldKindBytes(FieldKind k) {
  switch (k) {
    case FieldKind::kBool:
    case FieldKind::kByte:
      return 1;
    case FieldKind::kShort:
    case FieldKind::kChar:
      return 2;
    case FieldKind::kInt:
    case FieldKind::kFloat:
    case FieldKind::kRef:
      return 4;
    case FieldKind::kLong:
    case FieldKind::kDouble:
      return 8;
  }
  return 0;
}

const char* FieldKindName(FieldKind k);

}  // namespace deca::jvm

#endif  // DECA_JVM_OBJECT_MODEL_H_
