#ifndef DECA_JVM_CLASS_REGISTRY_H_
#define DECA_JVM_CLASS_REGISTRY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/logging.h"
#include "jvm/object_model.h"

namespace deca::jvm {

/// One declared field of a managed class: name, kind and its byte offset
/// within the object payload (header excluded).
struct FieldDesc {
  std::string name;
  FieldKind kind;
  uint32_t offset;
};

/// Immutable layout metadata for one managed class (instance or array).
/// The garbage collectors use `ref_offsets` / `elem_kind` to trace objects;
/// workloads use `FieldOffset` for symbolic field access; the Deca layout
/// synthesizer consumes `fields` to compute decomposed offsets.
class ClassInfo {
 public:
  uint32_t id() const { return id_; }
  const std::string& name() const { return name_; }
  bool is_array() const { return is_array_; }
  FieldKind elem_kind() const { return elem_kind_; }
  uint32_t elem_bytes() const { return elem_bytes_; }
  /// Instance payload size in bytes, 8-byte aligned (arrays: 0).
  uint32_t payload_bytes() const { return payload_bytes_; }
  const std::vector<uint32_t>& ref_offsets() const { return ref_offsets_; }
  const std::vector<FieldDesc>& fields() const { return fields_; }

  /// Returns the payload offset of the named field; aborts if missing.
  uint32_t FieldOffset(const std::string& field_name) const;

  /// Total object size in bytes (header included) for an instance of this
  /// class, or an array of `length` elements.
  uint32_t ObjectBytes(uint32_t length) const {
    if (is_array_) {
      return kHeaderBytes +
             static_cast<uint32_t>(AlignUp(
                 static_cast<uint64_t>(length) * elem_bytes_, kWordSize));
    }
    return kHeaderBytes + payload_bytes_;
  }

 private:
  friend class ClassRegistry;
  uint32_t id_ = 0;
  std::string name_;
  bool is_array_ = false;
  FieldKind elem_kind_ = FieldKind::kByte;
  uint32_t elem_bytes_ = 1;
  uint32_t payload_bytes_ = 0;
  std::vector<uint32_t> ref_offsets_;
  std::vector<FieldDesc> fields_;
};

/// Registry of all managed classes visible to one (or more) heaps.
/// Class id 0 is reserved for heap-internal free chunks (CMS sweep leaves
/// parsable free-space filler objects, like Hotspot's int[] fillers).
/// Ids 1..8 are the preregistered primitive array classes.
class ClassRegistry {
 public:
  ClassRegistry();

  /// Defines an instance class. Field offsets are assigned in declaration
  /// order with natural alignment; the payload is padded to 8 bytes.
  uint32_t RegisterClass(const std::string& name,
                         const std::vector<std::pair<std::string, FieldKind>>&
                             field_specs);

  /// Defines an array class with the given element kind.
  uint32_t RegisterArrayClass(const std::string& name, FieldKind elem_kind);

  const ClassInfo& Get(uint32_t id) const {
    DECA_DCHECK(id < classes_.size());
    return classes_[id];
  }

  /// Returns the class id for `name`, or UINT32_MAX if not registered.
  uint32_t FindId(const std::string& name) const;

  size_t size() const { return classes_.size(); }

  // Preregistered well-known classes.
  uint32_t free_chunk_class() const { return 0; }
  uint32_t byte_array_class() const { return byte_array_; }
  uint32_t int_array_class() const { return int_array_; }
  uint32_t long_array_class() const { return long_array_; }
  uint32_t double_array_class() const { return double_array_; }
  uint32_t ref_array_class() const { return ref_array_; }
  uint32_t char_array_class() const { return char_array_; }
  /// java.lang.Double-style box: one double payload.
  uint32_t boxed_double_class() const { return boxed_double_; }
  /// java.lang.Long-style box: one long payload.
  uint32_t boxed_long_class() const { return boxed_long_; }
  /// java.lang.Integer-style box: one int payload.
  uint32_t boxed_int_class() const { return boxed_int_; }

 private:
  std::vector<ClassInfo> classes_;
  uint32_t byte_array_ = 0;
  uint32_t int_array_ = 0;
  uint32_t long_array_ = 0;
  uint32_t double_array_ = 0;
  uint32_t ref_array_ = 0;
  uint32_t char_array_ = 0;
  uint32_t boxed_double_ = 0;
  uint32_t boxed_long_ = 0;
  uint32_t boxed_int_ = 0;
};

}  // namespace deca::jvm

#endif  // DECA_JVM_CLASS_REGISTRY_H_
