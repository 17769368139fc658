#include "jvm/class_registry.h"

namespace deca::jvm {

const char* FieldKindName(FieldKind k) {
  switch (k) {
    case FieldKind::kBool:
      return "bool";
    case FieldKind::kByte:
      return "byte";
    case FieldKind::kShort:
      return "short";
    case FieldKind::kChar:
      return "char";
    case FieldKind::kInt:
      return "int";
    case FieldKind::kFloat:
      return "float";
    case FieldKind::kLong:
      return "long";
    case FieldKind::kDouble:
      return "double";
    case FieldKind::kRef:
      return "ref";
  }
  return "?";
}

uint32_t ClassInfo::FieldOffset(const std::string& field_name) const {
  for (const auto& f : fields_) {
    if (f.name == field_name) return f.offset;
  }
  DECA_LOG(Fatal) << "class " << name_ << " has no field " << field_name;
  return 0;
}

ClassRegistry::ClassRegistry() {
  // Class 0: heap-internal free chunk (a pseudo byte array).
  RegisterArrayClass("<free>", FieldKind::kByte);
  byte_array_ = RegisterArrayClass("byte[]", FieldKind::kByte);
  int_array_ = RegisterArrayClass("int[]", FieldKind::kInt);
  long_array_ = RegisterArrayClass("long[]", FieldKind::kLong);
  double_array_ = RegisterArrayClass("double[]", FieldKind::kDouble);
  ref_array_ = RegisterArrayClass("Object[]", FieldKind::kRef);
  char_array_ = RegisterArrayClass("char[]", FieldKind::kChar);
  boxed_double_ = RegisterClass("java.lang.Double",
                                {{"value", FieldKind::kDouble}});
  boxed_long_ = RegisterClass("java.lang.Long", {{"value", FieldKind::kLong}});
  boxed_int_ = RegisterClass("java.lang.Integer", {{"value", FieldKind::kInt}});
}

uint32_t ClassRegistry::RegisterClass(
    const std::string& name,
    const std::vector<std::pair<std::string, FieldKind>>& field_specs) {
  DECA_CHECK_LT(classes_.size(), static_cast<size_t>(kClassIdMask));
  ClassInfo info;
  info.id_ = static_cast<uint32_t>(classes_.size());
  info.name_ = name;
  info.is_array_ = false;
  uint32_t offset = 0;
  for (const auto& [fname, kind] : field_specs) {
    uint32_t size = FieldKindBytes(kind);
    offset = static_cast<uint32_t>(AlignUp(offset, size));
    info.fields_.push_back({fname, kind, offset});
    if (kind == FieldKind::kRef) info.ref_offsets_.push_back(offset);
    offset += size;
  }
  info.payload_bytes_ = static_cast<uint32_t>(AlignUp(offset, kWordSize));
  classes_.push_back(std::move(info));
  return classes_.back().id_;
}

uint32_t ClassRegistry::RegisterArrayClass(const std::string& name,
                                           FieldKind elem_kind) {
  DECA_CHECK_LT(classes_.size(), static_cast<size_t>(kClassIdMask));
  ClassInfo info;
  info.id_ = static_cast<uint32_t>(classes_.size());
  info.name_ = name;
  info.is_array_ = true;
  info.elem_kind_ = elem_kind;
  info.elem_bytes_ = FieldKindBytes(elem_kind);
  classes_.push_back(std::move(info));
  return classes_.back().id_;
}

uint32_t ClassRegistry::FindId(const std::string& name) const {
  for (const auto& c : classes_) {
    if (c.name() == name) return c.id();
  }
  return UINT32_MAX;
}

}  // namespace deca::jvm
