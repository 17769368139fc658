#include "spark/record_decl.h"

namespace deca::spark::record_internal {

uint32_t FindOrRegisterClass(
    jvm::ClassRegistry* registry, const char* name,
    const std::vector<std::pair<std::string, jvm::FieldKind>>& fields) {
  uint32_t id = registry->FindId(name);
  if (id == UINT32_MAX) return registry->RegisterClass(name, fields);
  const std::vector<jvm::FieldDesc>& have = registry->Get(id).fields();
  DECA_CHECK_EQ(have.size(), fields.size())
      << "class " << name << " is registered with other fields";
  for (size_t i = 0; i < fields.size(); ++i) {
    DECA_CHECK(have[i].name == fields[i].first &&
               have[i].kind == fields[i].second)
        << "class " << name << " field " << i << " is registered as "
        << have[i].name << " (" << jvm::FieldKindName(have[i].kind) << ")";
  }
  return id;
}

uint32_t ArrayClassOf(const jvm::ClassRegistry& registry,
                      jvm::FieldKind elem) {
  uint32_t id = registry.FindId(std::string(jvm::FieldKindName(elem)) + "[]");
  DECA_CHECK_NE(id, UINT32_MAX) << "no array class for "
                                << jvm::FieldKindName(elem) << " elements";
  return id;
}

std::string ArrayTypeName(jvm::FieldKind elem) {
  std::string name = jvm::FieldKindName(elem);
  name[0] = static_cast<char>(name[0] - 'a' + 'A');
  return "Array[" + name + "]";
}

}  // namespace deca::spark::record_internal
