#ifndef DECA_COMMON_FIELD_CODEC_H_
#define DECA_COMMON_FIELD_CODEC_H_

// Field lists and the control-plane codec generated from them.
//
// A wire struct lists each member once, next to its declaration:
//
//   template <typename F>
//   static constexpr void ForEachField(F&& f) {
//     using Self = TierCounters;
//     DECA_SUM(t0_hits);   // f("t0_hits", &Self::t0_hits, Fold::kSum)
//     DECA_MAX(p99_ms);    // f("p99_ms", &Self::p99_ms, Fold::kMax)
//   }
//
// (DECA_WIRE(m) lists a member with no fold of its own: a nested list,
// which folds by its own entries, or a member of a struct that is never
// folded.) From the list come the struct's wire codec (Put/Get below: wire
// order is list order), its fold (FoldFields) and the names it reports
// under (ForEachLeaf), so both ends of a socket encode, decode and fold
// every field the same way.
// Each list is guarded by a tripwire next to it: a structured binding of
// every member plus a FieldCount assertion, so a new member fails to
// compile until it is listed or counted as off the wire.

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/logging.h"

#define DECA_WIRE(member) f(#member, &Self::member)
#define DECA_SUM(member) f(#member, &Self::member, ::deca::Fold::kSum)
#define DECA_MAX(member) f(#member, &Self::member, ::deca::Fold::kMax)

namespace deca {

/// How an entry of a folded list combines across tasks or executors.
enum class Fold : uint8_t { kSum, kMax };

namespace field_codec_internal {
struct AnyEntry {
  template <typename... Args>
  constexpr void operator()(const char*, Args...) const {}
};
template <typename T>
struct IsVector : std::false_type {};
template <typename T>
struct IsVector<std::vector<T>> : std::true_type {};
}  // namespace field_codec_internal

/// A struct that declares a field list.
template <typename T>
concept Listed =
    requires { T::ForEachField(field_codec_internal::AnyEntry{}); };

/// Number of entries in `T`'s list (for the tripwires).
template <Listed T>
constexpr size_t FieldCount() {
  size_t n = 0;
  T::ForEachField([&n](const char*, auto, auto...) { ++n; });
  return n;
}

template <Listed T>
void FoldFields(T* into, const T& from);

namespace field_codec_internal {
template <Listed T>
void FoldEntry(T* a, const T& b) {
  FoldFields(a, b);
}
template <typename T>
void FoldEntry(T* a, const T& b, Fold fold) {
  if constexpr (IsVector<T>::value) {
    if (a->size() < b.size()) a->resize(b.size());
    for (size_t i = 0; i < b.size(); ++i) FoldEntry(&(*a)[i], b[i], fold);
  } else {
    *a = fold == Fold::kSum ? *a + b : std::max(*a, b);
  }
}
}  // namespace field_codec_internal

/// Folds `from` into `*into` entry by entry: kSum adds, kMax keeps the
/// larger value. A nested list folds by its own entries, a vector element
/// by element (the shorter side's missing elements count as zero).
template <Listed T>
void FoldFields(T* into, const T& from) {
  T::ForEachField([&](const char*, auto member, auto... fold) {
    field_codec_internal::FoldEntry(&(into->*member), from.*member, fold...);
  });
}

/// Visits every number in `v`'s list, in list order, as f(path, value),
/// descending into nested lists: a nested entry's path is
/// "<entry>.<member>". Vectors hold no leaves.
template <Listed T, typename F>
void ForEachLeaf(const T& v, F&& f, const std::string& prefix = "") {
  T::ForEachField([&](const char* name, auto member, auto...) {
    const auto& m = v.*member;
    using M = std::remove_cvref_t<decltype(m)>;
    if constexpr (Listed<M>) {
      ForEachLeaf(m, f, prefix + name + ".");
    } else if constexpr (std::is_arithmetic_v<M>) {
      f(prefix + name, m);
    }
  });
}

// -- Put/Get: one pair per wire type ----------------------------------------
//
// Integers are varints (zig-zag when signed), bool and enums one byte,
// doubles their 8 raw bytes. Strings, byte blobs and vectors carry a
// varint count first; pairs and listed structs are their parts in order.

template <typename T>
  requires std::is_enum_v<T> || std::is_same_v<T, bool>
void Put(ByteWriter* w, T v) {
  w->Write<uint8_t>(static_cast<uint8_t>(v));
}
template <std::integral T>
  requires(!std::is_same_v<T, bool>)
void Put(ByteWriter* w, T v) {
  if constexpr (std::is_signed_v<T>) {
    w->WriteVarI64(v);
  } else {
    w->WriteVarU64(v);
  }
}
inline void Put(ByteWriter* w, double v) { w->Write<double>(v); }
inline void Put(ByteWriter* w, const std::string& v) { w->WriteString(v); }
inline void Put(ByteWriter* w, const std::vector<uint8_t>& v) {
  w->WriteVarU64(v.size());
  w->WriteBytes(v.data(), v.size());
}
template <typename T>
void Put(ByteWriter* w, const std::vector<T>& v) {
  w->WriteVarU64(v.size());
  for (const T& x : v) Put(w, x);
}
template <typename A, typename B>
void Put(ByteWriter* w, const std::pair<A, B>& v) {
  Put(w, v.first);
  Put(w, v.second);
}
template <Listed T>
void Put(ByteWriter* w, const T& v) {
  T::ForEachField(
      [&](const char*, auto member, auto...) { Put(w, v.*member); });
}

template <typename T>
  requires std::is_enum_v<T> || std::is_same_v<T, bool>
void Get(ByteReader* r, T* v) {
  *v = static_cast<T>(r->Read<uint8_t>());
}
template <std::integral T>
  requires(!std::is_same_v<T, bool>)
void Get(ByteReader* r, T* v) {
  if constexpr (std::is_signed_v<T>) {
    *v = static_cast<T>(r->ReadVarI64());
  } else {
    *v = static_cast<T>(r->ReadVarU64());
  }
}
inline void Get(ByteReader* r, double* v) { *v = r->Read<double>(); }
inline void Get(ByteReader* r, std::string* v) { *v = r->ReadString(); }
inline void Get(ByteReader* r, std::vector<uint8_t>* v) {
  v->resize(r->ReadVarU64());
  r->ReadBytes(v->data(), v->size());
}
template <typename T>
void Get(ByteReader* r, std::vector<T>* v) {
  v->resize(r->ReadVarU64());
  for (T& x : *v) Get(r, &x);
}
template <typename A, typename B>
void Get(ByteReader* r, std::pair<A, B>* v) {
  Get(r, &v->first);
  Get(r, &v->second);
}
template <Listed T>
void Get(ByteReader* r, T* v) {
  T::ForEachField(
      [&](const char*, auto member, auto...) { Get(r, &(v->*member)); });
}

/// `v` as a standalone byte blob (e.g. a workload's params in a JobSpec).
template <typename T>
std::vector<uint8_t> EncodeBytes(const T& v) {
  ByteWriter w;
  Put(&w, v);
  return w.TakeBuffer();
}

/// Decodes a blob written by EncodeBytes; aborts unless it ends exactly
/// where the value does.
template <typename T>
T DecodeBytes(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes.data(), bytes.size());
  T v;
  Get(&r, &v);
  DECA_CHECK(r.position() == bytes.size())
      << "a " << bytes.size() << "-byte blob decoded as " << r.position()
      << " bytes";
  return v;
}

}  // namespace deca

#endif  // DECA_COMMON_FIELD_CODEC_H_
