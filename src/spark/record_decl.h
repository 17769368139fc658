#ifndef DECA_SPARK_RECORD_DECL_H_
#define DECA_SPARK_RECORD_DECL_H_

// One declaration per fixed-size record type: one description of a UDT
// drives both its decomposed layout and the code that reads it (paper
// Sections 3-5, Appendix B). A plain value struct lists each field once:
//
//   struct ClusterStat {
//     int64_t count = 0;
//     std::vector<double> sums;  // length set when the type is registered
//
//     static constexpr const char* kHeapClass = "ClusterStat";
//     template <typename F>
//     static constexpr void ForEachRecordField(F&& f) {
//       using Self = ClusterStat;
//       DECA_PRIM(count, kVarint, kVar);
//       DECA_ARRAY(sums, kFixed, kVar);
//     }
//   };
//
// An entry is a primitive, a fixed-length array (std::array<E, N>, or a
// std::vector<E> whose length is set at registration), a nested declared
// record, or a constant that only the heap object holds (DenseVector's
// offset, stride and length). Each gives its final flag (kVal or kVar)
// and its Kryo encoding: a primitive is a zig-zag varint or raw bytes, an
// array its raw elements, counted by an unsigned varint or not.
// `kHeapClass` names the managed class; "java.lang.Long" and
// "java.lang.Double" are the preregistered boxes.
//
// RecordType generates the rest: the heap class and its offsets, the
// analysis TypeUniverse entry, the object graph (Build allocates each
// array and nested record, in list order, before its own instance), the
// Kryo codec, the decomposed record at packed list-order offsets,
// managed_bytes as a sum of ClassInfo::ObjectBytes, and the RecordOps.
// ShuffleType pairs two declarations with one combine written over value
// structs and generates the ShuffleOps.

#include <array>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/udt_type.h"
#include "common/bytes.h"
#include "common/logging.h"
#include "core/sudt_layout.h"
#include "jvm/heap.h"
#include "spark/record_ops.h"

#define DECA_RECORD_FIELD(shape, member, enc, fin)                     \
  f(::deca::spark::MakeField<::deca::spark::Shape::shape>(             \
      #member, &Self::member, ::deca::spark::Enc::enc, ::deca::spark::fin))
#define DECA_PRIM(member, enc, fin) DECA_RECORD_FIELD(kPrim, member, enc, fin)
#define DECA_ARRAY(member, enc, fin) DECA_RECORD_FIELD(kArray, member, enc, fin)
#define DECA_NESTED(member, fin) DECA_RECORD_FIELD(kNested, member, kRaw, fin)
/// A constant `type` field: in the heap object only.
#define DECA_CONST(name, type, value, fin) \
  f(::deca::spark::ConstField<type>{#name, value, false, ::deca::spark::fin})
/// An int constant equal to the record's registered array length.
#define DECA_LENGTH(name, fin) \
  f(::deca::spark::ConstField<int32_t>{#name, 0, true, ::deca::spark::fin})

namespace deca::spark {

/// How Kryo writes one field.
enum class Enc : uint8_t {
  kVarint,   // zig-zag varint (integral primitives)
  kRaw,      // the value's native bytes
  kCounted,  // array: an unsigned varint element count, then raw elements
  kFixed,    // array: the raw elements alone
};

/// A final field (a Scala val) or an assignable one.
inline constexpr bool kVal = true;
inline constexpr bool kVar = false;

enum class Shape : uint8_t { kPrim, kArray, kNested, kConst };

template <Shape S, typename R, typename M>
struct Field {
  static constexpr Shape kShape = S;
  using Member = M;
  const char* name;
  M R::*member;
  Enc enc;
  bool is_final;
};

template <Shape S, typename R, typename M>
constexpr Field<S, R, M> MakeField(const char* name, M R::*member, Enc enc,
                                   bool is_final) {
  return {name, member, enc, is_final};
}

template <typename T>
struct ConstField {
  static constexpr Shape kShape = Shape::kConst;
  const char* name;
  T value;
  bool is_length;
  bool is_final;
};

namespace record_internal {

struct AnyField {
  template <typename E>
  constexpr void operator()(E) const {}
};

template <typename T>
constexpr jvm::FieldKind KindOf() {
  if constexpr (std::is_same_v<T, uint8_t>) {
    return jvm::FieldKind::kByte;
  } else if constexpr (std::is_same_v<T, int32_t>) {
    return jvm::FieldKind::kInt;
  } else if constexpr (std::is_same_v<T, int64_t>) {
    return jvm::FieldKind::kLong;
  } else {
    static_assert(std::is_same_v<T, double>, "unsupported field type");
    return jvm::FieldKind::kDouble;
  }
}

/// An array member's element type and compile-time length (0: set at
/// registration).
template <typename A>
struct Array;
template <typename E>
struct Array<std::vector<E>> {
  using Elem = E;
  static constexpr uint32_t kLength = 0;
};
template <typename E, size_t N>
struct Array<std::array<E, N>> {
  using Elem = E;
  static constexpr uint32_t kLength = N;
};

template <typename E>
using ElemOf = typename Array<typename E::Member>::Elem;

}  // namespace record_internal

/// A value struct with a record declaration.
template <typename R>
concept Declared = requires {
  { R::kHeapClass } -> std::convertible_to<const char*>;
  R::ForEachRecordField(record_internal::AnyField{});
};

/// The registered facts of one declared record type, indexed by entry in
/// list order.
struct RecordLayout {
  uint32_t class_id = 0;
  std::vector<uint32_t> offsets;     // each entry's payload offset
  std::vector<uint32_t> lengths;     // array entries: element count
  std::vector<uint32_t> classes;     // array entries: the array class
  std::vector<RecordLayout> nested;  // nested entries: their layout
  uint32_t length = 0;               // the length set at registration
  uint64_t managed_bytes = 0;        // one object graph, headers in
  uint32_t decomposed_bytes = 0;     // one decomposed record
};

namespace record_internal {

inline constexpr size_t kMaxEntries = 8;

/// Finds `name` (a preregistered box, or a class another declaration
/// registered) or registers it; a found class must have `fields`.
uint32_t FindOrRegisterClass(
    jvm::ClassRegistry* registry, const char* name,
    const std::vector<std::pair<std::string, jvm::FieldKind>>& fields);
uint32_t ArrayClassOf(const jvm::ClassRegistry& registry, jvm::FieldKind elem);
/// "Array[Double]" and the like: an array type's analysis name.
std::string ArrayTypeName(jvm::FieldKind elem);

template <Declared R>
RecordLayout Register(jvm::ClassRegistry* registry, uint32_t length) {
  RecordLayout lay;
  lay.length = length;
  std::vector<std::pair<std::string, jvm::FieldKind>> fields;
  R::ForEachRecordField([&](auto e) {
    using E = decltype(e);
    lay.lengths.push_back(0);
    lay.classes.push_back(0);
    lay.nested.emplace_back();
    jvm::FieldKind kind = jvm::FieldKind::kRef;
    if constexpr (E::kShape == Shape::kPrim) {
      kind = KindOf<typename E::Member>();
      lay.decomposed_bytes += sizeof(typename E::Member);
    } else if constexpr (E::kShape == Shape::kArray) {
      constexpr uint32_t kFixedLength = Array<typename E::Member>::kLength;
      uint32_t n = kFixedLength != 0 ? kFixedLength : length;
      DECA_CHECK_GT(n, 0u) << R::kHeapClass << "." << e.name
                           << " needs a length at registration";
      lay.lengths.back() = n;
      lay.classes.back() = ArrayClassOf(*registry, KindOf<ElemOf<E>>());
      lay.managed_bytes += registry->Get(lay.classes.back()).ObjectBytes(n);
      lay.decomposed_bytes += n * static_cast<uint32_t>(sizeof(ElemOf<E>));
    } else if constexpr (E::kShape == Shape::kNested) {
      lay.nested.back() = Register<typename E::Member>(registry, length);
      lay.managed_bytes += lay.nested.back().managed_bytes;
      lay.decomposed_bytes += lay.nested.back().decomposed_bytes;
    } else {
      kind = KindOf<decltype(e.value)>();
    }
    fields.emplace_back(e.name, kind);
  });
  DECA_CHECK_LE(fields.size(), kMaxEntries) << R::kHeapClass;
  lay.class_id = FindOrRegisterClass(registry, R::kHeapClass, fields);
  const jvm::ClassInfo& ci = registry->Get(lay.class_id);
  lay.managed_bytes += ci.ObjectBytes(0);
  for (const auto& f : ci.fields()) lay.offsets.push_back(f.offset);
  return lay;
}

/// Allocates `r`'s object graph: each array and nested record in list
/// order, every one rooted, then the instance, whose fields it sets.
template <Declared R>
jvm::ObjRef Build(jvm::Heap* h, const RecordLayout& lay, const R& r) {
  jvm::HandleScope scope(h);
  jvm::Handle refs[kMaxEntries];
  size_t i = 0;
  R::ForEachRecordField([&](auto e) {
    using E = decltype(e);
    if constexpr (E::kShape == Shape::kArray) {
      DECA_DCHECK_EQ((r.*e.member).size(), lay.lengths[i]) << e.name;
      refs[i] = scope.Make(h->AllocateArray(lay.classes[i], lay.lengths[i]));
      std::memcpy(h->ArrayData(refs[i].get()), (r.*e.member).data(),
                  sizeof(ElemOf<E>) * lay.lengths[i]);
    } else if constexpr (E::kShape == Shape::kNested) {
      refs[i] = scope.Make(Build(h, lay.nested[i], r.*e.member));
    }
    ++i;
  });
  jvm::ObjRef obj = h->AllocateInstance(lay.class_id);
  i = 0;
  R::ForEachRecordField([&](auto e) {
    using E = decltype(e);
    uint32_t off = lay.offsets[i];
    if constexpr (E::kShape == Shape::kPrim) {
      h->SetField(obj, off, r.*e.member);
    } else if constexpr (E::kShape == Shape::kConst) {
      using T = decltype(e.value);
      h->SetField<T>(obj, off,
                     e.is_length ? static_cast<T>(lay.length) : e.value);
    } else {
      h->SetRefField(obj, off, refs[i].get());
    }
    ++i;
  });
  return obj;
}

/// Visits the object graph at `obj` leaf by leaf, in list order:
/// `prim(entry, value)` and `array(entry, data, length)`. Allocates nothing.
template <Declared R, typename Prim, typename Arr>
void VisitObject(const jvm::Heap* h, const RecordLayout& lay, jvm::ObjRef obj,
                 Prim&& prim, Arr&& array) {
  size_t i = 0;
  R::ForEachRecordField([&](auto e) {
    using E = decltype(e);
    uint32_t off = lay.offsets[i];
    if constexpr (E::kShape == Shape::kPrim) {
      prim(e, h->GetField<typename E::Member>(obj, off));
    } else if constexpr (E::kShape == Shape::kArray) {
      array(e, h->ArrayData(h->GetRefField(obj, off)), lay.lengths[i]);
    } else if constexpr (E::kShape == Shape::kNested) {
      VisitObject<typename E::Member>(h, lay.nested[i],
                                      h->GetRefField(obj, off), prim, array);
    }
    ++i;
  });
}

/// The decomposed record's writer: raw values at consecutive offsets.
struct RawOut {
  uint8_t* p;
  template <typename T>
  void Write(T v) {
    StoreRaw(p, v);
    p += sizeof(T);
  }
  void WriteBytes(const uint8_t* data, size_t n) {
    std::memcpy(p, data, n);
    p += n;
  }
};

template <bool kKryo, typename T, typename Out>
void PutPrim(Out* out, T v, Enc enc) {
  if constexpr (kKryo && std::is_integral_v<T>) {
    if (enc == Enc::kVarint) return out->WriteVarI64(v);
  }
  out->template Write<T>(v);
}

/// Writes `r` as Kryo (kKryo) or as the decomposed record: the same leaves
/// in list order, the decomposed one all raw and uncounted.
template <bool kKryo, Declared R, typename Out>
void Encode(Out* out, const RecordLayout& lay, const R& r) {
  size_t i = 0;
  R::ForEachRecordField([&](auto e) {
    using E = decltype(e);
    if constexpr (E::kShape == Shape::kPrim) {
      PutPrim<kKryo>(out, r.*e.member, e.enc);
    } else if constexpr (E::kShape == Shape::kArray) {
      DECA_DCHECK_EQ((r.*e.member).size(), lay.lengths[i]) << e.name;
      if constexpr (kKryo) {
        if (e.enc == Enc::kCounted) out->WriteVarU64(lay.lengths[i]);
      }
      out->WriteBytes(reinterpret_cast<const uint8_t*>((r.*e.member).data()),
                      sizeof(ElemOf<E>) * lay.lengths[i]);
    } else if constexpr (E::kShape == Shape::kNested) {
      Encode<kKryo>(out, lay.nested[i], r.*e.member);
    }
    ++i;
  });
}

/// Reads what Encode<kKryo> wrote.
template <bool kKryo, Declared R>
void Decode(ByteReader* in, const RecordLayout& lay, R* r) {
  size_t i = 0;
  R::ForEachRecordField([&](auto e) {
    using E = decltype(e);
    if constexpr (E::kShape == Shape::kPrim) {
      using T = typename E::Member;
      if constexpr (kKryo && std::is_integral_v<T>) {
        if (e.enc == Enc::kVarint) {
          r->*e.member = static_cast<T>(in->ReadVarI64());
          ++i;
          return;
        }
      }
      r->*e.member = in->Read<T>();
    } else if constexpr (E::kShape == Shape::kArray) {
      auto& dst = r->*e.member;
      if constexpr (Array<typename E::Member>::kLength == 0) {
        dst.resize(lay.lengths[i]);
      }
      if (kKryo && e.enc == Enc::kCounted) {
        uint64_t n = in->ReadVarU64();
        DECA_CHECK_EQ(n, lay.lengths[i])
            << R::kHeapClass << "." << e.name << ": " << n
            << " elements where the type has " << lay.lengths[i];
      }
      in->ReadBytes(reinterpret_cast<uint8_t*>(dst.data()),
                    sizeof(ElemOf<E>) * lay.lengths[i]);
    } else if constexpr (E::kShape == Shape::kNested) {
      Decode<kKryo>(in, lay.nested[i], &(r->*e.member));
    }
    ++i;
  });
}

template <Declared R>
analysis::UdtType* DefineUdt(const RecordLayout& lay,
                             analysis::TypeUniverse* u,
                             core::LengthResolver* lengths,
                             std::set<std::string>* elided,
                             const std::string& prefix) {
  analysis::UdtType* t = u->DefineClass(R::kHeapClass);
  size_t i = 0;
  R::ForEachRecordField([&](auto e) {
    using E = decltype(e);
    const analysis::UdtType* type;
    if constexpr (E::kShape == Shape::kPrim) {
      type = u->Primitive(KindOf<typename E::Member>());
    } else if constexpr (E::kShape == Shape::kConst) {
      type = u->Primitive(KindOf<decltype(e.value)>());
      if (elided != nullptr) elided->insert(prefix + e.name);
    } else if constexpr (E::kShape == Shape::kArray) {
      jvm::FieldKind kind = KindOf<ElemOf<E>>();
      type = u->DefineArray(ArrayTypeName(kind), {u->Primitive(kind)});
      if (lengths != nullptr) lengths->SetFixedLength(t, e.name, lay.lengths[i]);
    } else {
      type = DefineUdt<typename E::Member>(lay.nested[i], u, lengths, elided,
                                           prefix + e.name + ".");
    }
    u->AddField(t, e.name, e.is_final, {type});
    ++i;
  });
  return t;
}

/// A key record's hash: its primitives' bits, each folded in with the
/// golden-ratio multiplier (a one-long key hashes as value * 0x9e37...).
template <Declared K>
uint64_t KeyHash(const K& k) {
  uint64_t h = 0;
  K::ForEachRecordField([&](auto e) {
    static_assert(decltype(e)::kShape == Shape::kPrim, "keys are primitive");
    uint64_t bits = 0;
    std::memcpy(&bits, &(k.*e.member), sizeof(k.*e.member));
    h = (h ^ bits) * 0x9e3779b97f4a7c15ULL;
  });
  return h;
}

template <Declared K>
bool KeyEquals(const K& a, const K& b) {
  bool eq = true;
  K::ForEachRecordField(
      [&](auto e) { eq = eq && a.*e.member == b.*e.member; });
  return eq;
}

}  // namespace record_internal

/// One declared record type registered in a class registry: its generated
/// object, Kryo and decomposed code, and the block store's RecordOps.
/// Cheap to copy: copies, and the RecordOps closures, share one layout.
template <Declared R>
class RecordType {
 public:
  /// Registers R's classes, or finds them. `length` is the length of R's
  /// std::vector arrays, nested records' included.
  explicit RecordType(jvm::ClassRegistry* registry, uint32_t length = 0)
      : lay_(std::make_shared<const RecordLayout>(
            record_internal::Register<R>(registry, length))),
        ops_(std::make_shared<RecordOps>()) {
    const std::shared_ptr<const RecordLayout> lay = lay_;
    const uint64_t managed = managed_bytes();
    ops_->managed_bytes = [managed](jvm::Heap*, jvm::ObjRef) {
      return managed;
    };
    ops_->serialize = [lay](jvm::Heap* h, jvm::ObjRef obj, ByteWriter* w) {
      Serialize(h, *lay, obj, w);
    };
    ops_->deserialize = [lay](jvm::Heap* h, ByteReader* r) {
      return Deserialize(h, *lay, r);
    };
  }

  uint32_t class_id() const { return lay_->class_id; }
  uint64_t managed_bytes() const { return lay_->managed_bytes; }
  uint32_t decomposed_bytes() const { return lay_->decomposed_bytes; }
  const RecordOps& ops() const { return *ops_; }

  /// A zero value whose std::vector arrays have their registered lengths.
  R Value() const {
    R r{};
    std::vector<uint8_t> zeros(decomposed_bytes());
    Load(zeros.data(), &r);
    return r;
  }

  /// Allocates `r`'s object graph (record_internal::Build); the caller
  /// roots the result.
  jvm::ObjRef Build(jvm::Heap* h, const R& r) const {
    return record_internal::Build(h, *lay_, r);
  }
  /// Copies the object graph at `obj` out (its decomposed record,
  /// loaded); allocates nothing on the heap.
  void Read(const jvm::Heap* h, jvm::ObjRef obj, R* r) const {
    thread_local std::vector<uint8_t> bytes;
    bytes.resize(decomposed_bytes());
    record_internal::RawOut raw{bytes.data()};
    record_internal::VisitObject<R>(
        h, *lay_, obj, [&](auto, auto v) { raw.Write(v); },
        [&](auto e, const uint8_t* data, uint32_t n) {
          raw.WriteBytes(data, n * sizeof(record_internal::ElemOf<decltype(e)>));
        });
    Load(bytes.data(), r);
  }
  /// Kryo of the object graph at `obj`, written straight from the heap.
  void Serialize(const jvm::Heap* h, jvm::ObjRef obj, ByteWriter* w) const {
    Serialize(h, *lay_, obj, w);
  }
  /// Kryo of the value `r`: the same bytes as Serialize of its graph.
  void Put(ByteWriter* w, const R& r) const {
    record_internal::Encode<true>(w, *lay_, r);
  }
  /// Reads one Kryo record into a fresh object graph, allocated as Build
  /// allocates it; the caller roots the result.
  jvm::ObjRef Deserialize(jvm::Heap* h, ByteReader* r) const {
    return Deserialize(h, *lay_, r);
  }
  /// The decomposed record: decomposed_bytes() at packed list-order
  /// offsets, the form Deca's pages and shuffle entries hold.
  void Store(uint8_t* out, const R& r) const {
    record_internal::RawOut raw{out};
    record_internal::Encode<false>(&raw, *lay_, r);
  }
  void Load(const uint8_t* in, R* r) const {
    ByteReader reader(in, decomposed_bytes());
    record_internal::Decode<false>(&reader, *lay_, r);
  }

  /// Defines R, its arrays and nested records in `u`. With `lengths`,
  /// records each array's registered length; with `elided`, the dotted
  /// path of each constant, which the decomposed layout leaves out.
  const analysis::UdtType* DefineUdt(
      analysis::TypeUniverse* u, core::LengthResolver* lengths = nullptr,
      std::set<std::string>* elided = nullptr) const {
    return record_internal::DefineUdt<R>(*lay_, u, lengths, elided, "");
  }

 private:
  static void Serialize(const jvm::Heap* h, const RecordLayout& lay,
                        jvm::ObjRef obj, ByteWriter* w) {
    record_internal::VisitObject<R>(
        h, lay, obj,
        [w](auto e, auto v) { record_internal::PutPrim<true>(w, v, e.enc); },
        [w](auto e, const uint8_t* data, uint32_t n) {
          if (e.enc == Enc::kCounted) w->WriteVarU64(n);
          w->WriteBytes(data, n * sizeof(record_internal::ElemOf<decltype(e)>));
        });
  }
  static jvm::ObjRef Deserialize(jvm::Heap* h, const RecordLayout& lay,
                                 ByteReader* r) {
    thread_local R scratch;
    record_internal::Decode<true>(r, lay, &scratch);
    return record_internal::Build(h, lay, scratch);
  }

  std::shared_ptr<const RecordLayout> lay_;
  std::shared_ptr<RecordOps> ops_;
};

/// A preregistered box, java.lang.Long or java.lang.Double, whose one
/// final `value` Kryo writes as `kEnc`.
template <typename T, Enc kEnc>
struct Box {
  T value = 0;

  static constexpr const char* kHeapClass =
      std::is_same_v<T, double> ? "java.lang.Double" : "java.lang.Long";
  template <typename F>
  static constexpr void ForEachRecordField(F&& f) {
    f(MakeField<Shape::kPrim>("value", &Box::value, kEnc, kVal));
  }
};
/// A count or a key: a zig-zag varint.
using Long = Box<int64_t, Enc::kVarint>;
/// 8 raw bytes (SQL's packed group key).
using RawLong = Box<int64_t, Enc::kRaw>;
using Double = Box<double, Enc::kRaw>;

/// Whether the map UDF wraps each (key, value) in a scala.Tuple2 that the
/// buffer then drops (WordCount's `(word, 1)`).
enum class Tuple2 : uint8_t { kNone, kWrapped };

/// A keyed shuffle's (key, value) declarations and its one combine, over
/// value structs: `combine(&agg, value)` merges `value` into `agg` (null
/// for a groupBy, which never combines). Generates the ShuffleOps: the
/// combine runs in place on page bytes, or builds a fresh aggregate per
/// merge on heap objects. Cheap to copy; copies share the ops.
template <Declared K, Declared V>
class ShuffleType {
 public:
  using Combine = void (*)(V* agg, const V& value);

  /// One address per instantiation, so the type-erased shuffle operators
  /// can check the pair they were built for.
  static inline const char kTag = 0;

  /// `value_length` is the length of V's std::vector arrays.
  ShuffleType(jvm::ClassRegistry* registry, Combine combine,
              Tuple2 tuple2 = Tuple2::kNone, uint32_t value_length = 0)
      : key_(registry),
        value_(registry, value_length),
        tuple2_cls_(tuple2 == Tuple2::kWrapped
                        ? record_internal::FindOrRegisterClass(
                              registry, "scala.Tuple2",
                              {{"_1", jvm::FieldKind::kRef},
                               {"_2", jvm::FieldKind::kRef}})
                        : 0),
        ops_(std::make_shared<ShuffleOps>()) {
    BuildOps(combine, tuple2_cls_ != 0
                          ? registry->Get(tuple2_cls_).ObjectBytes(0)
                          : 0);
  }

  const RecordType<K>& key() const { return key_; }
  const RecordType<V>& value() const { return value_; }
  const ShuffleOps& ops() const { return *ops_; }
  /// The scala.Tuple2 class (0 without a wrapper).
  uint32_t tuple2_class() const { return tuple2_cls_; }

  /// Builds the key's object graph, then the value's, then (with `wrap`
  /// and a wrapper) the scala.Tuple2 that holds them, and passes the pair,
  /// rooted, to `insert(key_ref, value_ref)`.
  template <typename Insert>
  void BuildPair(jvm::Heap* h, const K& k, const V& v, Insert&& insert,
                 bool wrap = false) const {
    jvm::HandleScope scope(h);
    jvm::Handle key = scope.Make(key_.Build(h, k));
    jvm::Handle value = scope.Make(value_.Build(h, v));
    if (!wrap || tuple2_cls_ == 0) return insert(key.get(), value.get());
    jvm::Handle tuple = scope.Make(h->AllocateInstance(tuple2_cls_));
    h->SetRefField(tuple.get(), 0, key.get());
    h->SetRefField(tuple.get(), 4, value.get());
    insert(h->GetRefField(tuple.get(), 0), h->GetRefField(tuple.get(), 4));
  }

  /// Defines the wrapper's scala.Tuple2, whose parts are vals (without a
  /// wrapper, the key) in `u`.
  const analysis::UdtType* DefineUdt(analysis::TypeUniverse* u) const {
    const analysis::UdtType* k = key_.DefineUdt(u);
    if (tuple2_cls_ == 0) return k;
    const analysis::UdtType* v =
        std::is_same_v<K, V> ? k : value_.DefineUdt(u);
    analysis::UdtType* t = u->DefineClass("scala.Tuple2");
    u->AddField(t, "_1", kVal, {k});
    u->AddField(t, "_2", kVal, {v});
    return t;
  }

 private:
  void BuildOps(Combine combine, uint64_t tuple_bytes) {
    ShuffleOps& ops = *ops_;
    ops.key_hash = [key = key_](jvm::Heap* h, jvm::ObjRef k) {
      K kv;
      key.Read(h, k, &kv);
      return record_internal::KeyHash(kv);
    };
    ops.key_equals = [key = key_](jvm::Heap* h, jvm::ObjRef a,
                                  jvm::ObjRef b) {
      K ka, kb;
      key.Read(h, a, &ka);
      key.Read(h, b, &kb);
      return record_internal::KeyEquals(ka, kb);
    };
    // Key, value and the wrapper's Tuple2, plus the table's slot pair.
    const uint64_t entry =
        key_.managed_bytes() + value_.managed_bytes() + tuple_bytes + 8;
    ops.entry_bytes = [entry](jvm::Heap*, jvm::ObjRef, jvm::ObjRef) {
      return entry;
    };
    ops.serialize_key = key_.ops().serialize;
    ops.serialize_value = value_.ops().serialize;
    ops.deserialize_key = key_.ops().deserialize;
    ops.deserialize_value = value_.ops().deserialize;
    ops.deca_key_bytes = key_.decomposed_bytes();
    ops.deca_value_bytes = value_.decomposed_bytes();
    ops.deca_key_hash = [key = key_](const uint8_t* p) {
      K kv;
      key.Load(p, &kv);
      return record_internal::KeyHash(kv);
    };
    if (combine == nullptr) return;
    // Both sides are read into values first, so no heap pointer is held
    // across the fresh aggregate's allocation.
    ops.combine = [value = value_, combine](jvm::Heap* h, jvm::ObjRef agg,
                                            jvm::ObjRef v) {
      thread_local V a, b;
      value.Read(h, agg, &a);
      value.Read(h, v, &b);
      combine(&a, b);
      return value.Build(h, a);
    };
    ops.deca_combine = [value = value_, combine](uint8_t* agg,
                                                 const uint8_t* v) {
      thread_local V a, b;
      value.Load(agg, &a);
      value.Load(v, &b);
      combine(&a, b);
      value.Store(agg, a);
    };
  }

  RecordType<K> key_;
  RecordType<V> value_;
  uint32_t tuple2_cls_;
  std::shared_ptr<ShuffleOps> ops_;
};

}  // namespace deca::spark

#endif  // DECA_SPARK_RECORD_DECL_H_
