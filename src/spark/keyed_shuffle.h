#ifndef DECA_SPARK_KEYED_SHUFFLE_H_
#define DECA_SPARK_KEYED_SHUFFLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/bytes.h"
#include "jvm/heap.h"
#include "net/wire.h"
#include "spark/context.h"
#include "spark/record_decl.h"
#include "spark/record_ops.h"
#include "spark/shuffle.h"

namespace deca::spark {

/// The form of a keyed shuffle's combine buffer (paper Section 4.2 treats
/// shuffle buffers as one container class): managed key/value objects, or
/// decomposed fixed-size entries in pages.
enum class ShuffleLayout {
  kObjects,     // ObjectHashShuffleBuffer; pairs are serialized records
  kDecomposed,  // DecaHashShuffleBuffer; entries ship as raw bytes
};

/// A task-local combine buffer of one declared (key, value) pair in
/// `layout`'s form. Insert takes value structs: it stores the decomposed
/// entry, or builds the pair's objects (ShuffleType::BuildPair, no
/// Tuple2). ForEach visits the combined entries as values.
template <typename K, typename V>
class CombineBuffer {
 public:
  CombineBuffer(TaskContext& tc, const ShuffleType<K, V>& type,
                ShuffleLayout layout)
      : heap_(tc.heap()), type_(type), key_bytes_(type.ops().deca_key_bytes) {
    if (layout == ShuffleLayout::kDecomposed) {
      entries_ = std::make_unique<DecaHashShuffleBuffer>(
          heap_, &type.ops(), tc.context()->config().deca_page_bytes);
      scratch_.resize(key_bytes_ + type.ops().deca_value_bytes);
    } else {
      objects_ = std::make_unique<ObjectHashShuffleBuffer>(heap_, &type.ops());
    }
  }

  void Insert(const K& key, const V& value) {
    if (entries_ != nullptr) {
      type_.key().Store(scratch_.data(), key);
      type_.value().Store(scratch_.data() + key_bytes_, value);
      InsertEntry(scratch_.data(), scratch_.data() + key_bytes_);
      return;
    }
    type_.BuildPair(heap_, key, value,
                    [this](jvm::ObjRef k, jvm::ObjRef v) { InsertPair(k, v); });
  }
  /// A decomposed entry's key and value bytes; native memory, since an
  /// insert may GC.
  void InsertEntry(const uint8_t* key, const uint8_t* value) {
    entries_->Insert(key, value);
  }
  /// An object pair; both refs rooted by the caller.
  void InsertPair(jvm::ObjRef key, jvm::ObjRef value) {
    objects_->Insert(key, value);
  }

  /// `visit(const K&, const V&)` for every combined entry, in the
  /// buffer's own ForEach order (so float folds are the same in every
  /// mode). It may not allocate.
  template <typename Visitor>
  void ForEach(Visitor&& visit) const {
    K k{};
    V v{};
    if (entries_ != nullptr) {
      entries_->ForEach([&](const uint8_t* entry) {
        type_.key().Load(entry, &k);
        type_.value().Load(entry + key_bytes_, &v);
        visit(k, v);
      });
      return;
    }
    objects_->ForEach([&](jvm::ObjRef kr, jvm::ObjRef vr) {
      type_.key().Read(heap_, kr, &k);
      type_.value().Read(heap_, vr, &v);
      visit(k, v);
    });
  }

 private:
  jvm::Heap* heap_;
  const ShuffleType<K, V>& type_;
  uint32_t key_bytes_;
  std::unique_ptr<DecaHashShuffleBuffer> entries_;
  std::unique_ptr<ObjectHashShuffleBuffer> objects_;
  std::vector<uint8_t> scratch_;
};

namespace keyed_internal {
/// The (key, value) value types a typed pair visitor takes.
template <typename F>
struct PairArgs : PairArgs<decltype(&std::remove_cvref_t<F>::operator())> {};
template <typename C, typename R, typename A, typename B>
struct PairArgs<R (C::*)(A, B) const> {
  using Key = std::remove_cvref_t<A>;
  using Value = std::remove_cvref_t<B>;
};
template <typename C, typename R, typename A, typename B>
struct PairArgs<R (C::*)(A, B)> : PairArgs<R (C::*)(A, B) const> {};
}  // namespace keyed_internal

/// Map side of one keyed shuffle for one task, modelled on Spark's
/// Aggregator over an ExternalAppendOnlyMap. The writer owns the task's
/// combine buffer in `layout` and drains it whenever its footprint
/// outgrows the context's shuffle_budget_bytes(), and once more at
/// Finish. A drain hash-partitions every entry into its reducer's chunk:
/// decomposed entries are copied as they are (a fixed record stride),
/// object pairs are serialized under `ser_ms` with each record's length
/// logged, so the wire's record codec can frame them. Finish deposits
/// every reducer's chunk under `shuffle_write_ms`. Page size, budget and
/// reducer count come from the task's context.
class KeyedShuffleWriter {
 public:
  KeyedShuffleWriter(TaskContext& tc, int shuffle_id, const ShuffleOps* ops,
                     ShuffleLayout layout);
  /// A writer of a declared pair, which Emit takes as values.
  template <typename K, typename V>
  KeyedShuffleWriter(TaskContext& tc, int shuffle_id,
                     const ShuffleType<K, V>& type, ShuffleLayout layout)
      : KeyedShuffleWriter(tc, shuffle_id, &type.ops(), layout) {
    typed_ = &type;
    typed_tag_ = &ShuffleType<K, V>::kTag;
  }

  /// Combines one pair of the writer's declared type: stored as its
  /// decomposed entry, or built as the map UDF's objects (BuildPair,
  /// Tuple2 included).
  template <typename K, typename V>
  void Emit(const K& key, const V& value) {
    DECA_DCHECK((typed_tag_ == &ShuffleType<K, V>::kTag));
    const auto& type = *static_cast<const ShuffleType<K, V>*>(typed_);
    if (entries_ != nullptr) {
      uint8_t* v = scratch_.data() + ops_->deca_key_bytes;
      type.key().Store(scratch_.data(), key);
      type.value().Store(v, value);
      Insert(scratch_.data(), v);
      return;
    }
    type.BuildPair(
        tc_.heap(), key, value,
        [this](jvm::ObjRef k, jvm::ObjRef v) { Insert(k, v); },
        /*wrap=*/true);
  }

  /// Object layout: combines (key, value) into the buffer. Both refs must
  /// be rooted by the caller.
  void Insert(jvm::ObjRef key, jvm::ObjRef value);
  /// Decomposed layout: combines raw key and value bytes, which must not
  /// live in the managed heap (an insert may move pages).
  void Insert(const uint8_t* key, const uint8_t* value);

  /// Drains the buffer a last time, frees it, and deposits every
  /// reducer's chunk. Call once, after the last Insert.
  void Finish();

 private:
  void Drain();

  TaskContext& tc_;
  int shuffle_id_;
  const ShuffleOps* ops_;
  size_t budget_;
  std::unique_ptr<ObjectHashShuffleBuffer> objects_;
  std::unique_ptr<DecaHashShuffleBuffer> entries_;
  std::vector<ByteWriter> outs_;
  std::vector<net::ChunkMeta> metas_;
  std::vector<uint8_t> scratch_;  // one decomposed entry, for Emit
  const void* typed_ = nullptr;   // the declared ShuffleType, if any
  const void* typed_tag_ = nullptr;
};

/// Reduce side of one keyed shuffle for one task: fetches the chunks its
/// partition receives once, then visits them in map-partition order in
/// the form the map side wrote.
class KeyedShuffleReader {
 public:
  KeyedShuffleReader(TaskContext& tc, int shuffle_id, const ShuffleOps* ops);
  /// A reader of a declared pair, whose visitors take values.
  template <typename K, typename V>
  KeyedShuffleReader(TaskContext& tc, int shuffle_id,
                     const ShuffleType<K, V>& type)
      : KeyedShuffleReader(tc, shuffle_id, &type.ops()) {
    typed_ = &type;
    typed_tag_ = &ShuffleType<K, V>::kTag;
  }

  /// Decomposed chunks: visits every entry's key and value bytes under
  /// `shuffle_read_ms`. The bytes are native, so `fn` may allocate. Aborts,
  /// naming the shuffle, reducer and sizes, when the entry width is zero
  /// or a chunk does not hold a whole number of entries.
  void ForEachEntry(
      const std::function<void(const uint8_t* key, const uint8_t* value)>& fn)
      const;

  /// Object chunks: deserializes every (key, value) record under
  /// `deser_ms` and visits it while both refs are rooted in the record's
  /// own HandleScope.
  void ForEachRecord(
      const std::function<void(jvm::ObjRef key, jvm::ObjRef value)>& fn) const;

  /// The reduce-side combine of the reader's declared pair: a
  /// CombineBuffer in `layout`'s form takes every fetched pair as above,
  /// then `visit(const K&, const V&)` gets the combined entries in the
  /// buffer's ForEach order; it may not allocate. The buffer is freed on
  /// return.
  template <typename Visitor>
  void ForEachCombined(ShuffleLayout layout, Visitor&& visit) const {
    using Args = keyed_internal::PairArgs<Visitor>;
    CombineBuffer buf(tc_, Typed<typename Args::Key, typename Args::Value>(),
                      layout);
    if (layout == ShuffleLayout::kDecomposed) {
      ForEachEntry([&](const uint8_t* k, const uint8_t* v) {
        buf.InsertEntry(k, v);
      });
    } else {
      ForEachRecord(
          [&](jvm::ObjRef k, jvm::ObjRef v) { buf.InsertPair(k, v); });
    }
    buf.ForEach(visit);
  }

  /// Every fetched pair of the declared type, uncombined, in the form
  /// `layout` wrote it: `visit(const K&, const V&)` gets each as values
  /// and may allocate.
  template <typename Visitor>
  void ForEachPair(ShuffleLayout layout, Visitor&& visit) const {
    using Args = keyed_internal::PairArgs<Visitor>;
    typename Args::Key k{};
    typename Args::Value v{};
    const auto& type = Typed<typename Args::Key, typename Args::Value>();
    if (layout == ShuffleLayout::kDecomposed) {
      ForEachEntry([&](const uint8_t* kp, const uint8_t* vp) {
        type.key().Load(kp, &k);
        type.value().Load(vp, &v);
        visit(k, v);
      });
      return;
    }
    jvm::Heap* h = tc_.heap();
    ForEachRecord([&](jvm::ObjRef kr, jvm::ObjRef vr) {
      type.key().Read(h, kr, &k);
      type.value().Read(h, vr, &v);
      visit(k, v);
    });
  }

 private:
  template <typename K, typename V>
  const ShuffleType<K, V>& Typed() const {
    DECA_DCHECK((typed_tag_ == &ShuffleType<K, V>::kTag));
    return *static_cast<const ShuffleType<K, V>*>(typed_);
  }

  TaskContext& tc_;
  int shuffle_id_;
  const ShuffleOps* ops_;
  const std::vector<std::vector<uint8_t>>& chunks_;
  const void* typed_ = nullptr;  // the declared ShuffleType, if any
  const void* typed_tag_ = nullptr;
};

}  // namespace deca::spark

#endif  // DECA_SPARK_KEYED_SHUFFLE_H_
