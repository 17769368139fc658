#ifndef DECA_SPARK_KEYED_SHUFFLE_H_
#define DECA_SPARK_KEYED_SHUFFLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/logging.h"
#include "jvm/heap.h"
#include "net/wire.h"
#include "spark/context.h"
#include "spark/record_decl.h"
#include "spark/record_ops.h"
#include "spark/shuffle.h"

namespace deca::spark {

/// Whether a task's keyed shuffle holds decomposed entries: the context's
/// deca_shuffle (paper Section 4.2 treats shuffle buffers as one container
/// class), which the wire codec's kAuto also reads. No caller restates it.
inline bool DecomposedShuffle(TaskContext& tc) {
  return tc.context()->config().deca_shuffle;
}

template <typename K, typename V>
class KeyedShuffleWriter;
template <typename K, typename V>
class KeyedShuffleReader;

/// A task-local combine buffer of one declared (key, value) pair in the
/// context's form: decomposed fixed-size entries in pages
/// (DecaHashShuffleBuffer, paged at deca_page_bytes) or managed key/value
/// objects (ObjectHashShuffleBuffer). Insert takes value structs: it
/// stores the decomposed entry, or builds the pair's objects
/// (ShuffleType::BuildPair, no Tuple2). ForEach visits the combined
/// entries as values.
template <typename K, typename V>
class CombineBuffer {
 public:
  CombineBuffer(TaskContext& tc, const ShuffleType<K, V>& type)
      : heap_(tc.heap()), type_(type), key_bytes_(type.ops().deca_key_bytes) {
    if (DecomposedShuffle(tc)) {
      entries_ = std::make_unique<DecaHashShuffleBuffer>(
          heap_, &type.ops(), tc.context()->config().deca_page_bytes);
      scratch_.resize(key_bytes_ + type.ops().deca_value_bytes);
    } else {
      objects_ = std::make_unique<ObjectHashShuffleBuffer>(heap_, &type.ops());
    }
  }

  void Insert(const K& key, const V& value) {
    Add(key, value, /*wrap=*/false, [] {});
  }

  /// `visit(const K&, const V&)` for every combined entry, in the
  /// buffer's own ForEach order (so float folds are the same in every
  /// mode). It may not allocate.
  template <typename Visitor>
  void ForEach(Visitor&& visit) const {
    K k{};
    V v{};
    ForEachStored(
        [&](const uint8_t* entry) {
          type_.key().Load(entry, &k);
          type_.value().Load(entry + key_bytes_, &v);
          visit(k, v);
        },
        [&](jvm::ObjRef kr, jvm::ObjRef vr) {
          type_.key().Read(heap_, kr, &k);
          type_.value().Read(heap_, vr, &v);
          visit(k, v);
        });
  }

 private:
  friend class KeyedShuffleWriter<K, V>;
  friend class KeyedShuffleReader<K, V>;

  /// Combines one pair; with `wrap`, its objects come wrapped in the
  /// map UDF's Tuple2 (BuildPair). `then()` runs after the insert while
  /// an object pair is still rooted, so a collection that `then()` starts
  /// (the writer's drain and Clear) keeps the pair alive.
  template <typename Then>
  void Add(const K& key, const V& value, bool wrap, Then&& then) {
    if (entries_ != nullptr) {
      type_.key().Store(scratch_.data(), key);
      type_.value().Store(scratch_.data() + key_bytes_, value);
      entries_->Insert(scratch_.data(), scratch_.data() + key_bytes_);
      then();
      return;
    }
    type_.BuildPair(
        heap_, key, value,
        [&](jvm::ObjRef k, jvm::ObjRef v) {
          objects_->Insert(k, v);
          then();
        },
        wrap);
  }

  /// The entries as stored, in ForEach order: `entry(const uint8_t*)`
  /// gets each decomposed entry (key bytes, then value bytes),
  /// `pair(ObjRef, ObjRef)` each object pair. Neither may allocate.
  template <typename Entry, typename Pair>
  void ForEachStored(Entry&& entry, Pair&& pair) const {
    if (entries_ != nullptr) {
      entries_->ForEach(entry);
    } else {
      objects_->ForEach(pair);
    }
  }

  uint64_t estimated_bytes() const {
    return entries_ != nullptr ? entries_->estimated_bytes()
                               : objects_->estimated_bytes();
  }
  void Clear() {
    if (entries_ != nullptr) {
      entries_->Clear();
    } else {
      objects_->Clear();
    }
  }

  jvm::Heap* heap_;
  const ShuffleType<K, V>& type_;
  uint32_t key_bytes_;
  std::unique_ptr<DecaHashShuffleBuffer> entries_;
  std::unique_ptr<ObjectHashShuffleBuffer> objects_;
  std::vector<uint8_t> scratch_;  // one decomposed entry
};

namespace keyed_internal {

/// The untyped map-side output of one keyed shuffle for one task: a byte
/// chunk per reducer, and the record boundaries the wire codec frames.
class ChunkWriter {
 public:
  ChunkWriter(TaskContext& tc, int shuffle_id, const ShuffleOps& ops);
  /// Copies one decomposed entry as it is into its reducer's chunk.
  void AddEntry(const uint8_t* entry);
  /// Serializes one object pair into its reducer's chunk under `ser_ms`
  /// and logs the record's length.
  void AddPair(jvm::ObjRef key, jvm::ObjRef value);
  /// Deposits every reducer's chunk under `shuffle_write_ms`.
  void Deposit();

 private:
  TaskContext& tc_;
  int shuffle_id_;
  const ShuffleOps& ops_;
  std::vector<ByteWriter> outs_;
  std::vector<net::ChunkMeta> metas_;
};

/// The chunks one reducer receives in one keyed shuffle, fetched once and
/// walked in map-partition order.
class ChunkReader {
 public:
  ChunkReader(TaskContext& tc, int shuffle_id, const ShuffleOps& ops);
  /// Decomposed chunks: every entry's key and value bytes under
  /// `shuffle_read_ms`. The bytes are native, so `fn` may allocate.
  /// Aborts, naming the shuffle, reducer and sizes, when a chunk does not
  /// hold a whole number of entries.
  void ForEachEntry(
      const std::function<void(const uint8_t* key, const uint8_t* value)>& fn)
      const;
  /// Object chunks: deserializes every (key, value) record under
  /// `deser_ms` and visits it while both refs are rooted in the record's
  /// own HandleScope.
  void ForEachRecord(
      const std::function<void(jvm::ObjRef key, jvm::ObjRef value)>& fn) const;

 private:
  TaskContext& tc_;
  int shuffle_id_;
  const ShuffleOps& ops_;
  const std::vector<std::vector<uint8_t>>& chunks_;
};

}  // namespace keyed_internal

/// Map side of one keyed shuffle of a declared pair for one task,
/// modelled on Spark's Aggregator over an ExternalAppendOnlyMap. The
/// writer combines every Emit in its own CombineBuffer and drains it
/// whenever its footprint outgrows the context's shuffle_budget_bytes(),
/// and once more at Finish. A drain hash-partitions every entry into its
/// reducer's chunk: decomposed entries are copied as they are (a fixed
/// record stride), object pairs are serialized under `ser_ms` with each
/// record's length logged, so the wire's record codec can frame them.
/// Finish deposits every reducer's chunk under `shuffle_write_ms`. Form,
/// page size, budget and reducer count come from the task's context.
template <typename K, typename V>
class KeyedShuffleWriter {
 public:
  KeyedShuffleWriter(TaskContext& tc, int shuffle_id,
                     const ShuffleType<K, V>& type)
      : budget_(tc.context()->config().shuffle_budget_bytes()),
        out_(tc, shuffle_id, type.ops()),
        buf_(std::in_place, tc, type) {}

  /// Combines one pair: stored as its decomposed entry, or built as the
  /// map UDF's objects (BuildPair, Tuple2 included).
  void Emit(const K& key, const V& value) {
    buf_->Add(key, value, /*wrap=*/true, [this] {
      if (buf_->estimated_bytes() <= budget_) return;
      Drain();
      buf_->Clear();
    });
  }

  /// Drains the buffer a last time, frees it, and deposits every
  /// reducer's chunk. Call once, after the last Emit.
  void Finish() {
    Drain();
    buf_.reset();
    out_.Deposit();
  }

 private:
  void Drain() {
    buf_->ForEachStored(
        [this](const uint8_t* entry) { out_.AddEntry(entry); },
        [this](jvm::ObjRef k, jvm::ObjRef v) { out_.AddPair(k, v); });
  }

  size_t budget_;
  keyed_internal::ChunkWriter out_;
  std::optional<CombineBuffer<K, V>> buf_;
};

/// Reduce side of one keyed shuffle of a declared pair for one task:
/// fetches the chunks its partition receives once, then visits them in
/// map-partition order in the form the map side wrote, the context's.
template <typename K, typename V>
class KeyedShuffleReader {
 public:
  KeyedShuffleReader(TaskContext& tc, int shuffle_id,
                     const ShuffleType<K, V>& type)
      : tc_(tc),
        type_(type),
        decomposed_(DecomposedShuffle(tc)),
        chunks_(tc, shuffle_id, type.ops()) {}

  /// The reduce-side combine: a CombineBuffer takes every fetched pair,
  /// then `visit(const K&, const V&)` gets the combined entries in the
  /// buffer's ForEach order; it may not allocate. The buffer is freed on
  /// return.
  template <typename Visitor>
  void ForEachCombined(Visitor&& visit) const {
    CombineBuffer<K, V> buf(tc_, type_);
    ForEachStored(
        [&](const uint8_t* k, const uint8_t* v) { buf.entries_->Insert(k, v); },
        [&](jvm::ObjRef k, jvm::ObjRef v) { buf.objects_->Insert(k, v); });
    buf.ForEach(visit);
  }

  /// Every fetched pair, uncombined: `visit(const K&, const V&)` gets each
  /// as values and may allocate.
  template <typename Visitor>
  void ForEachPair(Visitor&& visit) const {
    K k{};
    V v{};
    jvm::Heap* h = tc_.heap();
    ForEachStored(
        [&](const uint8_t* kp, const uint8_t* vp) {
          type_.key().Load(kp, &k);
          type_.value().Load(vp, &v);
          visit(k, v);
        },
        [&](jvm::ObjRef kr, jvm::ObjRef vr) {
          type_.key().Read(h, kr, &k);
          type_.value().Read(h, vr, &v);
          visit(k, v);
        });
  }

  /// Object chunks as the deserialized pairs themselves, each rooted for
  /// the visit (graph's groupBy feeds them to an ObjectGroupByBuffer).
  void ForEachRecord(
      const std::function<void(jvm::ObjRef key, jvm::ObjRef value)>& fn)
      const {
    DECA_CHECK(!decomposed_) << "ForEachRecord reads object chunks";
    chunks_.ForEachRecord(fn);
  }

 private:
  template <typename Entry, typename Pair>
  void ForEachStored(Entry&& entry, Pair&& pair) const {
    if (decomposed_) {
      chunks_.ForEachEntry(entry);
    } else {
      chunks_.ForEachRecord(pair);
    }
  }

  TaskContext& tc_;
  const ShuffleType<K, V>& type_;
  bool decomposed_;
  keyed_internal::ChunkReader chunks_;
};

}  // namespace deca::spark

#endif  // DECA_SPARK_KEYED_SHUFFLE_H_
