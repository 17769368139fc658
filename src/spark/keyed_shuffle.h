#ifndef DECA_SPARK_KEYED_SHUFFLE_H_
#define DECA_SPARK_KEYED_SHUFFLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "jvm/heap.h"
#include "net/wire.h"
#include "spark/context.h"
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
};

/// Reduce side of one keyed shuffle for one task: fetches the chunks its
/// partition receives once, then visits them in map-partition order in
/// the form the map side wrote.
class KeyedShuffleReader {
 public:
  KeyedShuffleReader(TaskContext& tc, int shuffle_id, const ShuffleOps* ops);

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

  /// The reduce-side combine: builds `layout`'s hash buffer (page size
  /// from the task's context), inserts every fetched pair as above, then
  /// visits the combined entries in the buffer's own ForEach order, so
  /// float folds are the same in every mode. Decomposed entries go to
  /// `entry` as raw bytes (key immediately followed by value), object
  /// pairs to `pair`; neither visitor may allocate. The buffer is freed
  /// on return.
  void ForEachCombined(
      ShuffleLayout layout,
      const std::function<void(const uint8_t* entry)>& entry,
      const std::function<void(jvm::ObjRef key, jvm::ObjRef value)>& pair)
      const;

 private:
  TaskContext& tc_;
  int shuffle_id_;
  const ShuffleOps* ops_;
  const std::vector<std::vector<uint8_t>>& chunks_;
};

}  // namespace deca::spark

#endif  // DECA_SPARK_KEYED_SHUFFLE_H_
