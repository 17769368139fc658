#ifndef DECA_SPARK_RECORD_OPS_H_
#define DECA_SPARK_RECORD_OPS_H_

#include <cstdint>
#include <functional>

#include "common/bytes.h"
#include "jvm/heap.h"

namespace deca::spark {

/// Type-erased operations the block store needs over one cached record
/// type, in the form Spark gets from the JVM type system and Kryo
/// registrations. A declared record type generates them
/// (spark/record_decl.h); decomposed records need none, since the store
/// keeps their pages as bytes. Which form a block takes is the cache
/// level's choice, which ApplyMode sets from the run's mode flag.
struct RecordOps {
  /// Estimated managed-heap footprint of one record's object graph
  /// (headers included), for cache accounting.
  std::function<uint64_t(jvm::Heap*, jvm::ObjRef)> managed_bytes;

  /// Kryo-style compact binary serialization of one managed record.
  std::function<void(jvm::Heap*, jvm::ObjRef, ByteWriter*)> serialize;
  /// Rebuilds the managed object graph from serialized form.
  std::function<jvm::ObjRef(jvm::Heap*, ByteReader*)> deserialize;
};

/// Operations for shuffle key/value handling (hash-based buffers with
/// eager combining, paper Section 4.2). A declared (key, value) pair
/// generates them (spark::ShuffleType); the context's deca_shuffle picks
/// the object or the decomposed half.
struct ShuffleOps {
  // -- object (Spark) mode -------------------------------------------------
  std::function<uint64_t(jvm::Heap*, jvm::ObjRef)> key_hash;
  std::function<bool(jvm::Heap*, jvm::ObjRef, jvm::ObjRef)> key_equals;
  /// Eager combiner: merges `value` into `agg` and returns the new
  /// aggregate object. Like Spark's aggregator it may allocate a fresh
  /// object per merge (the temporary-object churn the paper measures).
  std::function<jvm::ObjRef(jvm::Heap*, jvm::ObjRef agg, jvm::ObjRef value)>
      combine;
  /// Estimated managed bytes of one (key, value) entry, for spill checks.
  std::function<uint64_t(jvm::Heap*, jvm::ObjRef, jvm::ObjRef)> entry_bytes;
  std::function<void(jvm::Heap*, jvm::ObjRef, ByteWriter*)> serialize_key;
  std::function<void(jvm::Heap*, jvm::ObjRef, ByteWriter*)> serialize_value;
  std::function<jvm::ObjRef(jvm::Heap*, ByteReader*)> deserialize_key;
  std::function<jvm::ObjRef(jvm::Heap*, ByteReader*)> deserialize_value;

  // -- decomposed (Deca) mode ----------------------------------------------
  /// Fixed decomposed sizes (SFST keys/values; 0 disables the Deca path).
  uint32_t deca_key_bytes = 0;
  uint32_t deca_value_bytes = 0;
  std::function<uint64_t(const uint8_t*)> deca_key_hash;
  /// In-place merge of a decomposed value into the aggregate segment —
  /// this is the paper's reuse of the old value's page segment, avoiding
  /// per-merge allocation entirely.
  std::function<void(uint8_t* agg, const uint8_t* value)> deca_combine;
};

}  // namespace deca::spark

#endif  // DECA_SPARK_RECORD_OPS_H_
