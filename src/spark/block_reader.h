#ifndef DECA_SPARK_BLOCK_READER_H_
#define DECA_SPARK_BLOCK_READER_H_

#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "core/page.h"
#include "jvm/heap.h"
#include "spark/block_store.h"
#include "spark/context.h"
#include "spark/record_ops.h"

namespace deca::spark {

/// Visits every record of one cache block from CacheManager::Get, in
/// block order, whatever form the block store holds it in. The task sees
/// records, not storage levels; only this function knows how each of the
/// three cached forms is read.
///
/// - kDecaPages: `raw(const uint8_t* record)` gets each decomposed
///   record's bytes, valid until the next managed allocation, and returns
///   the record's length in bytes (adjacency records vary in size).
///   `raw` is a template argument, so the page scan makes no indirect
///   call per record.
/// - kMemoryObjects: `object(jvm::ObjRef record)` gets each element of
///   the block's Object[], which stays rooted for the whole scan.
/// - kMemorySerialized: the Kryo byte[] stays rooted for the whole scan
///   and is read through a RecordCursor over a native snapshot, because
///   deserializing allocates and may move the array. `object` gets each
///   record as it is deserialized; only the deserialize call is timed
///   (`deser_ms`).
///
/// In both object forms `object` receives its record unrooted. A visitor
/// that allocates while it still needs the record roots it in its own
/// HandleScope.
template <typename RawVisitor, typename ObjectVisitor>
void ForEachCachedRecord(TaskContext& tc, const LoadedBlock& block,
                         const RecordOps& ops, RawVisitor&& raw,
                         ObjectVisitor&& object) {
  jvm::Heap* h = tc.heap();
  jvm::HandleScope scope(h);
  switch (block.level) {
    case StorageLevel::kDecaPages: {
      core::PageScanner scan(block.pages.get());
      while (!scan.AtEnd()) scan.Advance(raw(scan.Cur()));
      return;
    }
    case StorageLevel::kMemoryObjects: {
      jvm::Handle records = scope.Make(block.object_array);
      for (uint32_t i = 0; i < block.count; ++i) {
        object(h->GetRefElem(records.get(), i));
      }
      return;
    }
    case StorageLevel::kMemorySerialized: {
      jvm::Handle bytes = scope.Make(block.serialized);
      const uint8_t* data = h->ArrayData(bytes.get());
      std::vector<uint8_t> snapshot(data, data + h->ArrayLength(bytes.get()));
      RecordCursor cursor(&ops, h, snapshot.data(), snapshot.size(),
                          block.count);
      while (!cursor.done()) {
        jvm::ObjRef record;
        {
          ScopedTimerMs t(&tc.metrics().deser_ms);
          record = cursor.Next();
        }
        object(record);
      }
      return;
    }
  }
}

}  // namespace deca::spark

#endif  // DECA_SPARK_BLOCK_READER_H_
