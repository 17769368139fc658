#ifndef DECA_SPARK_BLOCK_READER_H_
#define DECA_SPARK_BLOCK_READER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "core/page.h"
#include "jvm/heap.h"
#include "spark/block_store.h"
#include "spark/context.h"
#include "spark/record_decl.h"
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
///   and is deserialized record by record from a native snapshot,
///   because deserializing allocates and may move the array. `object`
///   gets each record as it is deserialized; only the deserialize call is
///   timed (`deser_ms`).
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
      ByteReader reader(snapshot.data(), snapshot.size());
      for (uint32_t i = 0; i < block.count; ++i) {
        jvm::ObjRef record;
        {
          ScopedTimerMs t(&tc.metrics().deser_ms);
          record = ops.deserialize(h, &reader);
        }
        object(record);
      }
      return;
    }
  }
}

/// ForEachCachedRecord over a declared record type: `visit(const R&)` gets
/// every record as a value, loaded from its page bytes or read out of its
/// object graph. The value is a copy, so the visitor may allocate.
template <typename R, typename Visitor>
void ForEachCachedRecord(TaskContext& tc, const LoadedBlock& block,
                         const RecordType<R>& type, Visitor&& visit) {
  jvm::Heap* h = tc.heap();
  R rec{};
  const uint32_t bytes = type.decomposed_bytes();
  ForEachCachedRecord(
      tc, block, type.ops(),
      [&](const uint8_t* p) {
        type.Load(p, &rec);
        visit(rec);
        return bytes;
      },
      [&](jvm::ObjRef obj) {
        type.Read(h, obj, &rec);
        visit(rec);
      });
}

/// Whether a task caches its records decomposed: the context's
/// cache_level, which the block store also reads. No caller restates it.
inline bool DecomposedCache(TaskContext& tc) {
  return tc.context()->config().cache_level == StorageLevel::kDecaPages;
}

/// Caches `count` records of a declared type under `key` in the form
/// DecomposedCache picks: decomposed into a page group of the
/// store's page size (kDecaPages), or as an Object[] of their object
/// graphs, which the block store keeps or serializes by that level.
/// `gen(R*)` fills each record in turn; the Object[] is allocated first,
/// then each record's graph as Build orders it.
template <typename R, typename Gen>
void CacheRecords(TaskContext& tc, BlockKey key, const RecordType<R>& type,
                  uint32_t count, Gen&& gen) {
  jvm::Heap* h = tc.heap();
  R rec = type.Value();
  if (DecomposedCache(tc)) {
    std::shared_ptr<core::PageGroup> pages = tc.cache()->NewPages();
    const uint32_t bytes = type.decomposed_bytes();
    for (uint32_t i = 0; i < count; ++i) {
      gen(&rec);
      core::SegPtr seg = pages->Append(bytes);
      type.Store(pages->Resolve(seg), rec);
    }
    tc.cache()->PutPages(key, pages, count, &tc.metrics());
    return;
  }
  jvm::HandleScope scope(h);
  jvm::Handle records =
      scope.Make(h->AllocateArray(h->registry()->ref_array_class(), count));
  for (uint32_t i = 0; i < count; ++i) {
    gen(&rec);
    jvm::ObjRef obj = type.Build(h, rec);
    h->SetRefElem(records.get(), i, obj);
  }
  tc.cache()->PutObjects(key, records.get(), count, &tc.metrics());
}

}  // namespace deca::spark

#endif  // DECA_SPARK_BLOCK_READER_H_
