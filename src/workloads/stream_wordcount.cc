#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/page.h"
#include "spark/block_reader.h"
#include "spark/keyed_shuffle.h"
#include "workloads/stream_common.h"

namespace deca::workloads {

using jvm::FieldKind;
using jvm::HandleScope;
using jvm::ObjRef;

namespace {

/// Managed (word, count) record class, shuffle ops (shared with the
/// window merge) and the cached-block record ops for swap.
struct SwcTypes {
  explicit SwcTypes(jvm::ClassRegistry* registry) {
    tuple2_cls = registry->RegisterClass(
        "scala.Tuple2", {{"_1", FieldKind::kRef}, {"_2", FieldKind::kRef}});
    const auto& tc = registry->Get(tuple2_cls);
    t1_off = tc.FieldOffset("_1");
    t2_off = tc.FieldOffset("_2");
    pair_cls = registry->RegisterClass(
        "WcPair", {{"word", FieldKind::kLong}, {"count", FieldKind::kLong}});
    const auto& pc = registry->Get(pair_cls);
    word_off = pc.FieldOffset("word");
    count_off = pc.FieldOffset("count");

    ops.key_hash = [](jvm::Heap* h, ObjRef k) -> uint64_t {
      return static_cast<uint64_t>(h->GetField<int64_t>(k, 0)) *
             0x9e3779b97f4a7c15ULL;
    };
    ops.key_equals = [](jvm::Heap* h, ObjRef a, ObjRef b) {
      return h->GetField<int64_t>(a, 0) == h->GetField<int64_t>(b, 0);
    };
    ops.combine = [](jvm::Heap* h, ObjRef agg, ObjRef v) -> ObjRef {
      int64_t sum = h->GetField<int64_t>(agg, 0) + h->GetField<int64_t>(v, 0);
      ObjRef fresh = h->AllocateInstance(h->registry()->boxed_long_class());
      h->SetField<int64_t>(fresh, 0, sum);
      return fresh;
    };
    ops.entry_bytes = [](jvm::Heap*, ObjRef, ObjRef) -> uint64_t {
      return 3 * (jvm::kHeaderBytes + 8) + 8;
    };
    ops.serialize_key = [](jvm::Heap* h, ObjRef k, ByteWriter* w) {
      w->WriteVarI64(h->GetField<int64_t>(k, 0));
    };
    ops.serialize_value = ops.serialize_key;
    ops.deserialize_key = [](jvm::Heap* h, ByteReader* r) -> ObjRef {
      ObjRef k = h->AllocateInstance(h->registry()->boxed_long_class());
      h->SetField<int64_t>(k, 0, r->ReadVarI64());
      return k;
    };
    ops.deserialize_value = ops.deserialize_key;
    ops.deca_key_bytes = 8;
    ops.deca_value_bytes = 8;
    ops.deca_key_hash = [](const uint8_t* k) -> uint64_t {
      return LoadRaw<uint64_t>(k) * 0x9e3779b97f4a7c15ULL;
    };
    ops.deca_combine = [](uint8_t* agg, const uint8_t* v) {
      StoreRaw<int64_t>(agg, LoadRaw<int64_t>(agg) + LoadRaw<int64_t>(v));
    };

    uint32_t wo = word_off;
    uint32_t co = count_off;
    uint32_t cls = pair_cls;
    rec_ops.managed_bytes = [](jvm::Heap*, ObjRef) -> uint64_t {
      return jvm::kHeaderBytes + 16 + 4;  // instance + Object[] slot
    };
    rec_ops.serialize = [wo, co](jvm::Heap* h, ObjRef r, ByteWriter* w) {
      w->Write<int64_t>(h->GetField<int64_t>(r, wo));
      w->Write<int64_t>(h->GetField<int64_t>(r, co));
    };
    rec_ops.deserialize = [cls, wo, co](jvm::Heap* h,
                                        ByteReader* r) -> ObjRef {
      ObjRef rec = h->AllocateInstance(cls);
      h->SetField<int64_t>(rec, wo, r->Read<int64_t>());
      h->SetField<int64_t>(rec, co, r->Read<int64_t>());
      return rec;
    };
  }

  uint32_t tuple2_cls;
  uint32_t t1_off;
  uint32_t t2_off;
  uint32_t pair_cls;
  uint32_t word_off;
  uint32_t count_off;
  spark::ShuffleOps ops;
  spark::RecordOps rec_ops;
};

}  // namespace

StreamResult RunStreamWordCount(const StreamParams& params) {
  spark::SparkConfig cfg = params.spark;
  ApplyMode(params.mode, &cfg);
  spark::SparkContext ctx(cfg);
  SwcTypes types(ctx.registry());
  for (int slot = 0; slot < kStreamRddSlots; ++slot) {
    ctx.RegisterCachedRdd(kStreamRddBase + slot, &types.rec_ops);
  }

  const bool deca = params.mode == Mode::kDeca;
  const int parts = ctx.num_partitions();
  const uint64_t per_part =
      std::max<uint64_t>(1, params.records_per_epoch /
                                static_cast<uint64_t>(parts));
  DECA_CHECK_LE(params.stream.window, kStreamRddSlots);

  StreamResult result;
  result.run.mode = params.mode;
  stream::StreamContext stream(&ctx, params.stream);
  Stopwatch run_sw;

  auto per_epoch = [&](int e, stream::EpochRegion& region) {
    int sid = ctx.shuffle()->RegisterShuffle(parts);
    region.AdoptShuffle(sid);

    // -- map: hash-combine this epoch's words, deposit per-reducer chunks.
    auto map_fn = [&types, &params, deca, per_part, e,
                   sid](spark::TaskContext& tc) {
      jvm::Heap* h = tc.heap();
      Rng rng(Mix64(params.seed ^ static_cast<uint64_t>(e)) +
              static_cast<uint64_t>(tc.partition()));
      spark::KeyedShuffleWriter out(tc, sid, &types.ops,
                                    deca ? spark::ShuffleLayout::kDecomposed
                                         : spark::ShuffleLayout::kObjects);
      for (uint64_t i = 0; i < per_part; ++i) {
        int64_t word =
            static_cast<int64_t>(rng.NextBounded(params.distinct_keys));
        if (deca) {
          int64_t one = 1;
          out.Insert(reinterpret_cast<const uint8_t*>(&word),
                     reinterpret_cast<const uint8_t*>(&one));
        } else {
          HandleScope scope(h);
          // Per-record Tuple2 + boxed key/value churn, exactly as the
          // batch workload models the Scala UDF.
          jvm::Handle key = scope.Make(
              h->AllocateInstance(h->registry()->boxed_long_class()));
          h->SetField<int64_t>(key.get(), 0, word);
          jvm::Handle one = scope.Make(
              h->AllocateInstance(h->registry()->boxed_long_class()));
          h->SetField<int64_t>(one.get(), 0, 1);
          jvm::Handle tuple =
              scope.Make(h->AllocateInstance(types.tuple2_cls));
          h->SetRefField(tuple.get(), types.t1_off, key.get());
          h->SetRefField(tuple.get(), types.t2_off, one.get());
          out.Insert(h->GetRefField(tuple.get(), types.t1_off),
                     h->GetRefField(tuple.get(), types.t2_off));
        }
      }
      out.Finish();
    };
    region.AdoptLineage(ctx.RunMapStage("stream-map", sid, map_fn));

    // -- reduce: merge this epoch's chunks into a per-partition count
    // table, cached as the epoch's block (and adopted by the region).
    // Doubles as the block's lineage: chunks outlive the block (both are
    // region-owned), so a replay re-reads them deterministically.
    auto reduce_fn = [&types, &stream, deca, e, sid,
                      page_bytes =
                          cfg.deca_page_bytes](spark::TaskContext& tc) {
      jvm::Heap* h = tc.heap();
      int p = tc.partition();
      spark::KeyedShuffleReader in(tc, sid, &types.ops);
      spark::BlockKey key{StreamRdd(e), p};
      // The combined entries or rows are copied out as native values, so
      // the combine buffer is freed before the epoch's block is built.
      std::vector<uint8_t> entries;
      std::vector<std::pair<int64_t, int64_t>> rows;
      in.ForEachCombined(
          deca ? spark::ShuffleLayout::kDecomposed
               : spark::ShuffleLayout::kObjects,
          [&](const uint8_t* entry) {
            entries.insert(entries.end(), entry, entry + 16);
          },
          [&](ObjRef k, ObjRef v) {
            rows.emplace_back(h->GetField<int64_t>(k, 0),
                              h->GetField<int64_t>(v, 0));
          });
      if (deca) {
        auto pages = std::make_shared<core::PageGroup>(h, page_bytes);
        for (size_t off = 0; off < entries.size(); off += 16) {
          core::SegPtr seg = pages->Append(16);
          std::memcpy(pages->Resolve(seg), entries.data() + off, 16);
        }
        tc.cache()->PutPages(key, pages,
                             static_cast<uint32_t>(entries.size() / 16),
                             &tc.metrics());
      } else {
        HandleScope scope(h);
        jvm::Handle arr = scope.Make(h->AllocateArray(
            h->registry()->ref_array_class(),
            static_cast<uint32_t>(rows.size())));
        for (uint32_t i = 0; i < rows.size(); ++i) {
          ObjRef rec = h->AllocateInstance(types.pair_cls);
          h->SetField<int64_t>(rec, types.word_off, rows[i].first);
          h->SetField<int64_t>(rec, types.count_off, rows[i].second);
          h->SetRefElem(arr.get(), i, rec);
        }
        tc.cache()->PutObjects(key, arr.get(),
                               static_cast<uint32_t>(rows.size()),
                               &tc.metrics());
      }
      if (stream::EpochRegion* region = stream.region(e)) {
        region->AdoptBlock(tc.executor()->id(), key);
      }
    };
    ctx.RunStage("stream-reduce", reduce_fn);
    region.AdoptLineage(ctx.RegisterLineage(StreamRdd(e), reduce_fn));
  };

  uint64_t digest = 0;
  auto on_window = [&](const stream::StreamWindow& w) {
    std::vector<uint64_t> wtotal(static_cast<size_t>(parts), 0);
    std::vector<uint64_t> wdistinct(static_cast<size_t>(parts), 0);
    std::vector<uint64_t> wsum(static_cast<size_t>(parts), 0);
    ctx.RunStage("stream-window", [&](spark::TaskContext& tc) {
      jvm::Heap* h = tc.heap();
      int p = tc.partition();
      uint64_t total = 0;
      uint64_t distinct = 0;
      uint64_t checksum = 0;
      // The window merge combines cached records, not shuffle chunks, so
      // it keeps a buffer of its own.
      std::optional<spark::DecaHashShuffleBuffer> entries;
      std::optional<spark::ObjectHashShuffleBuffer> pairs;
      if (deca) {
        entries.emplace(h, &types.ops, cfg.deca_page_bytes);
      } else {
        pairs.emplace(h, &types.ops);
      }
      for (int ep = w.start; ep < w.end; ++ep) {
        spark::LoadedBlock b =
            tc.cache()->Get({StreamRdd(ep), p}, &tc.metrics());
        if (!b.valid()) continue;
        spark::ForEachCachedRecord(
            tc, b, types.rec_ops,
            [&](const uint8_t* rec) {
              uint8_t row[16];
              std::memcpy(row, rec, 16);
              entries->Insert(row, row + 8);  // may GC; row is native
              return uint32_t{16};
            },
            [&](ObjRef rec) {
              // Read the record's fields before the boxing allocates.
              int64_t word = h->GetField<int64_t>(rec, types.word_off);
              int64_t count = h->GetField<int64_t>(rec, types.count_off);
              HandleScope inner(h);
              jvm::Handle k = inner.Make(
                  h->AllocateInstance(h->registry()->boxed_long_class()));
              h->SetField<int64_t>(k.get(), 0, word);
              jvm::Handle v = inner.Make(
                  h->AllocateInstance(h->registry()->boxed_long_class()));
              h->SetField<int64_t>(v.get(), 0, count);
              pairs->Insert(k.get(), v.get());
            });
      }
      auto tally = [&](int64_t word, int64_t count) {
        total += static_cast<uint64_t>(count);
        ++distinct;
        checksum += Mix64(static_cast<uint64_t>(word)) *
                    static_cast<uint64_t>(count);
      };
      if (deca) {
        entries->ForEach([&](const uint8_t* entry) {
          tally(LoadRaw<int64_t>(entry), LoadRaw<int64_t>(entry + 8));
        });
      } else {
        pairs->ForEach([&](ObjRef k, ObjRef v) {
          tally(h->GetField<int64_t>(k, 0), h->GetField<int64_t>(v, 0));
        });
      }
      wtotal[static_cast<size_t>(p)] = total;
      wdistinct[static_cast<size_t>(p)] = distinct;
      wsum[static_cast<size_t>(p)] = checksum;
    });
    uint64_t total = 0;
    uint64_t distinct = 0;
    uint64_t checksum = 0;
    for (int p = 0; p < parts; ++p) {
      total += wtotal[static_cast<size_t>(p)];
      distinct += wdistinct[static_cast<size_t>(p)];
      checksum += wsum[static_cast<size_t>(p)];
    }
    digest = FoldDigest(digest, total);
    digest = FoldDigest(digest, distinct);
    digest = FoldDigest(digest, checksum);
    result.records_processed += total;
  };

  stream.RunEpochs(per_epoch, on_window);

  result.run.exec_ms = run_sw.ElapsedMillis();
  result.windows = static_cast<uint64_t>(stream.windows_emitted());
  result.digest = digest;
  uint64_t ingested = static_cast<uint64_t>(params.stream.epochs) *
                      per_part * static_cast<uint64_t>(parts);
  result.throughput_rps =
      result.run.exec_ms > 0
          ? static_cast<double>(ingested) / (result.run.exec_ms / 1000.0)
          : 0;
  FinalizeResult(&ctx, &result.run);
  FillStreamRun(stream, &result.run);  // after finalize: overrides slowest_task
  return result;
}

}  // namespace deca::workloads
