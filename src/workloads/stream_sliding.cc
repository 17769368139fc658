#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/page.h"
#include "spark/block_reader.h"
#include "workloads/stream_common.h"

namespace deca::workloads {

using jvm::FieldKind;
using jvm::HandleScope;
using jvm::ObjRef;

namespace {

/// Per-partition epoch partial: (sum, min, max, count) of the epoch's
/// values — one 32-byte record per partition per epoch.
constexpr uint32_t kPartialBytes = 32;

struct Partial {
  int64_t sum = 0;
  int64_t min = INT64_MAX;
  int64_t max = INT64_MIN;
  int64_t count = 0;

  void Add(int64_t v) {
    sum += v;
    min = std::min(min, v);
    max = std::max(max, v);
    ++count;
  }
  void Merge(const Partial& o) {
    if (o.count == 0) return;
    sum += o.sum;
    min = std::min(min, o.min);
    max = std::max(max, o.max);
    count += o.count;
  }
};

struct SlideTypes {
  explicit SlideTypes(jvm::ClassRegistry* registry) {
    partial_cls = registry->RegisterClass("AggPartial",
                                          {{"sum", FieldKind::kLong},
                                           {"min", FieldKind::kLong},
                                           {"max", FieldKind::kLong},
                                           {"count", FieldKind::kLong}});
    const auto& pc = registry->Get(partial_cls);
    sum_off = pc.FieldOffset("sum");
    min_off = pc.FieldOffset("min");
    max_off = pc.FieldOffset("max");
    count_off = pc.FieldOffset("count");

    uint32_t so = sum_off, mo = min_off, xo = max_off, co = count_off;
    uint32_t cls = partial_cls;
    rec_ops.managed_bytes = [](jvm::Heap*, ObjRef) -> uint64_t {
      return jvm::kHeaderBytes + kPartialBytes + 4;
    };
    rec_ops.serialize = [so, mo, xo, co](jvm::Heap* h, ObjRef r,
                                         ByteWriter* w) {
      w->Write<int64_t>(h->GetField<int64_t>(r, so));
      w->Write<int64_t>(h->GetField<int64_t>(r, mo));
      w->Write<int64_t>(h->GetField<int64_t>(r, xo));
      w->Write<int64_t>(h->GetField<int64_t>(r, co));
    };
    rec_ops.deserialize = [cls, so, mo, xo, co](jvm::Heap* h,
                                                ByteReader* r) -> ObjRef {
      ObjRef rec = h->AllocateInstance(cls);
      h->SetField<int64_t>(rec, so, r->Read<int64_t>());
      h->SetField<int64_t>(rec, mo, r->Read<int64_t>());
      h->SetField<int64_t>(rec, xo, r->Read<int64_t>());
      h->SetField<int64_t>(rec, co, r->Read<int64_t>());
      return rec;
    };
  }

  uint32_t partial_cls;
  uint32_t sum_off, min_off, max_off, count_off;
  spark::RecordOps rec_ops;
};

}  // namespace

StreamResult RunStreamSlidingAgg(const StreamParams& params) {
  spark::SparkConfig cfg = params.spark;
  ApplyMode(params.mode, &cfg);
  spark::SparkContext ctx(cfg);
  SlideTypes types(ctx.registry());
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
    // One stage: aggregate this epoch's values into a per-partition
    // partial and cache it as the epoch's block. Doubles as the block's
    // lineage (pure regeneration — no shuffle input).
    auto agg_fn = [&ctx, &types, &params, &stream, deca, per_part, e,
                   page_bytes = cfg.deca_page_bytes](spark::TaskContext& tc) {
      jvm::Heap* h = tc.heap();
      Rng rng(Mix64(params.seed ^ (0x511dEULL + static_cast<uint64_t>(e))) +
              static_cast<uint64_t>(tc.partition()));
      Partial acc;
      if (deca) {
        for (uint64_t i = 0; i < per_part; ++i) {
          acc.Add(static_cast<int64_t>(rng.NextBounded(1'000'000)) - 500'000);
        }
      } else {
        // Object mode boxes every sample and folds through a fresh
        // partial per step — the per-record temporary churn of a
        // DStream-style reduce.
        HandleScope scope(h);
        jvm::Handle agg = scope.Make(h->AllocateInstance(types.partial_cls));
        h->SetField<int64_t>(agg.get(), types.min_off, INT64_MAX);
        h->SetField<int64_t>(agg.get(), types.max_off, INT64_MIN);
        for (uint64_t i = 0; i < per_part; ++i) {
          int64_t v =
              static_cast<int64_t>(rng.NextBounded(1'000'000)) - 500'000;
          HandleScope inner(h);
          jvm::Handle boxed = inner.Make(
              h->AllocateInstance(h->registry()->boxed_long_class()));
          h->SetField<int64_t>(boxed.get(), 0, v);
          jvm::Handle fresh =
              inner.Make(h->AllocateInstance(types.partial_cls));
          int64_t bv = h->GetField<int64_t>(boxed.get(), 0);
          h->SetField<int64_t>(
              fresh.get(), types.sum_off,
              h->GetField<int64_t>(agg.get(), types.sum_off) + bv);
          h->SetField<int64_t>(
              fresh.get(), types.min_off,
              std::min(h->GetField<int64_t>(agg.get(), types.min_off), bv));
          h->SetField<int64_t>(
              fresh.get(), types.max_off,
              std::max(h->GetField<int64_t>(agg.get(), types.max_off), bv));
          h->SetField<int64_t>(
              fresh.get(), types.count_off,
              h->GetField<int64_t>(agg.get(), types.count_off) + 1);
          agg.set(fresh.get());  // outer-scope slot; inner roots die here
        }
        acc.sum = h->GetField<int64_t>(agg.get(), types.sum_off);
        acc.min = h->GetField<int64_t>(agg.get(), types.min_off);
        acc.max = h->GetField<int64_t>(agg.get(), types.max_off);
        acc.count = h->GetField<int64_t>(agg.get(), types.count_off);
      }
      spark::BlockKey key{StreamRdd(e), tc.partition()};
      if (deca) {
        auto pages = std::make_shared<core::PageGroup>(h, page_bytes);
        core::SegPtr seg = pages->Append(kPartialBytes);
        uint8_t* d = pages->Resolve(seg);
        StoreRaw<int64_t>(d, acc.sum);
        StoreRaw<int64_t>(d + 8, acc.min);
        StoreRaw<int64_t>(d + 16, acc.max);
        StoreRaw<int64_t>(d + 24, acc.count);
        tc.cache()->PutPages(key, pages, 1, &tc.metrics());
      } else {
        HandleScope scope(h);
        jvm::Handle arr =
            scope.Make(h->AllocateArray(h->registry()->ref_array_class(), 1));
        ObjRef rec = h->AllocateInstance(types.partial_cls);
        h->SetField<int64_t>(rec, types.sum_off, acc.sum);
        h->SetField<int64_t>(rec, types.min_off, acc.min);
        h->SetField<int64_t>(rec, types.max_off, acc.max);
        h->SetField<int64_t>(rec, types.count_off, acc.count);
        h->SetRefElem(arr.get(), 0, rec);
        tc.cache()->PutObjects(key, arr.get(), 1, &tc.metrics());
      }
      if (stream::EpochRegion* region = stream.region(e)) {
        region->AdoptBlock(tc.executor()->id(), key);
      }
    };
    ctx.RunStage("slide-agg", agg_fn);
    region.AdoptLineage(ctx.RegisterLineage(StreamRdd(e), agg_fn));
  };

  uint64_t digest = 0;
  auto on_window = [&](const stream::StreamWindow& w) {
    std::vector<Partial> wparts(static_cast<size_t>(parts));
    ctx.RunStage("slide-window", [&](spark::TaskContext& tc) {
      jvm::Heap* h = tc.heap();
      int p = tc.partition();
      Partial acc;
      for (int ep = w.start; ep < w.end; ++ep) {
        spark::LoadedBlock b =
            tc.cache()->Get({StreamRdd(ep), p}, &tc.metrics());
        if (!b.valid()) continue;
        Partial block;
        spark::ForEachCachedRecord(
            tc, b, types.rec_ops,
            [&](const uint8_t* d) {
              block.sum = LoadRaw<int64_t>(d);
              block.min = LoadRaw<int64_t>(d + 8);
              block.max = LoadRaw<int64_t>(d + 16);
              block.count = LoadRaw<int64_t>(d + 24);
              return kPartialBytes;
            },
            [&](ObjRef rec) {
              block.sum = h->GetField<int64_t>(rec, types.sum_off);
              block.min = h->GetField<int64_t>(rec, types.min_off);
              block.max = h->GetField<int64_t>(rec, types.max_off);
              block.count = h->GetField<int64_t>(rec, types.count_off);
            });
        acc.Merge(block);
      }
      wparts[static_cast<size_t>(p)] = acc;
    });
    Partial acc;
    for (int p = 0; p < parts; ++p) {
      acc.Merge(wparts[static_cast<size_t>(p)]);
    }
    digest = FoldDigest(digest, static_cast<uint64_t>(acc.sum));
    digest = FoldDigest(digest, static_cast<uint64_t>(acc.min));
    digest = FoldDigest(digest, static_cast<uint64_t>(acc.max));
    digest = FoldDigest(digest, static_cast<uint64_t>(acc.count));
    result.records_processed += static_cast<uint64_t>(acc.count);
  };

  stream.RunEpochs(per_epoch, on_window);

  result.run.exec_ms = run_sw.ElapsedMillis();
  result.windows = static_cast<uint64_t>(stream.windows_emitted());
  result.digest = digest;
  uint64_t ingested = static_cast<uint64_t>(params.stream.epochs) * per_part *
                      static_cast<uint64_t>(parts);
  result.throughput_rps =
      result.run.exec_ms > 0
          ? static_cast<double>(ingested) / (result.run.exec_ms / 1000.0)
          : 0;
  FinalizeResult(&ctx, &result.run);
  FillStreamRun(stream, &result.run);  // after finalize: overrides slowest_task
  return result;
}

}  // namespace deca::workloads
