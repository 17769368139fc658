#include <algorithm>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/random.h"
#include "spark/block_reader.h"
#include "workloads/records.h"
#include "workloads/stream_common.h"

namespace deca::workloads {

namespace {

struct SlideTypes {
  explicit SlideTypes(jvm::ClassRegistry* registry)
      : sample(registry), partial(registry) {}

  spark::RecordType<spark::Long> sample;  // object mode's boxed value
  spark::RecordType<AggPartial> partial;
};

}  // namespace

StreamResult RunStreamSlidingAgg(const StreamParams& params) {
  spark::SparkConfig cfg = params.spark;
  ApplyMode(params.mode, &cfg);
  spark::SparkContext ctx(cfg);
  SlideTypes types(ctx.registry());
  for (int slot = 0; slot < kStreamRddSlots; ++slot) {
    ctx.RegisterCachedRdd(kStreamRddBase + slot, &types.partial.ops());
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
    auto agg_fn = [&ctx, &types, &params, &stream, deca, per_part,
                   e](spark::TaskContext& tc) {
      jvm::Heap* h = tc.heap();
      Rng rng(Mix64(params.seed ^ (0x511dEULL + static_cast<uint64_t>(e))) +
              static_cast<uint64_t>(tc.partition()));
      AggPartial acc;
      if (deca) {
        for (uint64_t i = 0; i < per_part; ++i) {
          acc.Add(static_cast<int64_t>(rng.NextBounded(1'000'000)) - 500'000);
        }
      } else {
        // Object mode boxes every sample and folds through a fresh
        // partial per step — the per-record temporary churn of a
        // DStream-style reduce.
        jvm::HandleScope scope(h);
        jvm::Handle agg = scope.Make(types.partial.Build(h, acc));
        for (uint64_t i = 0; i < per_part; ++i) {
          int64_t v =
              static_cast<int64_t>(rng.NextBounded(1'000'000)) - 500'000;
          jvm::HandleScope inner(h);
          jvm::Handle boxed =
              inner.Make(types.sample.Build(h, spark::Long{v}));
          spark::Long sample;
          types.sample.Read(h, boxed.get(), &sample);
          types.partial.Read(h, agg.get(), &acc);
          acc.Add(sample.value);
          agg.set(types.partial.Build(h, acc));  // outer-scope slot
        }
        types.partial.Read(h, agg.get(), &acc);
      }
      spark::BlockKey key{StreamRdd(e), tc.partition()};
      spark::CacheRecords(tc, key, types.partial, 1,
                          [&](AggPartial* rec) { *rec = acc; });
      if (stream::EpochRegion* region = stream.region(e)) {
        region->AdoptBlock(tc.executor()->id(), key);
      }
    };
    ctx.RunStage("slide-agg", agg_fn);
    region.AdoptLineage(ctx.RegisterLineage(StreamRdd(e), agg_fn));
  };

  uint64_t digest = 0;
  auto on_window = [&](const stream::StreamWindow& w) {
    std::vector<AggPartial> wparts(static_cast<size_t>(parts));
    ctx.RunStage("slide-window", [&](spark::TaskContext& tc) {
      int p = tc.partition();
      AggPartial acc;
      for (int ep = w.start; ep < w.end; ++ep) {
        spark::LoadedBlock b =
            tc.cache()->Get({StreamRdd(ep), p}, &tc.metrics());
        if (!b.valid()) continue;
        spark::ForEachCachedRecord(
            tc, b, types.partial,
            [&](const AggPartial& block) { acc.Merge(block); });
      }
      wparts[static_cast<size_t>(p)] = acc;
    });
    AggPartial acc;
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
