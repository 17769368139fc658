#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/random.h"
#include "spark/block_reader.h"
#include "spark/keyed_shuffle.h"
#include "workloads/records.h"
#include "workloads/stream_common.h"

namespace deca::workloads {

namespace {

/// The map UDF's `(word, 1)` Tuple2 summed per word (shared with the
/// window merge), and the epoch table's rows.
struct SwcTypes {
  explicit SwcTypes(jvm::ClassRegistry* registry)
      : counts(WordCounts(registry)), pair(registry) {}

  LongPairs counts;
  spark::RecordType<WcPair> pair;
};

}  // namespace

StreamResult RunStreamWordCount(const StreamParams& params) {
  spark::SparkConfig cfg = params.spark;
  ApplyMode(params.mode, &cfg);
  spark::SparkContext ctx(cfg);
  SwcTypes types(ctx.registry());
  for (int slot = 0; slot < kStreamRddSlots; ++slot) {
    ctx.RegisterCachedRdd(kStreamRddBase + slot, &types.pair.ops());
  }

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
    auto map_fn = [&types, &params, per_part, e, sid](spark::TaskContext& tc) {
      Rng rng(Mix64(params.seed ^ static_cast<uint64_t>(e)) +
              static_cast<uint64_t>(tc.partition()));
      spark::KeyedShuffleWriter out(tc, sid, types.counts);
      for (uint64_t i = 0; i < per_part; ++i) {
        // Per-record Tuple2 + boxed key/value churn in object mode,
        // exactly as the batch workload models the Scala UDF.
        int64_t word =
            static_cast<int64_t>(rng.NextBounded(params.distinct_keys));
        out.Emit(spark::Long{word}, spark::Long{1});
      }
      out.Finish();
    };
    region.AdoptLineage(ctx.RunMapStage("stream-map", sid, map_fn));

    // -- reduce: merge this epoch's chunks into a per-partition count
    // table, cached as the epoch's block (and adopted by the region).
    // Doubles as the block's lineage: chunks outlive the block (both are
    // region-owned), so a replay re-reads them deterministically.
    auto reduce_fn = [&types, &stream, e, sid](spark::TaskContext& tc) {
      int p = tc.partition();
      spark::KeyedShuffleReader in(tc, sid, types.counts);
      spark::BlockKey key{StreamRdd(e), p};
      // The combined rows are copied out as values, so the combine buffer
      // is freed before the epoch's block is built.
      std::vector<WcPair> rows;
      in.ForEachCombined([&](const spark::Long& word, const spark::Long& n) {
        rows.push_back({word.value, n.value});
      });
      size_t next = 0;
      spark::CacheRecords(tc, key, types.pair,
                          static_cast<uint32_t>(rows.size()),
                          [&](WcPair* row) { *row = rows[next++]; });
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
      int p = tc.partition();
      uint64_t total = 0;
      uint64_t distinct = 0;
      uint64_t checksum = 0;
      // The window merge combines cached records, not shuffle chunks, so
      // it keeps a buffer of its own.
      spark::CombineBuffer merge(tc, types.counts);
      for (int ep = w.start; ep < w.end; ++ep) {
        spark::LoadedBlock b =
            tc.cache()->Get({StreamRdd(ep), p}, &tc.metrics());
        if (!b.valid()) continue;
        spark::ForEachCachedRecord(tc, b, types.pair, [&](const WcPair& row) {
          merge.Insert(spark::Long{row.word}, spark::Long{row.count});
        });
      }
      merge.ForEach([&](const spark::Long& word, const spark::Long& count) {
        total += static_cast<uint64_t>(count.value);
        ++distinct;
        checksum += Mix64(static_cast<uint64_t>(word.value)) *
                    static_cast<uint64_t>(count.value);
      });
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
