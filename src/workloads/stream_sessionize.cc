#include <algorithm>
#include <unordered_map>
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

struct SessTypes {
  explicit SessTypes(jvm::ClassRegistry* registry)
      : partials(SessionPartials(registry)), rows(registry) {}

  spark::ShuffleType<spark::Long, SessionAgg> partials;
  spark::RecordType<SessionRow> rows;
};

}  // namespace

StreamResult RunStreamSessionize(const StreamParams& params) {
  spark::SparkConfig cfg = params.spark;
  ApplyMode(params.mode, &cfg);
  spark::SparkContext ctx(cfg);
  SessTypes types(ctx.registry());
  for (int slot = 0; slot < kStreamRddSlots; ++slot) {
    ctx.RegisterCachedRdd(kStreamRddBase + slot, &types.rows.ops());
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

    // -- map: per-user visit partials for this epoch. Each epoch spans
    // 1000 time units; the active-user subset rotates each epoch so users
    // naturally go quiet and reappear, splitting sessions at the gap.
    auto map_fn = [&types, &params, per_part, e, sid](spark::TaskContext& tc) {
      Rng rng(Mix64(params.seed ^ (0x5e55ULL + static_cast<uint64_t>(e))) +
              static_cast<uint64_t>(tc.partition()));
      const uint64_t keys = std::max<uint64_t>(2, params.distinct_keys);
      const uint64_t rotate = e * std::max<uint64_t>(1, keys / 8);
      spark::KeyedShuffleWriter out(tc, sid, types.partials);
      for (uint64_t i = 0; i < per_part; ++i) {
        int64_t ip = static_cast<int64_t>(
            (rotate + rng.NextBounded(keys / 2)) % keys);
        int64_t ts = static_cast<int64_t>(e) * 1000 +
                     (static_cast<int64_t>(i) * 1000) /
                         static_cast<int64_t>(per_part);
        int64_t cents = static_cast<int64_t>(rng.NextBounded(10000));
        out.Emit(spark::Long{ip}, SessionAgg{ts, ts, 1, cents});
      }
      out.Finish();
    };
    region.AdoptLineage(ctx.RunMapStage("sess-map", sid, map_fn));

    // -- reduce: merge partials per ip; cache as the epoch's SessionRow
    // block. An ip hashes to one reducer, so a user's whole window history
    // lives in one partition — the stitcher never needs cross-partition
    // state.
    auto reduce_fn = [&types, &stream, e, sid](spark::TaskContext& tc) {
      int p = tc.partition();
      spark::KeyedShuffleReader in(tc, sid, types.partials);
      spark::BlockKey key{StreamRdd(e), p};
      // The combined rows are copied out as values, so the combine buffer
      // is freed before the epoch's block is built.
      std::vector<SessionRow> rows;
      in.ForEachCombined([&](const spark::Long& ip, const SessionAgg& a) {
        rows.push_back({ip.value, a.first, a.last, a.visits, a.cents});
      });
      size_t next = 0;
      spark::CacheRecords(tc, key, types.rows,
                          static_cast<uint32_t>(rows.size()),
                          [&](SessionRow* row) { *row = rows[next++]; });
      if (stream::EpochRegion* region = stream.region(e)) {
        region->AdoptBlock(tc.executor()->id(), key);
      }
    };
    ctx.RunStage("sess-reduce", reduce_fn);
    region.AdoptLineage(ctx.RegisterLineage(StreamRdd(e), reduce_fn));
  };

  uint64_t digest = 0;
  auto on_window = [&](const stream::StreamWindow& w) {
    std::vector<uint64_t> wsessions(static_cast<size_t>(parts), 0);
    std::vector<uint64_t> wvisits(static_cast<size_t>(parts), 0);
    std::vector<uint64_t> wcents(static_cast<size_t>(parts), 0);
    ctx.RunStage("sess-window", [&](spark::TaskContext& tc) {
      int p = tc.partition();
      uint64_t sessions = 0;
      uint64_t visits = 0;
      uint64_t cents = 0;
      // ip -> last_ts of its most recent session in this window; epochs
      // stitch in time order. Counters are per-ip independent sums, so
      // within-epoch entry order never matters.
      std::unordered_map<int64_t, int64_t> prev;
      std::vector<SessionRow> rows;
      for (int ep = w.start; ep < w.end; ++ep) {
        spark::LoadedBlock b =
            tc.cache()->Get({StreamRdd(ep), p}, &tc.metrics());
        if (!b.valid()) continue;
        rows.clear();
        spark::ForEachCachedRecord(
            tc, b, types.rows,
            [&](const SessionRow& row) { rows.push_back(row); });
        for (const SessionRow& r : rows) {
          auto it = prev.find(r.ip);
          if (it == prev.end() || r.first - it->second > params.session_gap) {
            ++sessions;
          }
          prev[r.ip] = r.last;
          visits += static_cast<uint64_t>(r.visits);
          cents += static_cast<uint64_t>(r.cents);
        }
      }
      wsessions[static_cast<size_t>(p)] = sessions;
      wvisits[static_cast<size_t>(p)] = visits;
      wcents[static_cast<size_t>(p)] = cents;
    });
    uint64_t sessions = 0;
    uint64_t visits = 0;
    uint64_t cents = 0;
    for (int p = 0; p < parts; ++p) {
      sessions += wsessions[static_cast<size_t>(p)];
      visits += wvisits[static_cast<size_t>(p)];
      cents += wcents[static_cast<size_t>(p)];
    }
    digest = FoldDigest(digest, sessions);
    digest = FoldDigest(digest, visits);
    digest = FoldDigest(digest, cents);
    result.records_processed += visits;
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
