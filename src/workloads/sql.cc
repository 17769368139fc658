#include "workloads/sql.h"

#include <cstring>

#include "common/clock.h"
#include "common/logging.h"
#include "common/random.h"
#include "spark/block_reader.h"
#include "spark/keyed_shuffle.h"
#include "workloads/records.h"

namespace deca::workloads {

using jvm::HandleScope;
using jvm::ObjRef;

namespace {

constexpr int kRankingsRddId = 10;
constexpr int kVisitsRddId = 11;
/// The row tables, and Query 2's (ipPrefix, revenue) sum.
struct SqlTypes {
  explicit SqlTypes(jvm::ClassRegistry* registry)
      : rankings(registry),
        visits(registry),
        revenue(Revenues(registry)) {}

  spark::RecordType<Ranking> rankings;
  spark::RecordType<UserVisit> visits;
  spark::ShuffleType<spark::RawLong, spark::Double> revenue;
};

/// A Spark-SQL-style cached columnar table store: one managed array per
/// column per partition, so the GC sees a handful of objects per block
/// regardless of row count (the paper's "serialized column-oriented
/// format"). Each executor heap gets its own root provider holding the
/// column arrays of the partitions it executes.
struct ColumnarTables {
  void Register(spark::SparkContext* ctx) {
    providers.resize(static_cast<size_t>(ctx->num_executors()));
    for (int e = 0; e < ctx->num_executors(); ++e) {
      providers[static_cast<size_t>(e)] =
          std::make_unique<jvm::VectorRootProvider>();
      ctx->executor(e)->heap()->AddRootProvider(
          providers[static_cast<size_t>(e)].get());
    }
    int parts = ctx->num_partitions();
    rankings_counts.resize(static_cast<size_t>(parts));
    visits_counts.resize(static_cast<size_t>(parts));
    rankings_base.resize(static_cast<size_t>(parts));
    visits_base.resize(static_cast<size_t>(parts));
  }

  void Unregister(spark::SparkContext* ctx) {
    for (int e = 0; e < ctx->num_executors(); ++e) {
      ctx->executor(e)->heap()->RemoveRootProvider(
          providers[static_cast<size_t>(e)].get());
    }
  }

  std::vector<ObjRef>& refs_for(spark::TaskContext* tc) {
    return providers[static_cast<size_t>(tc->executor()->id())]->refs();
  }

  // Per partition: rankings {ranks int[], durs int[], urls byte[]} then
  // uservisits {dates long[], revs double[], ips byte[], urls byte[]};
  // bases index into the owning executor's provider refs.
  std::vector<std::unique_ptr<jvm::VectorRootProvider>> providers;
  std::vector<uint32_t> rankings_counts;
  std::vector<uint32_t> visits_counts;
  std::vector<size_t> rankings_base;
  std::vector<size_t> visits_base;
  uint64_t bytes = 0;
};

void FillIp(Rng* rng, uint8_t* out) {
  // "ddd.ddd.ddd.ddd" style fixed-width address.
  for (uint32_t i = 0; i < 15; ++i) {
    out[i] = (i == 3 || i == 7 || i == 11)
                 ? '.'
                 : static_cast<uint8_t>('0' + rng->NextBounded(10));
  }
  out[15] = 0;
}

void FillUrl(Rng* rng, uint8_t* out) {
  static const char alphabet[] = "abcdefghijklmnopqrstuvwxyz";
  std::memcpy(out, "http://", 7);
  for (uint32_t i = 7; i < kUrlBytes; ++i) {
    out[i] = static_cast<uint8_t>(alphabet[rng->NextBounded(26)]);
  }
}

int64_t IpPrefixKey(const uint8_t* ip) {
  // SUBSTR(sourceIP, 1, 5) packed into an integer key.
  int64_t key = 0;
  for (int i = 0; i < 5; ++i) key = (key << 8) | ip[i];
  return key;
}

}  // namespace

const char* SqlEngineName(SqlEngine e) {
  switch (e) {
    case SqlEngine::kSparkRdd:
      return "Spark";
    case SqlEngine::kSparkSql:
      return "SparkSQL";
    case SqlEngine::kDeca:
      return "Deca";
  }
  return "?";
}

SqlResult RunSqlQueries(const SqlParams& params) {
  spark::SparkConfig cfg = params.spark;
  // Only the Deca engine ships decomposed pages: SparkSQL's byte-form
  // aggregate still crosses a wire as Kryo-like records.
  const bool deca = params.engine == SqlEngine::kDeca;
  cfg.cache_level = deca ? spark::StorageLevel::kDecaPages
                         : spark::StorageLevel::kMemoryObjects;
  cfg.deca_shuffle = deca;
  RejectCrashWipe(cfg, "SQL",
                  "its cached tables register no lineage, and SparkSQL's "
                  "columnar tables live in a root provider outside the "
                  "block store");
  spark::SparkContext ctx(cfg);
  SqlTypes types(ctx.registry());
  ctx.RegisterCachedRdd(kRankingsRddId, &types.rankings.ops());
  ctx.RegisterCachedRdd(kVisitsRddId, &types.visits.ops());

  SqlResult result;
  int parts = ctx.num_partitions();
  uint64_t ranks_per_part =
      params.rankings_rows / static_cast<uint64_t>(parts);
  uint64_t visits_per_part =
      params.uservisits_rows / static_cast<uint64_t>(parts);

  ColumnarTables columnar;
  if (params.engine == SqlEngine::kSparkSql) columnar.Register(&ctx);

  // -- load & cache both tables.
  ctx.RunStage("load", [&](spark::TaskContext& tc) {
    jvm::Heap* h = tc.heap();
    Rng rng(params.seed + static_cast<uint64_t>(tc.partition()));
    uint8_t url[kUrlBytes];
    uint8_t ip[kIpBytes];
    switch (params.engine) {
      case SqlEngine::kSparkRdd:
      case SqlEngine::kDeca: {
        spark::CacheRecords(
            tc, {kRankingsRddId, tc.partition()}, types.rankings, deca,
            cfg.deca_page_bytes, static_cast<uint32_t>(ranks_per_part),
            [&](Ranking* r) {
              FillUrl(&rng, r->pageURL.data());
              r->pageRank = static_cast<int32_t>(rng.NextBounded(1000));
              r->avgDuration = static_cast<int32_t>(rng.NextBounded(100));
            });
        spark::CacheRecords(
            tc, {kVisitsRddId, tc.partition()}, types.visits, deca,
            cfg.deca_page_bytes, static_cast<uint32_t>(visits_per_part),
            [&](UserVisit* v) {
              FillIp(&rng, v->sourceIP.data());
              FillUrl(&rng, v->destURL.data());
              v->visitDate = static_cast<int64_t>(rng.NextBounded(365));
              v->adRevenue = rng.NextDouble();
            });
        break;
      }
      case SqlEngine::kSparkSql: {
        size_t p = static_cast<size_t>(tc.partition());
        std::vector<ObjRef>& refs = columnar.refs_for(&tc);
        HandleScope scope(h);
        columnar.rankings_base[p] = refs.size();
        jvm::Handle ranks = scope.Make(h->AllocateArray(
            h->registry()->int_array_class(),
            static_cast<uint32_t>(ranks_per_part)));
        jvm::Handle durs = scope.Make(h->AllocateArray(
            h->registry()->int_array_class(),
            static_cast<uint32_t>(ranks_per_part)));
        jvm::Handle urls = scope.Make(h->AllocateArray(
            h->registry()->byte_array_class(),
            static_cast<uint32_t>(ranks_per_part * kUrlBytes)));
        for (uint64_t i = 0; i < ranks_per_part; ++i) {
          FillUrl(&rng, url);
          h->SetElem<int32_t>(ranks.get(), static_cast<uint32_t>(i),
                              static_cast<int32_t>(rng.NextBounded(1000)));
          h->SetElem<int32_t>(durs.get(), static_cast<uint32_t>(i),
                              static_cast<int32_t>(rng.NextBounded(100)));
          std::memcpy(h->ArrayData(urls.get()) + i * kUrlBytes, url,
                      kUrlBytes);
        }
        refs.push_back(ranks.get());
        refs.push_back(durs.get());
        refs.push_back(urls.get());
        columnar.rankings_counts[p] = static_cast<uint32_t>(ranks_per_part);
        columnar.visits_base[p] = refs.size();
        jvm::Handle dates = scope.Make(h->AllocateArray(
            h->registry()->long_array_class(),
            static_cast<uint32_t>(visits_per_part)));
        jvm::Handle revs = scope.Make(h->AllocateArray(
            h->registry()->double_array_class(),
            static_cast<uint32_t>(visits_per_part)));
        jvm::Handle ips = scope.Make(h->AllocateArray(
            h->registry()->byte_array_class(),
            static_cast<uint32_t>(visits_per_part * kIpBytes)));
        jvm::Handle vurls = scope.Make(h->AllocateArray(
            h->registry()->byte_array_class(),
            static_cast<uint32_t>(visits_per_part * kUrlBytes)));
        for (uint64_t i = 0; i < visits_per_part; ++i) {
          FillIp(&rng, ip);
          FillUrl(&rng, url);
          h->SetElem<int64_t>(dates.get(), static_cast<uint32_t>(i),
                              static_cast<int64_t>(rng.NextBounded(365)));
          h->SetElem<double>(revs.get(), static_cast<uint32_t>(i),
                             rng.NextDouble());
          std::memcpy(h->ArrayData(ips.get()) + i * kIpBytes, ip, kIpBytes);
          std::memcpy(h->ArrayData(vurls.get()) + i * kUrlBytes, url,
                      kUrlBytes);
        }
        refs.push_back(dates.get());
        refs.push_back(revs.get());
        refs.push_back(ips.get());
        refs.push_back(vurls.get());
        columnar.visits_counts[p] = static_cast<uint32_t>(visits_per_part);
        columnar.bytes += ranks_per_part * (8 + kUrlBytes) +
                          visits_per_part * (16 + kIpBytes + kUrlBytes);
        break;
      }
    }
  });
  result.run.load_ms = ctx.metrics().wall_ms;
  ctx.ResetMetrics();

  // ---- Query 1: filter scan over rankings.
  double gc0 = ctx.TotalGcPauseMs();
  Stopwatch q1_sw;
  // Per-partition slots folded in partition order post-stage: identical
  // counts and float sums whether the stage ran sequentially or not.
  std::vector<uint64_t> part_q1_matches(static_cast<size_t>(parts), 0);
  std::vector<double> part_q1_sum(static_cast<size_t>(parts), 0.0);
  ctx.RunStage("q1", [&](spark::TaskContext& tc) {
    uint64_t& q1_matches = part_q1_matches[static_cast<size_t>(tc.partition())];
    double& q1_sum = part_q1_sum[static_cast<size_t>(tc.partition())];
    jvm::Heap* h = tc.heap();
    int32_t threshold = params.rank_threshold;
    auto match = [&](int32_t rank) {
      if (rank > threshold) {
        ++q1_matches;
        q1_sum += rank;
      }
    };
    if (params.engine == SqlEngine::kSparkSql) {
      size_t p = static_cast<size_t>(tc.partition());
      ObjRef ranks = columnar.refs_for(&tc)[columnar.rankings_base[p]];
      uint32_t n = columnar.rankings_counts[p];
      for (uint32_t i = 0; i < n; ++i) match(h->GetElem<int32_t>(ranks, i));
      return;
    }
    spark::LoadedBlock block =
        tc.cache()->Get({kRankingsRddId, tc.partition()}, &tc.metrics());
    spark::ForEachCachedRecord(tc, block, types.rankings,
                               [&](const Ranking& r) { match(r.pageRank); });
  });
  result.q1_exec_ms = q1_sw.ElapsedMillis();
  result.q1_gc_ms = ctx.TotalGcPauseMs() - gc0;
  uint64_t q1_matches = 0;
  double q1_sum = 0;
  for (int p = 0; p < parts; ++p) {
    q1_matches += part_q1_matches[static_cast<size_t>(p)];
    q1_sum += part_q1_sum[static_cast<size_t>(p)];
  }
  result.q1_matches = q1_matches;
  result.q1_rank_sum = q1_sum;

  // ---- Query 2: GroupBy aggregation over uservisits.
  gc0 = ctx.TotalGcPauseMs();
  Stopwatch q2_sw;
  int shuffle_id = ctx.shuffle()->RegisterShuffle(parts);
  // Spark SQL (Tungsten) and Deca both aggregate over serialized /
  // decomposed bytes.
  spark::ShuffleLayout layout = params.engine != SqlEngine::kSparkRdd
                                    ? spark::ShuffleLayout::kDecomposed
                                    : spark::ShuffleLayout::kObjects;
  ctx.RunStage("q2-map", [&](spark::TaskContext& tc) {
    jvm::Heap* h = tc.heap();
    spark::KeyedShuffleWriter out(tc, shuffle_id, types.revenue, layout);
    if (params.engine == SqlEngine::kSparkSql) {
      size_t p = static_cast<size_t>(tc.partition());
      size_t base = columnar.visits_base[p];
      std::vector<ObjRef>& refs = columnar.refs_for(&tc);
      uint32_t n = columnar.visits_counts[p];
      for (uint32_t i = 0; i < n; ++i) {
        // Re-resolve the column arrays every row: page-group inserts may
        // trigger GC and move them (the provider keeps refs updated).
        ObjRef revs = refs[base + 1];
        ObjRef ips = refs[base + 2];
        out.Emit(spark::RawLong{IpPrefixKey(h->ArrayData(ips) + i * kIpBytes)},
                 spark::Double{h->GetElem<double>(revs, i)});
      }
    } else {
      spark::LoadedBlock block =
          tc.cache()->Get({kVisitsRddId, tc.partition()}, &tc.metrics());
      spark::ForEachCachedRecord(
          tc, block, types.visits, [&](const UserVisit& v) {
            out.Emit(spark::RawLong{IpPrefixKey(v.sourceIP.data())},
                     spark::Double{v.adRevenue});
          });
    }
    out.Finish();
  });

  std::vector<uint64_t> part_groups(static_cast<size_t>(parts), 0);
  std::vector<double> part_revenue(static_cast<size_t>(parts), 0.0);
  ctx.RunStage("q2-reduce", [&](spark::TaskContext& tc) {
    uint64_t& groups = part_groups[static_cast<size_t>(tc.partition())];
    double& revenue = part_revenue[static_cast<size_t>(tc.partition())];
    spark::KeyedShuffleReader in(tc, shuffle_id, types.revenue);
    in.ForEachCombined(layout,
                       [&](const spark::RawLong&, const spark::Double& sum) {
                         ++groups;
                         revenue += sum.value;
                       });
  });
  ctx.shuffle()->Release(shuffle_id);
  result.q2_exec_ms = q2_sw.ElapsedMillis();
  result.q2_gc_ms = ctx.TotalGcPauseMs() - gc0;
  uint64_t groups = 0;
  double revenue = 0;
  for (int p = 0; p < parts; ++p) {
    groups += part_groups[static_cast<size_t>(p)];
    revenue += part_revenue[static_cast<size_t>(p)];
  }
  result.q2_groups = groups;
  result.q2_revenue_sum = revenue;

  result.run.exec_ms = result.q1_exec_ms + result.q2_exec_ms;
  FinalizeResult(&ctx, &result.run);
  if (params.engine == SqlEngine::kSparkSql) {
    result.cached_mb = ToMb(columnar.bytes);
    columnar.Unregister(&ctx);
  } else {
    result.cached_mb = ToMb(result.run.totals.peak_cached_bytes);
  }
  return result;
}

}  // namespace deca::workloads
