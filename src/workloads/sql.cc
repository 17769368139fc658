#include "workloads/sql.h"

#include <cstring>

#include "common/clock.h"
#include "common/logging.h"
#include "common/random.h"
#include "spark/block_reader.h"
#include "spark/keyed_shuffle.h"

namespace deca::workloads {

using jvm::FieldKind;
using jvm::HandleScope;
using jvm::ObjRef;

namespace {

constexpr int kRankingsRddId = 10;
constexpr int kVisitsRddId = 11;
constexpr uint32_t kUrlBytes = 24;
constexpr uint32_t kIpBytes = 16;  // 15 significant chars, padded
// Deca row widths.
constexpr uint32_t kRankingRowBytes = 8 + kUrlBytes;        // rank,dur,url
constexpr uint32_t kVisitRowBytes = 16 + kIpBytes + kUrlBytes;

/// Managed row classes + shuffle ops for Query 2's (ipPrefix, revenue)
/// aggregation.
struct SqlTypes {
  explicit SqlTypes(jvm::ClassRegistry* registry) {
    ranking_cls = registry->RegisterClass(
        "Ranking", {{"pageRank", FieldKind::kInt},
                    {"avgDuration", FieldKind::kInt},
                    {"pageURL", FieldKind::kRef}});
    visit_cls = registry->RegisterClass(
        "UserVisit", {{"visitDate", FieldKind::kLong},
                      {"adRevenue", FieldKind::kDouble},
                      {"sourceIP", FieldKind::kRef},
                      {"destURL", FieldKind::kRef}});
    const auto& rc = registry->Get(ranking_cls);
    r_rank_off = rc.FieldOffset("pageRank");
    r_dur_off = rc.FieldOffset("avgDuration");
    r_url_off = rc.FieldOffset("pageURL");
    const auto& vc = registry->Get(visit_cls);
    v_date_off = vc.FieldOffset("visitDate");
    v_rev_off = vc.FieldOffset("adRevenue");
    v_ip_off = vc.FieldOffset("sourceIP");
    v_url_off = vc.FieldOffset("destURL");

    // Swap ops (only needed if budgets force eviction; tables normally fit).
    uint32_t rr = r_rank_off, rd = r_dur_off, ru = r_url_off;
    uint32_t rcls = ranking_cls;
    rankings_ops.managed_bytes = [](jvm::Heap*, ObjRef) -> uint64_t {
      return (jvm::kHeaderBytes + 16) + (jvm::kHeaderBytes + kUrlBytes);
    };
    rankings_ops.serialize = [rr, rd, ru](jvm::Heap* h, ObjRef r,
                                          ByteWriter* w) {
      w->Write<int32_t>(h->GetField<int32_t>(r, rr));
      w->Write<int32_t>(h->GetField<int32_t>(r, rd));
      w->WriteBytes(h->ArrayData(h->GetRefField(r, ru)), kUrlBytes);
    };
    rankings_ops.deserialize = [rr, rd, ru, rcls](jvm::Heap* h,
                                                  ByteReader* rd_in) -> ObjRef {
      HandleScope scope(h);
      int32_t rank = rd_in->Read<int32_t>();
      int32_t dur = rd_in->Read<int32_t>();
      jvm::Handle url = scope.Make(
          h->AllocateArray(h->registry()->byte_array_class(), kUrlBytes));
      rd_in->ReadBytes(h->ArrayData(url.get()), kUrlBytes);
      ObjRef rec = h->AllocateInstance(rcls);
      h->SetField<int32_t>(rec, rr, rank);
      h->SetField<int32_t>(rec, rd, dur);
      h->SetRefField(rec, ru, url.get());
      return rec;
    };
    uint32_t vd = v_date_off, vr = v_rev_off, vi = v_ip_off, vu = v_url_off;
    uint32_t vcls = visit_cls;
    visits_ops.managed_bytes = [](jvm::Heap*, ObjRef) -> uint64_t {
      return (jvm::kHeaderBytes + 24) + (jvm::kHeaderBytes + kIpBytes) +
             (jvm::kHeaderBytes + kUrlBytes);
    };
    visits_ops.serialize = [vd, vr, vi, vu](jvm::Heap* h, ObjRef r,
                                            ByteWriter* w) {
      w->Write<int64_t>(h->GetField<int64_t>(r, vd));
      w->Write<double>(h->GetField<double>(r, vr));
      w->WriteBytes(h->ArrayData(h->GetRefField(r, vi)), kIpBytes);
      w->WriteBytes(h->ArrayData(h->GetRefField(r, vu)), kUrlBytes);
    };
    visits_ops.deserialize = [vd, vr, vi, vu, vcls](
                                 jvm::Heap* h, ByteReader* rd_in) -> ObjRef {
      HandleScope scope(h);
      int64_t date = rd_in->Read<int64_t>();
      double rev = rd_in->Read<double>();
      jvm::Handle ip = scope.Make(
          h->AllocateArray(h->registry()->byte_array_class(), kIpBytes));
      rd_in->ReadBytes(h->ArrayData(ip.get()), kIpBytes);
      jvm::Handle url = scope.Make(
          h->AllocateArray(h->registry()->byte_array_class(), kUrlBytes));
      rd_in->ReadBytes(h->ArrayData(url.get()), kUrlBytes);
      ObjRef rec = h->AllocateInstance(vcls);
      h->SetField<int64_t>(rec, vd, date);
      h->SetField<double>(rec, vr, rev);
      h->SetRefField(rec, vi, ip.get());
      h->SetRefField(rec, vu, url.get());
      return rec;
    };

    // Q2 shuffle ops: key = 5-char IP prefix packed into i64, value =
    // revenue sum.
    agg_ops.key_hash = [](jvm::Heap* h, ObjRef k) -> uint64_t {
      return static_cast<uint64_t>(h->GetField<int64_t>(k, 0)) *
             0x9e3779b97f4a7c15ULL;
    };
    agg_ops.key_equals = [](jvm::Heap* h, ObjRef a, ObjRef b) {
      return h->GetField<int64_t>(a, 0) == h->GetField<int64_t>(b, 0);
    };
    agg_ops.combine = [](jvm::Heap* h, ObjRef agg, ObjRef v) -> ObjRef {
      double sum = h->GetField<double>(agg, 0) + h->GetField<double>(v, 0);
      ObjRef fresh =
          h->AllocateInstance(h->registry()->boxed_double_class());
      h->SetField<double>(fresh, 0, sum);
      return fresh;
    };
    agg_ops.entry_bytes = [](jvm::Heap*, ObjRef, ObjRef) -> uint64_t {
      return 2 * (jvm::kHeaderBytes + 8) + 8;
    };
    agg_ops.serialize_key = [](jvm::Heap* h, ObjRef k, ByteWriter* w) {
      w->Write<int64_t>(h->GetField<int64_t>(k, 0));
    };
    agg_ops.serialize_value = [](jvm::Heap* h, ObjRef v, ByteWriter* w) {
      w->Write<double>(h->GetField<double>(v, 0));
    };
    agg_ops.deserialize_key = [](jvm::Heap* h, ByteReader* r) -> ObjRef {
      ObjRef k = h->AllocateInstance(h->registry()->boxed_long_class());
      h->SetField<int64_t>(k, 0, r->Read<int64_t>());
      return k;
    };
    agg_ops.deserialize_value = [](jvm::Heap* h, ByteReader* r) -> ObjRef {
      ObjRef v = h->AllocateInstance(h->registry()->boxed_double_class());
      h->SetField<double>(v, 0, r->Read<double>());
      return v;
    };
    agg_ops.deca_key_bytes = 8;
    agg_ops.deca_value_bytes = 8;
    agg_ops.deca_key_hash = [](const uint8_t* k) -> uint64_t {
      return LoadRaw<uint64_t>(k) * 0x9e3779b97f4a7c15ULL;
    };
    agg_ops.deca_combine = [](uint8_t* agg, const uint8_t* v) {
      StoreRaw<double>(agg, LoadRaw<double>(agg) + LoadRaw<double>(v));
    };
  }

  uint32_t ranking_cls, visit_cls;
  uint32_t r_rank_off, r_dur_off, r_url_off;
  uint32_t v_date_off, v_rev_off, v_ip_off, v_url_off;
  spark::RecordOps rankings_ops, visits_ops;
  spark::ShuffleOps agg_ops;
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
  ctx.RegisterCachedRdd(kRankingsRddId, &types.rankings_ops);
  ctx.RegisterCachedRdd(kVisitsRddId, &types.visits_ops);

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
      case SqlEngine::kSparkRdd: {
        HandleScope scope(h);
        jvm::Handle rarr = scope.Make(h->AllocateArray(
            h->registry()->ref_array_class(),
            static_cast<uint32_t>(ranks_per_part)));
        for (uint64_t i = 0; i < ranks_per_part; ++i) {
          HandleScope inner(h);
          FillUrl(&rng, url);
          jvm::Handle urlh = inner.Make(h->AllocateArray(
              h->registry()->byte_array_class(), kUrlBytes));
          std::memcpy(h->ArrayData(urlh.get()), url, kUrlBytes);
          ObjRef rec = h->AllocateInstance(types.ranking_cls);
          h->SetField<int32_t>(rec, types.r_rank_off,
                               static_cast<int32_t>(rng.NextBounded(1000)));
          h->SetField<int32_t>(rec, types.r_dur_off,
                               static_cast<int32_t>(rng.NextBounded(100)));
          h->SetRefField(rec, types.r_url_off, urlh.get());
          h->SetRefElem(rarr.get(), static_cast<uint32_t>(i), rec);
        }
        tc.cache()->PutObjects({kRankingsRddId, tc.partition()}, rarr.get(),
                               static_cast<uint32_t>(ranks_per_part),
                               &tc.metrics());
        jvm::Handle varr = scope.Make(h->AllocateArray(
            h->registry()->ref_array_class(),
            static_cast<uint32_t>(visits_per_part)));
        for (uint64_t i = 0; i < visits_per_part; ++i) {
          HandleScope inner(h);
          FillIp(&rng, ip);
          FillUrl(&rng, url);
          jvm::Handle iph = inner.Make(h->AllocateArray(
              h->registry()->byte_array_class(), kIpBytes));
          std::memcpy(h->ArrayData(iph.get()), ip, kIpBytes);
          jvm::Handle urlh = inner.Make(h->AllocateArray(
              h->registry()->byte_array_class(), kUrlBytes));
          std::memcpy(h->ArrayData(urlh.get()), url, kUrlBytes);
          ObjRef rec = h->AllocateInstance(types.visit_cls);
          h->SetField<int64_t>(rec, types.v_date_off,
                               static_cast<int64_t>(rng.NextBounded(365)));
          h->SetField<double>(rec, types.v_rev_off, rng.NextDouble());
          h->SetRefField(rec, types.v_ip_off, iph.get());
          h->SetRefField(rec, types.v_url_off, urlh.get());
          h->SetRefElem(varr.get(), static_cast<uint32_t>(i), rec);
        }
        tc.cache()->PutObjects({kVisitsRddId, tc.partition()}, varr.get(),
                               static_cast<uint32_t>(visits_per_part),
                               &tc.metrics());
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
      case SqlEngine::kDeca: {
        auto rpages =
            std::make_shared<core::PageGroup>(h, cfg.deca_page_bytes);
        for (uint64_t i = 0; i < ranks_per_part; ++i) {
          FillUrl(&rng, url);
          core::SegPtr seg = rpages->Append(kRankingRowBytes);
          uint8_t* p = rpages->Resolve(seg);
          StoreRaw<int32_t>(p, static_cast<int32_t>(rng.NextBounded(1000)));
          StoreRaw<int32_t>(p + 4,
                            static_cast<int32_t>(rng.NextBounded(100)));
          std::memcpy(p + 8, url, kUrlBytes);
        }
        tc.cache()->PutPages({kRankingsRddId, tc.partition()}, rpages,
                             static_cast<uint32_t>(ranks_per_part),
                             &tc.metrics());
        auto vpages =
            std::make_shared<core::PageGroup>(h, cfg.deca_page_bytes);
        for (uint64_t i = 0; i < visits_per_part; ++i) {
          FillIp(&rng, ip);
          FillUrl(&rng, url);
          core::SegPtr seg = vpages->Append(kVisitRowBytes);
          uint8_t* p = vpages->Resolve(seg);
          StoreRaw<int64_t>(p, static_cast<int64_t>(rng.NextBounded(365)));
          StoreRaw<double>(p + 8, rng.NextDouble());
          std::memcpy(p + 16, ip, kIpBytes);
          std::memcpy(p + 16 + kIpBytes, url, kUrlBytes);
        }
        tc.cache()->PutPages({kVisitsRddId, tc.partition()}, vpages,
                             static_cast<uint32_t>(visits_per_part),
                             &tc.metrics());
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
    spark::ForEachCachedRecord(
        tc, block, types.rankings_ops,
        [&](const uint8_t* p) {
          match(LoadRaw<int32_t>(p));
          return kRankingRowBytes;
        },
        [&](ObjRef rec) {
          match(h->GetField<int32_t>(rec, types.r_rank_off));
        });
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
    spark::KeyedShuffleWriter out(tc, shuffle_id, &types.agg_ops, layout);
    auto insert = [&](int64_t key, double rev) {
      out.Insert(reinterpret_cast<const uint8_t*>(&key),
                 reinterpret_cast<const uint8_t*>(&rev));
    };
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
        insert(IpPrefixKey(h->ArrayData(ips) + i * kIpBytes),
               h->GetElem<double>(revs, i));
      }
    } else {
      spark::LoadedBlock block =
          tc.cache()->Get({kVisitsRddId, tc.partition()}, &tc.metrics());
      spark::ForEachCachedRecord(
          tc, block, types.visits_ops,
          [&](const uint8_t* p) {
            insert(IpPrefixKey(p + 16), LoadRaw<double>(p + 8));
            return kVisitRowBytes;
          },
          [&](ObjRef rec) {
            ObjRef iph = h->GetRefField(rec, types.v_ip_off);
            int64_t key = IpPrefixKey(h->ArrayData(iph));
            double rev = h->GetField<double>(rec, types.v_rev_off);
            HandleScope scope(h);
            jvm::Handle k = scope.Make(
                h->AllocateInstance(h->registry()->boxed_long_class()));
            h->SetField<int64_t>(k.get(), 0, key);
            jvm::Handle v = scope.Make(
                h->AllocateInstance(h->registry()->boxed_double_class()));
            h->SetField<double>(v.get(), 0, rev);
            out.Insert(k.get(), v.get());
          });
    }
    out.Finish();
  });

  std::vector<uint64_t> part_groups(static_cast<size_t>(parts), 0);
  std::vector<double> part_revenue(static_cast<size_t>(parts), 0.0);
  ctx.RunStage("q2-reduce", [&](spark::TaskContext& tc) {
    uint64_t& groups = part_groups[static_cast<size_t>(tc.partition())];
    double& revenue = part_revenue[static_cast<size_t>(tc.partition())];
    jvm::Heap* h = tc.heap();
    spark::KeyedShuffleReader in(tc, shuffle_id, &types.agg_ops);
    in.ForEachCombined(
        layout,
        [&](const uint8_t* e) {
          ++groups;
          revenue += LoadRaw<double>(e + 8);
        },
        [&](ObjRef, ObjRef v) {
          ++groups;
          revenue += h->GetField<double>(v, 0);
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
