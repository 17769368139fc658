#include "workloads/kmeans.h"

#include <cmath>
#include <cstring>
#include <limits>

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

constexpr int kPointsRddId = 2;

/// Managed classes + shuffle ops for the per-cluster partial aggregates:
/// class ClusterStat { long count; double[] sums; }.
struct KMeansShuffle {
  KMeansShuffle(jvm::ClassRegistry* registry, int dims_in) : dims(dims_in) {
    stat_cls = registry->RegisterClass(
        "ClusterStat",
        {{"count", FieldKind::kLong}, {"sums", FieldKind::kRef}});
    const auto& ci = registry->Get(stat_cls);
    count_off = ci.FieldOffset("count");
    sums_off = ci.FieldOffset("sums");

    int d = dims;
    uint32_t stat_count = count_off;
    uint32_t stat_sums = sums_off;
    uint32_t cls = stat_cls;

    ops.key_hash = [](jvm::Heap* h, ObjRef k) -> uint64_t {
      return static_cast<uint64_t>(h->GetField<int64_t>(k, 0)) *
             0x9e3779b97f4a7c15ULL;
    };
    ops.key_equals = [](jvm::Heap* h, ObjRef a, ObjRef b) {
      return h->GetField<int64_t>(a, 0) == h->GetField<int64_t>(b, 0);
    };
    // Spark-style merge: a fresh ClusterStat (and sums array) per combine.
    ops.combine = [d, cls, stat_count, stat_sums](
                      jvm::Heap* h, ObjRef agg, ObjRef v) -> ObjRef {
      HandleScope scope(h);
      jvm::Handle ha = scope.Make(agg);
      jvm::Handle hv = scope.Make(v);
      jvm::Handle sums = scope.Make(h->AllocateArray(
          h->registry()->double_array_class(), static_cast<uint32_t>(d)));
      ObjRef asums = h->GetRefField(ha.get(), stat_sums);
      ObjRef vsums = h->GetRefField(hv.get(), stat_sums);
      for (int j = 0; j < d; ++j) {
        h->SetElem<double>(
            sums.get(), static_cast<uint32_t>(j),
            h->GetElem<double>(asums, static_cast<uint32_t>(j)) +
                h->GetElem<double>(vsums, static_cast<uint32_t>(j)));
      }
      jvm::Handle fresh = scope.Make(h->AllocateInstance(cls));
      h->SetField<int64_t>(fresh.get(), stat_count,
                           h->GetField<int64_t>(ha.get(), stat_count) +
                               h->GetField<int64_t>(hv.get(), stat_count));
      h->SetRefField(fresh.get(), stat_sums, sums.get());
      return fresh.get();
    };
    ops.entry_bytes = [d](jvm::Heap*, ObjRef, ObjRef) -> uint64_t {
      return (jvm::kHeaderBytes + 8) + (jvm::kHeaderBytes + 16) +
             (jvm::kHeaderBytes + 8ull * static_cast<uint64_t>(d)) + 8;
    };
    ops.serialize_key = [](jvm::Heap* h, ObjRef k, ByteWriter* w) {
      w->WriteVarI64(h->GetField<int64_t>(k, 0));
    };
    ops.serialize_value = [d, stat_count, stat_sums](jvm::Heap* h, ObjRef v,
                                                     ByteWriter* w) {
      w->WriteVarI64(h->GetField<int64_t>(v, stat_count));
      ObjRef sums = h->GetRefField(v, stat_sums);
      w->WriteBytes(h->ArrayData(sums), 8 * static_cast<size_t>(d));
    };
    ops.deserialize_key = [](jvm::Heap* h, ByteReader* r) -> ObjRef {
      ObjRef k = h->AllocateInstance(h->registry()->boxed_long_class());
      h->SetField<int64_t>(k, 0, r->ReadVarI64());
      return k;
    };
    ops.deserialize_value = [d, cls, stat_count, stat_sums](
                                jvm::Heap* h, ByteReader* r) -> ObjRef {
      HandleScope scope(h);
      int64_t count = r->ReadVarI64();
      jvm::Handle sums = scope.Make(h->AllocateArray(
          h->registry()->double_array_class(), static_cast<uint32_t>(d)));
      r->ReadBytes(h->ArrayData(sums.get()), 8 * static_cast<size_t>(d));
      ObjRef v = h->AllocateInstance(cls);
      h->SetField<int64_t>(v, stat_count, count);
      h->SetRefField(v, stat_sums, sums.get());
      return v;
    };
    // Deca: [count:i64 | sums: d doubles], summed in place.
    ops.deca_key_bytes = 8;
    ops.deca_value_bytes = 8 + 8 * static_cast<uint32_t>(d);
    ops.deca_key_hash = [](const uint8_t* k) -> uint64_t {
      return LoadRaw<uint64_t>(k) * 0x9e3779b97f4a7c15ULL;
    };
    ops.deca_combine = [d](uint8_t* agg, const uint8_t* v) {
      StoreRaw<int64_t>(agg, LoadRaw<int64_t>(agg) + LoadRaw<int64_t>(v));
      for (int j = 0; j < d; ++j) {
        size_t off = 8 + 8 * static_cast<size_t>(j);
        StoreRaw<double>(agg + off, LoadRaw<double>(agg + off) +
                                        LoadRaw<double>(v + off));
      }
    };
  }

  int dims;
  uint32_t stat_cls;
  uint32_t count_off, sums_off;
  spark::ShuffleOps ops;
};

int NearestCenter(const std::vector<std::vector<double>>& centers,
                  const double* point, int dims) {
  int best = 0;
  double best_d = std::numeric_limits<double>::max();
  for (size_t c = 0; c < centers.size(); ++c) {
    double dist = 0;
    for (int j = 0; j < dims; ++j) {
      double diff = centers[c][static_cast<size_t>(j)] - point[j];
      dist += diff * diff;
    }
    if (dist < best_d) {
      best_d = dist;
      best = static_cast<int>(c);
    }
  }
  return best;
}

}  // namespace

KMeansResult RunKMeans(const MlParams& params) {
  spark::SparkConfig cfg = params.spark;
  ApplyMode(params.mode, &cfg);
  spark::SparkContext ctx(cfg);
  LrTypes types(ctx.registry(), params.dims);
  KMeansShuffle shuffle(ctx.registry(), params.dims);
  ctx.RegisterCachedRdd(kPointsRddId, &types.ops());

  bool deca = params.mode == Mode::kDeca;
  spark::ShuffleLayout layout = deca ? spark::ShuffleLayout::kDecomposed
                                     : spark::ShuffleLayout::kObjects;
  KMeansResult result;
  result.run.mode = params.mode;
  int parts = ctx.num_partitions();
  uint64_t per_part = params.num_points / static_cast<uint64_t>(parts);
  int dims = params.dims;
  int k = params.clusters;

  // -- load & cache points (mixture of k Gaussians). Doubles as the
  // cached RDD's lineage, as in LR: a crash-wiped executor's partitions
  // are reloaded by re-running this task.
  auto load_task = [&types, &params, deca, dims, k, per_part,
                    page_bytes = cfg.deca_page_bytes](spark::TaskContext& tc) {
    Rng rng(params.seed + static_cast<uint64_t>(tc.partition()));
    CachePoints(tc, types, kPointsRddId, deca, page_bytes, per_part,
                [&](double* feats) {
                  int cluster = static_cast<int>(
                      rng.NextBounded(static_cast<uint64_t>(k)));
                  for (int j = 0; j < dims; ++j) {
                    feats[j] = cluster * 10.0 + rng.NextGaussian();
                  }
                  return 0.0;
                });
  };
  Stopwatch load_sw;
  ctx.RunStage("load", load_task);
  ctx.RegisterLineage(kPointsRddId, load_task);
  result.run.load_ms = load_sw.ElapsedMillis();
  ctx.ResetMetrics();

  // -- initial centers: k points spread across clusters.
  std::vector<std::vector<double>> centers(
      static_cast<size_t>(k), std::vector<double>(static_cast<size_t>(dims)));
  Rng crng(params.seed * 17 + 3);
  for (int c = 0; c < k; ++c) {
    for (int j = 0; j < dims; ++j) {
      centers[static_cast<size_t>(c)][static_cast<size_t>(j)] =
          c * 10.0 + crng.NextGaussian() * 2.0;
    }
  }

  Stopwatch exec_sw;
  for (int iter = 0; iter < params.iterations; ++iter) {
    int shuffle_id = ctx.shuffle()->RegisterShuffle(parts);

    // Map: assign points to centers, eagerly combining per-cluster sums.
    ctx.RunStage("assign", [&](spark::TaskContext& tc) {
      jvm::Heap* h = tc.heap();
      spark::KeyedShuffleWriter out(tc, shuffle_id, &shuffle.ops, layout);
      const uint32_t rec_bytes = 8 + 8 * static_cast<uint32_t>(dims);
      std::vector<uint8_t> value(shuffle.ops.deca_value_bytes);
      std::vector<double> feats(static_cast<size_t>(dims));
      ForEachPointBlock(tc, kPointsRddId, [&](const spark::LoadedBlock& block) {
        spark::ForEachCachedRecord(
            tc, block, types.ops(),
            [&](const uint8_t* p) {
              const double* f = reinterpret_cast<const double*>(p + 8);
              int64_t c = NearestCenter(centers, f, dims);
              StoreRaw<int64_t>(value.data(), 1);
              std::memcpy(value.data() + 8, f, 8 * static_cast<size_t>(dims));
              out.Insert(reinterpret_cast<const uint8_t*>(&c), value.data());
              return rec_bytes;
            },
            // Emits one fresh (key, ClusterStat) pair per point — Spark's
            // map output objects. The point stays rooted while they are
            // allocated.
            [&](ObjRef lp) {
              HandleScope scope(h);
              jvm::Handle point = scope.Make(lp);
              ObjRef dv = h->GetRefField(point.get(), types.lp_features_off());
              ObjRef data = h->GetRefField(dv, types.dv_data_off());
              for (int j = 0; j < dims; ++j) {
                feats[static_cast<size_t>(j)] =
                    h->GetElem<double>(data, static_cast<uint32_t>(j));
              }
              int64_t c = NearestCenter(centers, feats.data(), dims);
              jvm::Handle key = scope.Make(
                  h->AllocateInstance(h->registry()->boxed_long_class()));
              h->SetField<int64_t>(key.get(), 0, c);
              jvm::Handle sums = scope.Make(h->AllocateArray(
                  h->registry()->double_array_class(),
                  static_cast<uint32_t>(dims)));
              std::memcpy(h->ArrayData(sums.get()), feats.data(),
                          8 * static_cast<size_t>(dims));
              jvm::Handle stat =
                  scope.Make(h->AllocateInstance(shuffle.stat_cls));
              h->SetField<int64_t>(stat.get(), shuffle.count_off, 1);
              h->SetRefField(stat.get(), shuffle.sums_off, sums.get());
              out.Insert(key.get(), stat.get());
            });
      });
      out.Finish();
    });

    // Reduce: merge partial aggregates, emit new centers. Each cluster
    // key hashes to exactly one reducer, so concurrent tasks write
    // disjoint counts[c] / new_centers[c] rows — no races, and the
    // per-cluster float accumulation order is fixed by the reducer's
    // (map-partition-sorted) chunk order.
    std::vector<std::vector<double>> new_centers(
        static_cast<size_t>(k),
        std::vector<double>(static_cast<size_t>(dims), 0.0));
    std::vector<int64_t> counts(static_cast<size_t>(k), 0);
    ctx.RunStage("update", [&](spark::TaskContext& tc) {
      jvm::Heap* h = tc.heap();
      spark::KeyedShuffleReader in(tc, shuffle_id, &shuffle.ops);
      in.ForEachCombined(
          layout,
          [&](const uint8_t* e) {
            int64_t c = LoadRaw<int64_t>(e);
            counts[static_cast<size_t>(c)] += LoadRaw<int64_t>(e + 8);
            for (int j = 0; j < dims; ++j) {
              new_centers[static_cast<size_t>(c)][static_cast<size_t>(j)] +=
                  LoadRaw<double>(e + 16 + 8 * static_cast<size_t>(j));
            }
          },
          [&](ObjRef kk, ObjRef vv) {
            int64_t c = h->GetField<int64_t>(kk, 0);
            counts[static_cast<size_t>(c)] +=
                h->GetField<int64_t>(vv, shuffle.count_off);
            ObjRef sums = h->GetRefField(vv, shuffle.sums_off);
            for (int j = 0; j < dims; ++j) {
              new_centers[static_cast<size_t>(c)][static_cast<size_t>(j)] +=
                  h->GetElem<double>(sums, static_cast<uint32_t>(j));
            }
          });
    });
    ctx.shuffle()->Release(shuffle_id);
    for (int c = 0; c < k; ++c) {
      if (counts[static_cast<size_t>(c)] == 0) continue;
      for (int j = 0; j < dims; ++j) {
        centers[static_cast<size_t>(c)][static_cast<size_t>(j)] =
            new_centers[static_cast<size_t>(c)][static_cast<size_t>(j)] /
            static_cast<double>(counts[static_cast<size_t>(c)]);
      }
    }
  }
  result.run.exec_ms = exec_sw.ElapsedMillis();
  result.centers = centers;
  FinalizeResult(&ctx, &result.run);
  return result;
}

}  // namespace deca::workloads
