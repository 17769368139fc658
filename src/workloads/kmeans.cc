#include "workloads/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/clock.h"
#include "common/logging.h"
#include "common/random.h"
#include "spark/block_reader.h"
#include "spark/keyed_shuffle.h"
#include "workloads/records.h"

namespace deca::workloads {

namespace {

constexpr int kPointsRddId = 2;

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
  const auto stats = ClusterStats(ctx.registry(), params.dims);
  ctx.RegisterCachedRdd(kPointsRddId, &types.ops());

  bool deca = params.mode == Mode::kDeca;
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
      spark::KeyedShuffleWriter out(tc, shuffle_id, stats);
      ClusterStat stat = stats.value().Value();
      stat.count = 1;
      ForEachPointBlock(tc, kPointsRddId, [&](const spark::LoadedBlock& block) {
        // Emits one (cluster, ClusterStat) pair per point — in object
        // mode Spark's fresh map output objects, built after the point's
        // features were copied out.
        spark::ForEachCachedRecord(
            tc, block, types.point(), [&](const LabeledPoint& point) {
              const std::vector<double>& f = point.features.data;
              std::copy(f.begin(), f.end(), stat.sums.begin());
              out.Emit(spark::Long{NearestCenter(centers, f.data(), dims)},
                       stat);
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
      spark::KeyedShuffleReader in(tc, shuffle_id, stats);
      in.ForEachCombined([&](const spark::Long& c, const ClusterStat& stat) {
        size_t row = static_cast<size_t>(c.value);
        counts[row] += stat.count;
        for (int j = 0; j < dims; ++j) {
          new_centers[row][static_cast<size_t>(j)] +=
              stat.sums[static_cast<size_t>(j)];
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
