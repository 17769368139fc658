#include <gtest/gtest.h>

#include "workloads/kmeans.h"
#include "workloads/lr.h"

namespace deca::workloads {
namespace {

MlParams SmallParams(Mode mode) {
  MlParams p;
  p.dims = 10;
  p.num_points = 20000;
  p.iterations = 3;
  p.mode = mode;
  p.spark.num_executors = 2;
  p.spark.partitions_per_executor = 2;
  p.spark.heap.heap_bytes = 48u << 20;
  p.spark.spill_dir = "/tmp/deca_test_spill_ml";
  return p;
}

TEST(LrTypesTest, ClassifiesAsSfstWithLayout) {
  jvm::ClassRegistry registry;
  LrTypes types(&registry, 10);
  EXPECT_EQ(types.classified(), analysis::SizeType::kStaticFixed);
  EXPECT_EQ(types.layout().static_size(), 8u + 80u);
  EXPECT_EQ(types.layout().field("label").offset, 0u);
  EXPECT_EQ(types.layout().field("features.data").offset, 8u);
}

TEST(LrTypesTest, RecordOpsRoundTrips) {
  jvm::ClassRegistry registry;
  LrTypes types(&registry, 4);
  jvm::HeapConfig hc;
  hc.heap_bytes = 8u << 20;
  jvm::Heap heap(hc, &registry);
  jvm::HandleScope scope(&heap);
  double feats[4] = {1.0, -2.5, 3.25, 0.0};
  jvm::Handle lp = scope.Make(types.NewLabeledPoint(&heap, 1.0, feats));

  // Serialize -> deserialize.
  ByteWriter w;
  types.ops().serialize(&heap, lp.get(), &w);
  ByteReader r(w.data(), w.size());
  jvm::Handle lp2 = scope.Make(types.ops().deserialize(&heap, &r));
  EXPECT_EQ(heap.GetField<double>(lp2.get(), types.lp_label_off()), 1.0);

  // Decompose -> reconstruct, through the declaration's decomposed
  // store and load.
  const spark::RecordType<LabeledPoint>& point = types.point();
  std::vector<uint8_t> seg(point.decomposed_bytes());
  LabeledPoint value;
  point.Read(&heap, lp.get(), &value);
  point.Store(seg.data(), value);
  EXPECT_EQ(LoadRaw<double>(seg.data()), 1.0);
  EXPECT_EQ(LoadRaw<double>(seg.data() + 8 + 16), 3.25);
  LabeledPoint loaded;
  point.Load(seg.data(), &loaded);
  jvm::Handle lp3 = scope.Make(point.Build(&heap, loaded));
  jvm::ObjRef dv = heap.GetRefField(lp3.get(), types.lp_features_off());
  jvm::ObjRef data = heap.GetRefField(dv, types.dv_data_off());
  for (uint32_t j = 0; j < 4; ++j) {
    EXPECT_EQ(heap.GetElem<double>(data, j), feats[j]);
  }
}

/// CachePoints' `deca` and `page_bytes` restate the context's cache form
/// and page size; a call that contradicts either dies naming both values.
TEST(CachePointsTest, ArgumentsTheContextContradictsDie) {
  MlParams p = SmallParams(Mode::kSpark);
  spark::SparkConfig cfg = p.spark;
  ApplyMode(p.mode, &cfg);
  spark::SparkContext ctx(cfg);
  LrTypes types(ctx.registry(), p.dims);
  ctx.RegisterCachedRdd(1, &types.ops());
  spark::TaskContext tc(&ctx, ctx.executor_for_partition(0), 0,
                        ctx.num_partitions());
  auto gen = [](double*) { return 1.0; };
  EXPECT_DEATH(CachePoints(tc, types, 1, /*deca=*/true, 65536, 8, gen),
               "CachePoints: deca=1 page_bytes=65536 disagree with the "
               "context's decomposed cache=0 deca_page_bytes=65536");
  EXPECT_DEATH(CachePoints(tc, types, 1, /*deca=*/false, 4096, 8, gen),
               "deca=0 page_bytes=4096 disagree with the context's "
               "decomposed cache=0 deca_page_bytes=65536");
  CachePoints(tc, types, 1, /*deca=*/false, 65536, 8, gen);
  EXPECT_TRUE(tc.cache()->Get({1, 0}, &tc.metrics()).valid());
}

TEST(LrWorkloadTest, AllModesComputeIdenticalWeights) {
  LrResult spark = RunLogisticRegression(SmallParams(Mode::kSpark));
  LrResult ser = RunLogisticRegression(SmallParams(Mode::kSparkSer));
  LrResult deca = RunLogisticRegression(SmallParams(Mode::kDeca));
  ASSERT_EQ(spark.weights.size(), 10u);
  for (size_t j = 0; j < spark.weights.size(); ++j) {
    EXPECT_DOUBLE_EQ(spark.weights[j], ser.weights[j]) << "dim " << j;
    EXPECT_DOUBLE_EQ(spark.weights[j], deca.weights[j]) << "dim " << j;
  }
  EXPECT_GT(spark.run.exec_ms, 0.0);
  EXPECT_GT(deca.run.exec_ms, 0.0);
}

TEST(LrWorkloadTest, DecaCachesFewerBytesThanSpark) {
  LrResult spark = RunLogisticRegression(SmallParams(Mode::kSpark));
  LrResult deca = RunLogisticRegression(SmallParams(Mode::kDeca));
  EXPECT_LT(deca.run.totals.peak_cached_bytes,
            spark.run.totals.peak_cached_bytes);
}

TEST(LrWorkloadTest, ProfileSeriesRecorded) {
  MlParams p = SmallParams(Mode::kSpark);
  p.profile = true;
  LrResult r = RunLogisticRegression(p);
  ASSERT_EQ(r.run.object_counts.size(), 3u);  // one sample per iteration
  // Cached LabeledPoint count stays stable across iterations (they are
  // long-living — paper Figure 9a).
  EXPECT_GT(r.run.object_counts.values[0], 0.0);
  EXPECT_EQ(r.run.object_counts.values[0], r.run.object_counts.values[2]);
}

TEST(KMeansWorkloadTest, AllModesComputeIdenticalCenters) {
  MlParams p = SmallParams(Mode::kSpark);
  p.clusters = 4;
  KMeansResult spark = RunKMeans(p);
  p.mode = Mode::kSparkSer;
  KMeansResult ser = RunKMeans(p);
  p.mode = Mode::kDeca;
  KMeansResult deca = RunKMeans(p);
  ASSERT_EQ(spark.centers.size(), 4u);
  for (size_t c = 0; c < spark.centers.size(); ++c) {
    for (size_t j = 0; j < spark.centers[c].size(); ++j) {
      EXPECT_NEAR(spark.centers[c][j], ser.centers[c][j], 1e-9);
      EXPECT_NEAR(spark.centers[c][j], deca.centers[c][j], 1e-9);
    }
  }
}

TEST(KMeansWorkloadTest, CentersConvergeNearClusterMeans) {
  MlParams p = SmallParams(Mode::kDeca);
  p.clusters = 4;
  p.iterations = 5;
  KMeansResult r = RunKMeans(p);
  // Generated clusters sit at (c*10, ...); centers should land near them.
  std::vector<bool> found(4, false);
  for (const auto& center : r.centers) {
    for (int c = 0; c < 4; ++c) {
      bool near = true;
      for (double v : center) {
        if (std::abs(v - c * 10.0) > 2.0) near = false;
      }
      if (near) found[static_cast<size_t>(c)] = true;
    }
  }
  for (int c = 0; c < 4; ++c) EXPECT_TRUE(found[static_cast<size_t>(c)]);
}

}  // namespace
}  // namespace deca::workloads
