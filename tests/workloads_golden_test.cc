// Golden rows for the three shuffle workloads that no committed bench
// baseline gates: KMeans, connected components and SQL. Each row was
// recorded once from the default paths and is asserted exactly: results,
// GC counts, cached bytes and the executor pool peaks. The mode-vs-mode
// tests in workloads_*_test compare modes with each other, so a change
// that adds allocations and leaves the results alone passes them; it
// fails here. The sizes are those tests' sizes at a 16 MB heap, where the
// Spark modes collect. A changed row is listed in CHANGES.md with its
// reason, like a regenerated bench baseline.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "workloads/graph.h"
#include "workloads/kmeans.h"
#include "workloads/sql.h"

namespace deca::workloads {
namespace {

constexpr size_t kHeapBytes = 16u << 20;

/// The run counters every row pins. Pool peaks are summed over executors.
struct GoldenRun {
  uint64_t minor_gcs;
  uint64_t full_gcs;
  uint64_t cached_bytes;
  uint64_t exec_pool_peak;
  uint64_t storage_pool_peak;
};

void ExpectRun(const RunResult& r, const GoldenRun& g) {
  EXPECT_EQ(r.minor_gcs, g.minor_gcs);
  EXPECT_EQ(r.full_gcs, g.full_gcs);
  EXPECT_EQ(r.cached_mb, static_cast<double>(g.cached_bytes) / (1 << 20));
  uint64_t exec_peak = 0;
  uint64_t storage_peak = 0;
  for (const memory::MemoryStats& m : r.executor_memory) {
    exec_peak += m.exec_peak;
    storage_peak += m.storage_peak;
  }
  EXPECT_EQ(exec_peak, g.exec_pool_peak);
  EXPECT_EQ(storage_peak, g.storage_pool_peak);
}

spark::SparkConfig SmallSpark(const char* spill_dir) {
  spark::SparkConfig cfg;
  cfg.num_executors = 2;
  cfg.partitions_per_executor = 2;
  cfg.heap.heap_bytes = kHeapBytes;
  cfg.spill_dir = spill_dir;
  return cfg;
}

/// FNV-1a over the centers' bit patterns: every coordinate, exactly.
uint64_t CentersDigest(const std::vector<std::vector<double>>& centers) {
  uint64_t h = 14695981039346656037ull;
  for (const auto& center : centers) {
    for (double v : center) {
      h ^= std::bit_cast<uint64_t>(v);
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(GoldenRows, KMeans) {
  const struct {
    Mode mode;
    GoldenRun run;
  } rows[] = {
      {Mode::kSpark, {6, 0, 3280064, 0, 3280064}},
      {Mode::kSparkSer, {8, 0, 1780064, 0, 1780064}},
      {Mode::kDeca, {0, 0, 1835456, 917728, 1835456}},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(ModeName(row.mode));
    MlParams p;  // KMeansWorkloadTest's size
    p.dims = 10;
    p.num_points = 20000;
    p.iterations = 3;
    p.clusters = 4;
    p.mode = row.mode;
    p.spark = SmallSpark("/tmp/deca_test_spill_golden");
    KMeansResult r = RunKMeans(p);
    EXPECT_EQ(CentersDigest(r.centers), 0x65435c6e6520c4d0ull);
    ExpectRun(r.run, row.run);
  }
}

TEST(GoldenRows, ConnectedComponents) {
  const struct {
    Mode mode;
    GoldenRun run;
  } rows[] = {
      {Mode::kSpark, {6, 0, 391748, 0, 391748}},
      {Mode::kSparkSer, {7, 0, 268875, 0, 268875}},
      {Mode::kDeca, {0, 0, 393312, 262208, 393312}},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(ModeName(row.mode));
    GraphParams p;  // GraphModeTest's size
    p.num_vertices = 1 << 12;
    p.num_edges = 1 << 15;
    p.iterations = 8;
    p.mode = row.mode;
    p.spark = SmallSpark("/tmp/deca_test_spill_golden");
    ConnectedComponentsResult r = RunConnectedComponents(p);
    EXPECT_EQ(r.components, 4u);
    EXPECT_EQ(r.label_updates, 4425u);
    ExpectRun(r.run, row.run);
  }
}

TEST(GoldenRows, Sql) {
  const struct {
    SqlEngine engine;
    GoldenRun run;
  } rows[] = {
      {SqlEngine::kSparkRdd, {6, 0, 12320128, 0, 12320128}},
      {SqlEngine::kSparkSql, {0, 0, 0, 393312, 0}},
      {SqlEngine::kDeca, {0, 0, 6030784, 2359872, 6030784}},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(SqlEngineName(row.engine));
    SqlParams p;  // SqlEngineTest's size
    p.rankings_rows = 40000;
    p.uservisits_rows = 80000;
    p.engine = row.engine;
    p.spark = SmallSpark("/tmp/deca_test_spill_golden");
    SqlResult r = RunSqlQueries(p);
    EXPECT_EQ(r.q1_matches, 35873u);
    EXPECT_EQ(r.q1_rank_sum, 19624196.0);
    EXPECT_EQ(r.q2_groups, 9994u);
    EXPECT_EQ(r.q2_revenue_sum, 40000.636866093664);
    ExpectRun(r.run, row.run);
  }
}

}  // namespace
}  // namespace deca::workloads
