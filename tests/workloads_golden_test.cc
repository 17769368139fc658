// Golden rows for every workload in every mode: WordCount, KMeans,
// connected components and SQL (the shuffle workloads), LR, PageRank and
// the three stream workloads (every cached-block read form), and serve
// (the tier ladder). Each row was recorded once from the default
// paths and is asserted exactly: results, GC counts, cached bytes, the
// executor pool peaks and, for streams, the bytes epoch regions
// reclaimed. The mode-vs-mode tests in workloads_*_test compare modes
// with each other, so a change that adds allocations and leaves the
// results alone passes them; it fails here. The batch sizes are those
// tests' sizes at a 16 MB heap, the stream sizes the workload defaults
// over 8 epochs at an 8 MB heap; at both the Spark modes collect. A
// changed row is listed in CHANGES.md with its reason, like a
// regenerated bench baseline.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "workloads/graph.h"
#include "workloads/kmeans.h"
#include "workloads/lr.h"
#include "workloads/serve_entry.h"
#include "workloads/sql.h"
#include "workloads/stream.h"
#include "workloads/wordcount.h"

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
  EXPECT_EQ(r.totals.minor_gcs, g.minor_gcs);
  EXPECT_EQ(r.totals.full_gcs, g.full_gcs);
  EXPECT_EQ(r.totals.peak_cached_bytes, g.cached_bytes);
  EXPECT_EQ(r.totals.memory.exec_peak, g.exec_pool_peak);
  EXPECT_EQ(r.totals.memory.storage_peak, g.storage_pool_peak);
}

spark::SparkConfig SmallSpark(const char* spill_dir,
                              size_t heap_bytes = kHeapBytes) {
  spark::SparkConfig cfg;
  cfg.num_executors = 2;
  cfg.partitions_per_executor = 2;
  cfg.heap.heap_bytes = heap_bytes;
  cfg.spill_dir = spill_dir;
  return cfg;
}

/// FNV-1a over the values' bit patterns: every value, exactly.
uint64_t BitsDigest(const std::vector<double>& values,
                    uint64_t h = 14695981039346656037ull) {
  for (double v : values) {
    h ^= std::bit_cast<uint64_t>(v);
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t CentersDigest(const std::vector<std::vector<double>>& centers) {
  uint64_t h = 14695981039346656037ull;
  for (const auto& center : centers) h = BitsDigest(center, h);
  return h;
}

TEST(GoldenRows, WordCount) {
  const struct {
    Mode mode;
    uint64_t shuffle_bytes;
    GoldenRun run;
  } rows[] = {
      {Mode::kSpark, 1607350, {14, 4, 0, 0, 0}},
      {Mode::kSparkSer, 1607350, {14, 4, 0, 0, 0}},
      {Mode::kDeca, 5768560, {0, 0, 0, 3015392, 0}},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(ModeName(row.mode));
    // About 90k distinct words per map task: the object buffer's
    // estimate (entry_bytes per word) outgrows the 5.2 MB shuffle budget,
    // so every Spark-mode map side drains before Finish.
    WordCountParams p;
    p.total_words = 480000;
    p.distinct_keys = 200000;
    p.mode = row.mode;
    p.spark = SmallSpark("/tmp/deca_test_spill_golden");
    WordCountResult r = RunWordCount(p);
    EXPECT_EQ(r.total_count, 480000u);
    EXPECT_EQ(r.distinct_found, 181751u);
    EXPECT_EQ(r.shuffle_bytes, row.shuffle_bytes);
    ExpectRun(r.run, row.run);
  }
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

TEST(GoldenRows, LogisticRegression) {
  const struct {
    Mode mode;
    GoldenRun run;
  } rows[] = {
      {Mode::kSpark, {2, 0, 3280064, 0, 3280064}},
      {Mode::kSparkSer, {4, 0, 1780064, 0, 1780064}},
      {Mode::kDeca, {0, 0, 1835456, 917728, 1835456}},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(ModeName(row.mode));
    MlParams p;  // LrWorkloadTest's size
    p.dims = 10;
    p.num_points = 20000;
    p.iterations = 3;
    p.mode = row.mode;
    p.spark = SmallSpark("/tmp/deca_test_spill_golden");
    LrResult r = RunLogisticRegression(p);
    EXPECT_EQ(BitsDigest(r.weights), 0x25c4c48a3c53a2c2ull);
    ExpectRun(r.run, row.run);
  }
}

TEST(GoldenRows, PageRank) {
  const struct {
    Mode mode;
    GoldenRun run;
  } rows[] = {
      {Mode::kSpark, {2, 0, 391748, 0, 391748}},
      {Mode::kSparkSer, {3, 0, 268875, 0, 268875}},
      {Mode::kDeca, {0, 0, 393312, 262208, 393312}},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(ModeName(row.mode));
    GraphParams p;  // GraphModeTest's size
    p.num_vertices = 1 << 12;
    p.num_edges = 1 << 15;
    p.iterations = 3;
    p.mode = row.mode;
    p.spark = SmallSpark("/tmp/deca_test_spill_golden");
    PageRankResult r = RunPageRank(p);
    EXPECT_EQ(r.rank_sum, 2445.6871271219002);
    EXPECT_EQ(r.vertices_ranked, 2532u);
    ExpectRun(r.run, row.run);
  }
}

/// Every integral tier.* counter (the percentiles are wall times), in
/// TierCounters' list order.
std::vector<uint64_t> TierCounts(const spark::TierCounters& t) {
  std::vector<uint64_t> counts;
  ForEachLeaf(t, [&](const std::string&, auto value) {
    if constexpr (std::is_integral_v<decltype(value)>) counts.push_back(value);
  });
  return counts;
}

TEST(GoldenRows, Serve) {
  const struct {
    Mode mode;
    GoldenRun run;
    std::vector<uint64_t> tier;
  } rows[] = {
      {Mode::kSpark,
       {7, 0, 1129264, 0, 1129264},
       {434208, 270712, 1092712, 280576, 841, 101, 82, 0, 111, 90, 183, 0}},
      {Mode::kSparkSer,
       {0, 0, 841792, 0, 841792},
       {411048, 140288, 1092712, 280576, 894, 38, 92, 0, 47, 100, 130, 0}},
      {Mode::kDeca,
       {0, 0, 786624, 393312, 786624},
       {393312, 0, 1353616, 557120, 838, 76, 110, 0, 86, 120, 186, 0}},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(ModeName(row.mode));
    // ClusterDistTest's serve size: the table is twice the unified
    // budget and T1 is capped at 30% of it, so blocks move through all
    // three tiers and come back.
    ServeParams p;
    p.num_records = 12000;
    p.record_doubles = 16;
    p.queries_per_task = 64;
    p.serve_stages = 4;
    p.mode = row.mode;
    p.spark = SmallSpark("/tmp/deca_test_spill_golden");
    p.spark.storage_tiers = 3;
    p.spark.t1_fraction = 0.3;
    p.spark.admit_policy = spark::AdmitPolicy::kAlways;
    p.spark.executor_memory_bytes = (p.num_records / 2) * (8 + 8 * 16) / 2;
    ServeResult r = RunServeCache(p);
    EXPECT_EQ(r.queries, 1024u);
    EXPECT_EQ(r.digest, 0x761966352aee48a5ull);
    ExpectRun(r.run, row.run);
    EXPECT_EQ(TierCounts(r.run.totals.tier), row.tier);
  }
}

/// One stream row: the run counters plus the bytes its epoch regions
/// reclaimed.
struct StreamRow {
  Mode mode;
  GoldenRun run;
  uint64_t reclaimed_bytes;
};

using StreamFn = StreamResult (*)(const StreamParams&);

void ExpectStreamRows(StreamFn fn, int window, int slide,
                      const StreamRow (&rows)[3], uint64_t digest,
                      uint64_t windows, uint64_t records) {
  for (const StreamRow& row : rows) {
    SCOPED_TRACE(ModeName(row.mode));
    StreamParams p;
    p.stream.epochs = 8;
    p.stream.window = window;
    p.stream.slide = slide;
    p.records_per_epoch = 20000;
    p.distinct_keys = 2048;
    p.seed = 3;
    p.mode = row.mode;
    p.spark = SmallSpark("/tmp/deca_test_spill_golden", 8u << 20);
    StreamResult r = fn(p);
    EXPECT_EQ(r.digest, digest);
    EXPECT_EQ(r.windows, windows);
    EXPECT_EQ(r.records_processed, records);
    ExpectRun(r.run, row.run);
    EXPECT_EQ(r.run.epoch_reclaimed_bytes, row.reclaimed_bytes);
  }
}

TEST(GoldenRows, StreamWordCount) {
  const StreamRow rows[] = {
      {Mode::kSpark, {12, 0, 147584, 0, 147584}, 767801},
      {Mode::kSparkSer, {12, 0, 65664, 0, 65664}, 440161},
      {Mode::kDeca, {0, 0, 524416, 131104, 524416}, 3054512},
  };
  ExpectStreamRows(RunStreamWordCount, 2, 0, rows, 0xdd09322aa8bcce8dull, 4,
                   160000);
}

TEST(GoldenRows, StreamSessionize) {
  const StreamRow rows[] = {
      {Mode::kSpark, {14, 0, 123008, 0, 123008}, 812445},
      {Mode::kSparkSer, {14, 0, 82048, 0, 82048}, 648605},
      {Mode::kDeca, {0, 0, 524416, 131104, 524416}, 3398064},
  };
  ExpectStreamRows(RunStreamSessionize, 2, 0, rows, 0x92119efeeeccf44bull, 4,
                   160000);
}

TEST(GoldenRows, StreamSlidingWindow) {
  const StreamRow rows[] = {
      {Mode::kSpark, {6, 0, 1088, 0, 1088}, 2176},
      {Mode::kSparkSer, {6, 0, 768, 0, 768}, 1536},
      {Mode::kDeca, {0, 0, 1048832, 131104, 1048832}, 2097664},
  };
  ExpectStreamRows(RunStreamSlidingAgg, 4, 2, rows, 0x78a3377b3f0bb231ull, 3,
                   240000);
}

}  // namespace
}  // namespace deca::workloads
