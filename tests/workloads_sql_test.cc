#include <gtest/gtest.h>

#include "workloads/sql.h"

namespace deca::workloads {
namespace {

SqlParams SmallSql(SqlEngine engine) {
  SqlParams p;
  p.rankings_rows = 40000;
  p.uservisits_rows = 80000;
  p.engine = engine;
  p.spark.num_executors = 2;
  p.spark.partitions_per_executor = 2;
  p.spark.heap.heap_bytes = 64u << 20;
  p.spark.spill_dir = "/tmp/deca_test_spill_sql";
  return p;
}

class SqlEngineTest : public ::testing::TestWithParam<SqlEngine> {};

TEST_P(SqlEngineTest, QueriesProduceSaneResults) {
  SqlResult r = RunSqlQueries(SmallSql(GetParam()));
  // pageRank uniform in [0, 1000): ~90% pass "> 100".
  EXPECT_GT(r.q1_matches, 30000u);
  EXPECT_LT(r.q1_matches, 40000u);
  EXPECT_GT(r.q1_rank_sum, 0.0);
  // The 5-char prefix "ddd.d" has exactly 10^4 possible values; with 80k
  // rows nearly all appear.
  EXPECT_GT(r.q2_groups, 9000u);
  EXPECT_LE(r.q2_groups, 10000u);
  // adRevenue uniform in [0,1): total ~ rows/2.
  EXPECT_NEAR(r.q2_revenue_sum, 40000.0, 2000.0);
  EXPECT_GT(r.cached_mb, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, SqlEngineTest,
    ::testing::Values(SqlEngine::kSparkRdd, SqlEngine::kSparkSql,
                      SqlEngine::kDeca),
    [](const ::testing::TestParamInfo<SqlEngine>& info) {
      return std::string(SqlEngineName(info.param));
    });

TEST(SqlTest, EnginesAgreeExactly) {
  SqlResult spark = RunSqlQueries(SmallSql(SqlEngine::kSparkRdd));
  SqlResult sql = RunSqlQueries(SmallSql(SqlEngine::kSparkSql));
  SqlResult deca = RunSqlQueries(SmallSql(SqlEngine::kDeca));
  EXPECT_EQ(spark.q1_matches, sql.q1_matches);
  EXPECT_EQ(spark.q1_matches, deca.q1_matches);
  EXPECT_EQ(spark.q1_rank_sum, sql.q1_rank_sum);
  EXPECT_EQ(spark.q1_rank_sum, deca.q1_rank_sum);
  EXPECT_EQ(spark.q2_groups, sql.q2_groups);
  EXPECT_EQ(spark.q2_groups, deca.q2_groups);
  EXPECT_EQ(spark.q2_revenue_sum, sql.q2_revenue_sum);
  EXPECT_EQ(spark.q2_revenue_sum, deca.q2_revenue_sum);
}

TEST(SqlTest, ColumnarAndDecaCacheLessThanObjects) {
  SqlResult spark = RunSqlQueries(SmallSql(SqlEngine::kSparkRdd));
  SqlResult sql = RunSqlQueries(SmallSql(SqlEngine::kSparkSql));
  SqlResult deca = RunSqlQueries(SmallSql(SqlEngine::kDeca));
  // Table 6 shape: Spark object caching is ~3x larger than columnar/Deca.
  EXPECT_GT(spark.cached_mb, 1.5 * sql.cached_mb);
  EXPECT_GT(spark.cached_mb, 1.5 * deca.cached_mb);
}

}  // namespace
}  // namespace deca::workloads
