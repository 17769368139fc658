// Fault-tolerance subsystem tests: deterministic injection, bounded task
// retry, crash-wipe + lineage recovery, and OOM graceful degradation.
//
// The injection seed can be varied from the outside (the CI fault matrix
// sets DECA_FAULT_SEED); every test here must hold for any seed.

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "fault/fault_config.h"
#include "fault/fault_injector.h"
#include "fault/task_failure.h"
#include "jvm/heap.h"
#include "spark/context.h"
#include "workloads/graph.h"
#include "workloads/kmeans.h"
#include "workloads/lr.h"
#include "workloads/sql.h"
#include "workloads/wordcount.h"

namespace deca {
namespace {

uint64_t TestSeed() {
  const char* s = std::getenv("DECA_FAULT_SEED");
  return s != nullptr ? std::strtoull(s, nullptr, 10) : 1337;
}

spark::SparkConfig SmallConfig() {
  spark::SparkConfig cfg;
  cfg.num_executors = 2;
  cfg.partitions_per_executor = 2;
  cfg.heap.heap_bytes = 32u << 20;
  return cfg;
}

// ---------------------------------------------------------------------------
// FaultInjector: pure-hash decisions.

int Decision(fault::FaultInjector* inj, int stage, int partition,
             int attempt) {
  try {
    inj->OnTaskAttempt(stage, partition, attempt, nullptr);
  } catch (const fault::InjectedTaskFailure&) {
    return 1;
  } catch (const fault::ShuffleFetchFailure&) {
    return 2;
  }
  return 0;
}

TEST(FaultInjectorTest, DecisionsAreDeterministicPerSeed) {
  fault::FaultConfig fc;
  fc.seed = TestSeed();
  fc.task_failure_prob = 0.5;
  fc.fetch_failure_prob = 0.25;
  fault::FaultInjector a(fc, 4);
  fault::FaultInjector b(fc, 4);
  fc.seed = TestSeed() + 1;
  fault::FaultInjector other(fc, 4);

  int fired = 0;
  int differs = 0;
  for (int s = 0; s < 4; ++s) {
    for (int p = 0; p < 8; ++p) {
      for (int at = 0; at < 4; ++at) {
        int da = Decision(&a, s, p, at);
        EXPECT_EQ(da, Decision(&b, s, p, at));
        if (da != Decision(&other, s, p, at)) ++differs;
        if (da != 0) ++fired;
        // The last allowed attempt always runs clean.
        if (at == 3) {
          EXPECT_EQ(da, 0);
        }
      }
    }
  }
  EXPECT_GT(fired, 0);
  EXPECT_GT(differs, 0);
  EXPECT_EQ(a.TakeFired(), static_cast<uint64_t>(fired));
  EXPECT_EQ(a.TakeFired(), 0u);  // drained
}

TEST(FaultInjectorTest, ArmedAllocationFailureThrowsInjectedOom) {
  spark::SparkConfig cfg = SmallConfig();
  cfg.num_executors = 1;
  cfg.partitions_per_executor = 1;
  spark::SparkContext ctx(cfg);
  jvm::Heap* h = ctx.executor(0)->heap();

  fault::FaultConfig fc;
  fc.seed = TestSeed();
  fc.oom_failure_prob = 1.0;
  fault::FaultInjector inj(fc, 4);
  inj.OnTaskAttempt(/*stage=*/0, /*partition=*/0, /*attempt=*/0, h);
  try {
    h->AllocateInstance(h->registry()->boxed_long_class());
    FAIL() << "armed allocation should have thrown";
  } catch (const jvm::OutOfMemoryError& oom) {
    EXPECT_TRUE(oom.injected());
    EXPECT_FALSE(oom.heap_dump().empty());
  }
  // One-shot: the next allocation succeeds and the heap is untouched.
  uint64_t allocated = h->stats().objects_allocated;
  EXPECT_NE(h->AllocateInstance(h->registry()->boxed_long_class()),
            jvm::kNullRef);
  EXPECT_EQ(h->stats().objects_allocated, allocated + 1);
}

// ---------------------------------------------------------------------------
// End-to-end determinism under injection.

workloads::WordCountResult RunWc(const fault::FaultConfig& fc, int threads) {
  workloads::WordCountParams p;
  p.total_words = 1u << 16;
  p.distinct_keys = 1000;
  p.mode = workloads::Mode::kSpark;
  p.spark = SmallConfig();
  p.spark.num_worker_threads = threads;
  p.spark.fault = fc;
  return workloads::RunWordCount(p);
}

TEST(FaultToleranceTest, WordCountBitIdenticalUnderInjectedFaults) {
  workloads::WordCountResult base = RunWc(fault::FaultConfig{}, 0);
  EXPECT_EQ(base.run.task_retries, 0u);
  EXPECT_EQ(base.run.injected_faults, 0u);
  EXPECT_EQ(base.run.executor_wipes, 0u);
  EXPECT_EQ(base.run.recomputed_blocks, 0u);
  EXPECT_EQ(base.run.totals.pressure_evictions, 0u);
  EXPECT_EQ(base.run.totals.oom_recoveries, 0u);
  EXPECT_EQ(base.total_count, uint64_t{1} << 16);

  fault::FaultConfig fc;
  fc.seed = TestSeed();
  fc.task_failure_prob = 0.5;
  fc.fetch_failure_prob = 0.25;
  for (int threads : {0, 2}) {
    SCOPED_TRACE(threads);
    workloads::WordCountResult r = RunWc(fc, threads);
    EXPECT_EQ(r.total_count, base.total_count);
    EXPECT_EQ(r.distinct_found, base.distinct_found);
    EXPECT_EQ(r.shuffle_bytes, base.shuffle_bytes);
    // Failures fire before the task body touches the heap, so the GC
    // history replays exactly.
    EXPECT_EQ(r.run.totals.minor_gcs, base.run.totals.minor_gcs);
    EXPECT_EQ(r.run.totals.full_gcs, base.run.totals.full_gcs);
    EXPECT_GT(r.run.task_retries, 0u);
    EXPECT_EQ(r.run.injected_faults, r.run.task_retries);
  }
}

TEST(FaultToleranceTest, WordCountInjectedOomDegradesGracefully) {
  workloads::WordCountResult base = RunWc(fault::FaultConfig{}, 0);

  fault::FaultConfig fc;
  fc.seed = TestSeed();
  fc.oom_failure_prob = 1.0;  // every non-final attempt OOMs
  workloads::WordCountResult r = RunWc(fc, 0);
  EXPECT_EQ(r.total_count, base.total_count);
  EXPECT_EQ(r.distinct_found, base.distinct_found);
  EXPECT_EQ(r.shuffle_bytes, base.shuffle_bytes);
  // The forced failure fires at the attempt's first allocation, before any
  // object is written — the surviving attempt's GC history is unperturbed.
  EXPECT_EQ(r.run.totals.minor_gcs, base.run.totals.minor_gcs);
  EXPECT_EQ(r.run.totals.full_gcs, base.run.totals.full_gcs);
  // 2 stages x 4 tasks, each burning every attempt but the last.
  uint64_t tasks = 2ull * 4;
  EXPECT_EQ(r.run.task_retries, tasks * 3);
  EXPECT_EQ(r.run.injected_faults, tasks * 3);
}

// ---------------------------------------------------------------------------
// Crash-wipe + lineage recovery.

workloads::LrResult RunLr(const fault::FaultConfig& fc, int threads) {
  workloads::MlParams p;
  p.dims = 10;
  p.num_points = 20000;
  p.iterations = 3;
  p.mode = workloads::Mode::kSpark;
  p.spark = SmallConfig();
  p.spark.num_worker_threads = threads;
  p.spark.fault = fc;
  return workloads::RunLogisticRegression(p);
}

TEST(FaultToleranceTest, LrCrashWipeBeforeFirstIterationBitIdentical) {
  workloads::LrResult base = RunLr(fault::FaultConfig{}, 0);
  ASSERT_EQ(base.weights.size(), 10u);

  fault::FaultConfig fc;
  fc.seed = TestSeed();
  fc.crash_wipe_stage = 1;  // stage 0 = load, 1 = first gradient stage
  fc.crash_wipe_executor = 1;
  for (int threads : {0, 2}) {
    SCOPED_TRACE(threads);
    workloads::LrResult r = RunLr(fc, threads);
    ASSERT_EQ(r.weights.size(), base.weights.size());
    for (size_t j = 0; j < base.weights.size(); ++j) {
      EXPECT_EQ(r.weights[j], base.weights[j]) << "dim " << j;
    }
    // The wiped heap replays its exact load history before the first
    // gradient stage, so even the GC counts match the fault-free run.
    EXPECT_EQ(r.run.totals.minor_gcs, base.run.totals.minor_gcs);
    EXPECT_EQ(r.run.totals.full_gcs, base.run.totals.full_gcs);
    EXPECT_EQ(r.run.executor_wipes, 1u);
    // Executor 1 owns 2 of the 4 partitions.
    EXPECT_EQ(r.run.recomputed_blocks, 2u);
  }
}

TEST(FaultToleranceTest, LrCrashWipeMidRunRecoversWeights) {
  workloads::LrResult base = RunLr(fault::FaultConfig{}, 0);

  fault::FaultConfig fc;
  fc.seed = TestSeed();
  fc.crash_wipe_stage = 2;  // between the first and second gradient stages
  fc.crash_wipe_executor = 0;
  workloads::LrResult r = RunLr(fc, 0);
  ASSERT_EQ(r.weights.size(), base.weights.size());
  for (size_t j = 0; j < base.weights.size(); ++j) {
    EXPECT_EQ(r.weights[j], base.weights[j]) << "dim " << j;
  }
  EXPECT_EQ(r.run.executor_wipes, 1u);
  EXPECT_EQ(r.run.recomputed_blocks, 2u);
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

// KMeans registers its load as the points' lineage, so a wipe between the
// first assign and update stages reloads the lost partitions instead of
// scanning past them. Task failures ride along, so each seed gives the
// recovery a different retry schedule.
TEST(FaultToleranceTest, KMeansCrashWipeRecomputesPointsInEveryMode) {
  for (auto mode : {workloads::Mode::kSpark, workloads::Mode::kSparkSer,
                    workloads::Mode::kDeca}) {
    SCOPED_TRACE(workloads::ModeName(mode));
    workloads::MlParams p;
    p.dims = 4;
    p.num_points = 20000;
    p.iterations = 3;
    p.clusters = 4;
    p.mode = mode;
    p.spark = SmallConfig();
    p.spark.heap.heap_bytes = 64u << 20;
    p.spark.fault.seed = TestSeed();
    p.spark.fault.task_failure_prob = 0.3;
    p.spark.fault.crash_wipe_stage = 2;  // 0 load, 1 assign, 2 update
    p.spark.fault.crash_wipe_executor = 1;
    workloads::KMeansResult r = workloads::RunKMeans(p);
    // The fault-free centers, in every mode.
    EXPECT_EQ(CentersDigest(r.centers), 0x49a6721d94ebd95cull);
    EXPECT_EQ(r.run.executor_wipes, 1u);
    EXPECT_GT(r.run.recomputed_blocks, 0u);
    EXPECT_GT(r.run.task_retries, 0u);
  }
}

// PageRank, CC and SQL cache state that no lineage can rebuild, so a
// scheduled wipe is refused at job start instead of returning a wrong
// answer (or, for the Deca SQL engine, faulting on the missing block).
TEST(FaultToleranceDeathTest, WorkloadsWithoutLineageRejectCrashWipe) {
  spark::SparkConfig cfg = SmallConfig();
  cfg.fault.crash_wipe_stage = 2;
  cfg.fault.crash_wipe_executor = 1;
  workloads::GraphParams g;
  g.num_vertices = 1 << 10;
  g.num_edges = 1 << 12;
  g.spark = cfg;
  EXPECT_DEATH(workloads::RunPageRank(g),
               "PageRank cannot recover from a crash-wipe: the edge shuffle");
  EXPECT_DEATH(workloads::RunConnectedComponents(g),
               "ConnectedComponents cannot recover from a crash-wipe");
  workloads::SqlParams q;
  q.spark = cfg;
  for (auto engine : {workloads::SqlEngine::kSparkRdd,
                      workloads::SqlEngine::kSparkSql,
                      workloads::SqlEngine::kDeca}) {
    q.engine = engine;
    EXPECT_DEATH(workloads::RunSqlQueries(q),
                 "SQL cannot recover from a crash-wipe: its cached tables");
  }
}

// ---------------------------------------------------------------------------
// OOM graceful degradation (genuine heap exhaustion, no injection).

TEST(FaultToleranceTest, GenuineOomDegradesToEvictionAndRetry) {
  spark::SparkConfig cfg;
  cfg.num_executors = 1;
  cfg.partitions_per_executor = 1;
  cfg.heap.heap_bytes = 8u << 20;     // young 2MB, old 6MB
  cfg.heap.tenure_threshold = 1;      // promote pinned blocks quickly
  spark::SparkContext ctx(cfg);
  workloads::LrTypes types(ctx.registry(), /*dims=*/10);
  constexpr int kRdd = 7;
  ctx.RegisterCachedRdd(kRdd, &types.ops());

  // Cache ~2.4MB of points as 30 pinned object blocks (under the 2.6MB
  // storage budget, so nothing swaps out on its own).
  constexpr uint32_t kBlocks = 30;
  constexpr uint32_t kPerBlock = 500;
  ctx.RunStage("load", [&](spark::TaskContext& tc) {
    jvm::Heap* h = tc.heap();
    std::vector<double> feats(10);
    for (uint32_t b = 0; b < kBlocks; ++b) {
      jvm::HandleScope scope(h);
      jvm::Handle arr = scope.Make(
          h->AllocateArray(h->registry()->ref_array_class(), kPerBlock));
      for (uint32_t i = 0; i < kPerBlock; ++i) {
        for (auto& f : feats) f = static_cast<double>(b + i);
        jvm::HandleScope inner(h);
        jvm::ObjRef lp = types.NewLabeledPoint(h, 1.0, feats.data());
        h->SetRefElem(arr.get(), i, lp);
      }
      tc.cache()->PutObjects({kRdd, static_cast<int>(b)}, arr.get(),
                             kPerBlock, &tc.metrics());
    }
  });
  ASSERT_GT(ctx.Totals().cached_bytes, 0u);

  // A 5.8MB array cannot coexist with the pinned blocks in the 6MB old
  // gen: the allocation must be rescued by evicting the cache to disk plus
  // one full collection — not by aborting the process.
  ctx.RunStage("bigalloc", [&](spark::TaskContext& tc) {
    jvm::Heap* h = tc.heap();
    jvm::ObjRef big = h->AllocateArray(h->registry()->double_array_class(),
                                       725000);
    EXPECT_NE(big, jvm::kNullRef);
  });
  EXPECT_GT(ctx.TotalPressureEvictions(), 0u);
  EXPECT_GE(ctx.Totals().oom_recoveries, 1u);
  EXPECT_EQ(ctx.Totals().cached_bytes, 0u);  // everything went to disk

  // The evicted blocks stream back from their swap files intact.
  uint64_t total_points = 0;
  ctx.RunStage("reread", [&](spark::TaskContext& tc) {
    for (uint32_t b = 0; b < kBlocks; ++b) {
      spark::LoadedBlock blk =
          tc.cache()->Get({kRdd, static_cast<int>(b)}, &tc.metrics());
      ASSERT_TRUE(blk.valid());
      total_points += blk.count;
    }
  });
  EXPECT_EQ(total_points, uint64_t{kBlocks} * kPerBlock);
}

TEST(FaultToleranceTest, ExhaustedOomFailsTaskWithCollectorDump) {
  spark::SparkConfig cfg;
  cfg.num_executors = 1;
  cfg.partitions_per_executor = 1;
  cfg.heap.heap_bytes = 4u << 20;  // old gen 3MB
  spark::SparkContext ctx(cfg);

  // Pins 1MB arrays until the old generation genuinely cannot hold
  // another; with nothing cached, the degradation ladder has nothing to
  // shed and the task must fail with a retryable OOM after max attempts.
  try {
    ctx.RunStage("fill", [&](spark::TaskContext& tc) {
      jvm::Heap* h = tc.heap();
      jvm::HandleScope scope(h);
      jvm::Handle pins = scope.Make(
          h->AllocateArray(h->registry()->ref_array_class(), 8));
      for (uint32_t i = 0; i < 8; ++i) {
        jvm::ObjRef arr = h->AllocateArray(
            h->registry()->double_array_class(), 131072);  // 1MB
        h->SetRefElem(pins.get(), i, arr);
      }
    });
    FAIL() << "stage should have failed with TaskOomFailure";
  } catch (const fault::TaskOomFailure& oom) {
    EXPECT_FALSE(oom.heap_dump().empty());
    EXPECT_NE(oom.heap_dump().find("full GCs"), std::string::npos);
    EXPECT_EQ(oom.attempt(), cfg.max_task_failures - 1);
  }
}

// ---------------------------------------------------------------------------
// Retry semantics.

TEST(FaultToleranceTest, ManualTaskFailureRetriedOncePerPartition) {
  spark::SparkConfig cfg = SmallConfig();
  spark::SparkContext ctx(cfg);
  int nparts = ctx.num_partitions();
  std::vector<char> failed(static_cast<size_t>(nparts), 0);
  std::vector<int> runs(static_cast<size_t>(nparts), 0);
  ctx.RunStage("flaky", [&](spark::TaskContext& tc) {
    size_t p = static_cast<size_t>(tc.partition());
    ++runs[p];
    if (!failed[p]) {
      failed[p] = 1;
      throw fault::InjectedTaskFailure(0, tc.partition(), 0);
    }
  });
  EXPECT_EQ(ctx.metrics().task_retries, static_cast<uint64_t>(nparts));
  for (int r : runs) EXPECT_EQ(r, 2);
}

TEST(FaultToleranceTest, NonRetryableExceptionPropagatesImmediately) {
  spark::SparkConfig cfg = SmallConfig();
  spark::SparkContext ctx(cfg);
  std::vector<int> runs(static_cast<size_t>(ctx.num_partitions()), 0);
  EXPECT_THROW(ctx.RunStage("broken",
                            [&](spark::TaskContext& tc) {
                              ++runs[static_cast<size_t>(tc.partition())];
                              throw std::runtime_error("application bug");
                            }),
               std::runtime_error);
  // No retry for foreign exception types (later partitions may not have
  // started at all — the sequential path stops at the first error).
  EXPECT_EQ(runs[0], 1);
  for (int r : runs) EXPECT_LE(r, 1);
}

// ---------------------------------------------------------------------------
// Spill-directory hygiene.

TEST(FaultToleranceTest, SpillDirUniquePerContextAndRemoved) {
  spark::SparkConfig cfg = SmallConfig();
  std::string a_dir;
  std::string b_dir;
  {
    spark::SparkContext a(cfg);
    spark::SparkContext b(cfg);
    a_dir = a.config().spill_dir;
    b_dir = b.config().spill_dir;
    EXPECT_NE(a_dir, b_dir);
    EXPECT_TRUE(std::filesystem::exists(a_dir));
    EXPECT_TRUE(std::filesystem::exists(b_dir));
  }
  EXPECT_FALSE(std::filesystem::exists(a_dir));
  EXPECT_FALSE(std::filesystem::exists(b_dir));
}

TEST(FaultToleranceDeathTest, UnwritableSpillDirFailsWithPath) {
  spark::SparkConfig cfg = SmallConfig();
  cfg.spill_dir = "/proc/deca_no_such_spill";  // procfs: mkdir must fail
  EXPECT_DEATH({ spark::SparkContext ctx(cfg); }, "cannot create spill dir");
}

}  // namespace
}  // namespace deca
