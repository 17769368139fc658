// Distributed control-plane equivalence matrix: every workload digest,
// GC count, fault counter and native-buffer counter must be bit-identical
// between the in-process backend and the one-daemon-per-executor backend
// — across seeds, worker-thread counts, and fault scripts, including a
// real SIGKILL-and-respawn recovery per seed.
//
// The injection seed can be varied from the outside (the CI fault matrix
// sets DECA_FAULT_SEED); every test here must hold for any seed.

#include <gtest/gtest.h>

#include <cstdlib>
#include <type_traits>
#include <vector>

#include "fault/fault_config.h"
#include "spark/config.h"
#include "spark/dist.h"
#include "workloads/dist_entry.h"
#include "workloads/lr.h"
#include "workloads/serve_entry.h"
#include "workloads/wordcount.h"

namespace deca {
namespace {

uint64_t TestSeed() {
  const char* s = std::getenv("DECA_FAULT_SEED");
  return s != nullptr ? std::strtoull(s, nullptr, 10) : 1337;
}

// Small control-plane timings so death detection (missed pings + failed
// probes) completes in tens of milliseconds instead of seconds.
spark::ClusterKnobs FastKnobs() {
  spark::ClusterKnobs k;
  k.heartbeat_interval_ms = 20;
  k.heartbeat_miss_threshold = 2;
  k.reconnect_probes = 2;
  k.retry_backoff_base_ms = 5;
  return k;
}

spark::SparkConfig Config(spark::DistMode mode, int threads) {
  spark::SparkConfig cfg;
  cfg.num_executors = 2;
  cfg.partitions_per_executor = 2;
  cfg.heap.heap_bytes = 32u << 20;
  cfg.num_worker_threads = threads;
  cfg.dist_mode = mode;
  cfg.cluster = FastKnobs();
  return cfg;
}

workloads::WordCountResult Wc(spark::DistMode mode, int threads,
                              const fault::FaultConfig& fc) {
  workloads::WordCountParams p;
  p.total_words = 1u << 15;
  p.distinct_keys = 500;
  p.mode = workloads::Mode::kSpark;
  p.spark = Config(mode, threads);
  p.spark.fault = fc;
  return workloads::RunWordCount(p);
}

workloads::LrResult Lr(spark::DistMode mode, int threads,
                       const fault::FaultConfig& fc) {
  workloads::MlParams p;
  p.dims = 10;
  p.num_points = 10000;
  p.iterations = 2;
  p.mode = workloads::Mode::kSpark;
  p.spark = Config(mode, threads);
  p.spark.fault = fc;
  return workloads::RunLogisticRegression(p);
}

// The serve driver at storage_tiers = 3, with a T1 cap and an admission
// policy off their defaults, on a table twice the unified budget (as in
// bench/serve_cache) so the cold tail lives in T1 and on disk.
workloads::ServeResult Serve(spark::DistMode mode) {
  workloads::ServeParams p;
  p.num_records = 12000;
  p.record_doubles = 16;
  p.queries_per_task = 64;
  p.serve_stages = 4;
  p.spark = Config(mode, 0);
  p.spark.storage_tiers = 3;
  p.spark.t1_fraction = 0.3;
  p.spark.admit_policy = spark::AdmitPolicy::kAlways;
  p.spark.executor_memory_bytes = (p.num_records / 2) * (8 + 8 * 16) / 2;
  return workloads::RunServeCache(p);
}

void ExpectSameRun(const workloads::RunResult& a,
                   const workloads::RunResult& b) {
  EXPECT_EQ(a.minor_gcs, b.minor_gcs);
  EXPECT_EQ(a.full_gcs, b.full_gcs);
  EXPECT_EQ(a.task_retries, b.task_retries);
  EXPECT_EQ(a.injected_faults, b.injected_faults);
  EXPECT_EQ(a.executor_wipes, b.executor_wipes);
  EXPECT_EQ(a.recomputed_blocks, b.recomputed_blocks);
  EXPECT_EQ(a.oom_recoveries, b.oom_recoveries);
  // Native-buffer counters: which buffers an executor takes is engine
  // behaviour too, so they hold across threads, backends and faults.
  EXPECT_EQ(a.alloc.alloc_calls, b.alloc.alloc_calls);
  EXPECT_EQ(a.alloc.free_calls, b.alloc.free_calls);
  EXPECT_EQ(a.alloc.bytes_requested, b.alloc.bytes_requested);
  // Tier plane: every deterministic (integer) counter of the list; the
  // double entries, the promote percentiles, are wall times.
  spark::TierCounters::ForEachField([&](const char* name, auto member, Fold) {
    if constexpr (std::is_integral_v<
                      std::remove_reference_t<decltype(a.tier.*member)>>) {
      EXPECT_EQ(a.tier.*member, b.tier.*member) << "tier." << name;
    }
  });
}

TEST(ClusterDistTest, WordCountMatrixLocalEqualsProcess) {
  for (uint64_t seed : {TestSeed(), TestSeed() + 1}) {
    for (bool inject : {false, true}) {
      SCOPED_TRACE(testing::Message() << "seed=" << seed
                                      << " inject=" << inject);
      fault::FaultConfig fc;
      fc.seed = seed;
      if (inject) {
        fc.task_failure_prob = 0.5;
        fc.fetch_failure_prob = 0.25;
      }
      workloads::WordCountResult base = Wc(spark::DistMode::kInProcess, 0, fc);
      EXPECT_FALSE(base.run.dist_active);
      if (inject) {
        EXPECT_GT(base.run.task_retries, 0u);
      }

      workloads::WordCountResult par = Wc(spark::DistMode::kInProcess, 2, fc);
      EXPECT_EQ(par.total_count, base.total_count);
      EXPECT_EQ(par.distinct_found, base.distinct_found);
      EXPECT_EQ(par.shuffle_bytes, base.shuffle_bytes);
      ExpectSameRun(par.run, base.run);

      workloads::WordCountResult proc = Wc(spark::DistMode::kProcess, 0, fc);
      EXPECT_EQ(proc.total_count, base.total_count);
      EXPECT_EQ(proc.distinct_found, base.distinct_found);
      EXPECT_EQ(proc.shuffle_bytes, base.shuffle_bytes);
      ExpectSameRun(proc.run, base.run);
      ASSERT_TRUE(proc.run.dist_active);
      EXPECT_EQ(proc.run.cluster.executors_spawned, 2u);
      EXPECT_EQ(proc.run.cluster.executors_killed, 0u);
      EXPECT_EQ(proc.run.cluster.executors_declared_dead, 0u);
      EXPECT_EQ(proc.run.cluster.stage_quarantines, 0u);
      EXPECT_GT(proc.run.cluster.rpc_messages, 0u);
    }
  }
}

TEST(ClusterDistTest, LrWeightsBitIdenticalAcrossBackends) {
  for (uint64_t seed : {TestSeed(), TestSeed() + 1}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    fault::FaultConfig fc;
    fc.seed = seed;
    workloads::LrResult base = Lr(spark::DistMode::kInProcess, 0, fc);
    ASSERT_EQ(base.weights.size(), 10u);

    // Every attempt but a task's last fails, so each task retries
    // max_task_failures - 1 times whatever the seed. A lower probability
    // can leave this job's few tasks untouched (0.3 does at seeds 7 and 8).
    fc.task_failure_prob = 1.0;
    workloads::LrResult flaky = Lr(spark::DistMode::kInProcess, 0, fc);
    EXPECT_GT(flaky.run.task_retries, 0u);

    for (int threads : {0, 2}) {
      SCOPED_TRACE(threads);
      workloads::LrResult proc = Lr(spark::DistMode::kProcess, threads, fc);
      ASSERT_EQ(proc.weights.size(), base.weights.size());
      for (size_t j = 0; j < base.weights.size(); ++j) {
        EXPECT_EQ(proc.weights[j], base.weights[j]) << "dim " << j;
      }
      ExpectSameRun(proc.run, flaky.run);
      ASSERT_TRUE(proc.run.dist_active);
      EXPECT_EQ(proc.run.cluster.executors_spawned, 2u);
      EXPECT_EQ(proc.run.cluster.executors_killed, 0u);
    }
  }
}

// The tier knobs ride the job spec: every executor daemon runs the same
// 3-tier store, T1 cap and admission policy as the in-process run, so the
// digest and every tier counter match and T1 really serves hits.
TEST(ClusterDistTest, TierKnobsReachTheDaemons) {
  workloads::ServeResult base = Serve(spark::DistMode::kInProcess);
  EXPECT_FALSE(base.run.dist_active);
  EXPECT_TRUE(base.run.tier_active);

  workloads::ServeResult proc = Serve(spark::DistMode::kProcess);
  ASSERT_TRUE(proc.run.dist_active);
  EXPECT_EQ(proc.queries, base.queries);
  EXPECT_EQ(proc.digest, base.digest);
  ExpectSameRun(proc.run, base.run);
  EXPECT_GT(proc.run.tier.t1_hits, 0u);
}

// The tentpole recovery claim: in process mode a scripted crash-wipe is a
// real SIGKILL of the daemon. The driver must detect the death through
// missed heartbeats + failed reconnect probes, respawn the next
// generation, fast-forward it through the program log, replay lineage
// over RPC — and land on bit-identical weights, GC counts, and fault
// counters as the in-process wipe.
TEST(ClusterDistTest, CrashWipeIsARealSigkillAndRespawnPerSeed) {
  for (uint64_t seed : {TestSeed(), TestSeed() + 1}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    fault::FaultConfig fc;
    fc.seed = seed;
    fc.crash_wipe_stage = 1;  // stage 0 = load, 1 = first gradient stage
    fc.crash_wipe_executor = 1;

    workloads::LrResult base = Lr(spark::DistMode::kInProcess, 0, fc);
    EXPECT_EQ(base.run.executor_wipes, 1u);

    workloads::LrResult proc = Lr(spark::DistMode::kProcess, 0, fc);
    ASSERT_EQ(proc.weights.size(), base.weights.size());
    for (size_t j = 0; j < base.weights.size(); ++j) {
      EXPECT_EQ(proc.weights[j], base.weights[j]) << "dim " << j;
    }
    ExpectSameRun(proc.run, base.run);
    ASSERT_TRUE(proc.run.dist_active);
    EXPECT_EQ(proc.run.cluster.executors_killed, 1u);
    EXPECT_EQ(proc.run.cluster.executors_declared_dead, 1u);
    EXPECT_EQ(proc.run.cluster.executors_respawned, 1u);
    EXPECT_EQ(proc.run.cluster.executors_spawned, 3u);  // 2 + 1 respawn
    // The kill lands between stages; no partial stage results existed.
    EXPECT_EQ(proc.run.cluster.stage_quarantines, 0u);
    // Death was established the honest way: probes ran and failed.
    EXPECT_GT(proc.run.cluster.heartbeat_misses, 0u);
    EXPECT_GT(proc.run.cluster.reconnect_probes, 0u);
  }
}

}  // namespace
}  // namespace deca
