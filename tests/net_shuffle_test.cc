// Network-shuffle equivalence tests: the loopback (and TCP) transports
// must produce bit-identical workload results, GC counts, and fault
// counters to the local in-memory shuffle — with and without injected
// faults — across a seed x threads x fault-config matrix. The wire layer
// may only add net.* counters, never change what is computed.
//
// CI varies DECA_FAULT_SEED; every test here must hold for any seed.

#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>
#include <vector>

#include "fault/fault_config.h"
#include "net/loopback_transport.h"
#include "spark/config.h"
#include "spark/network_shuffle.h"
#include "workloads/graph.h"
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

workloads::WordCountResult RunWc(const spark::SparkConfig& spark,
                                 workloads::Mode mode, int threads) {
  workloads::WordCountParams p;
  p.total_words = uint64_t{1} << 16;
  p.distinct_keys = 512;
  p.mode = mode;
  p.spark = spark;
  p.spark.num_worker_threads = threads;
  return workloads::RunWordCount(p);
}

workloads::LrResult RunLr(const spark::SparkConfig& spark, int threads) {
  workloads::MlParams p;
  p.dims = 10;
  p.num_points = 20000;
  p.iterations = 3;
  p.mode = workloads::Mode::kSpark;
  p.spark = spark;
  p.spark.num_worker_threads = threads;
  return workloads::RunLogisticRegression(p);
}

// Everything the wire must not perturb, in one comparison.
void ExpectWcEquivalent(const workloads::WordCountResult& net,
                        const workloads::WordCountResult& local) {
  EXPECT_EQ(net.total_count, local.total_count);
  EXPECT_EQ(net.distinct_found, local.distinct_found);
  EXPECT_EQ(net.shuffle_bytes, local.shuffle_bytes);
  EXPECT_EQ(net.run.totals.minor_gcs, local.run.totals.minor_gcs);
  EXPECT_EQ(net.run.totals.full_gcs, local.run.totals.full_gcs);
  EXPECT_EQ(net.run.task_retries, local.run.task_retries);
  EXPECT_EQ(net.run.injected_faults, local.run.injected_faults);
  EXPECT_EQ(net.run.totals.oom_recoveries, local.run.totals.oom_recoveries);
  EXPECT_EQ(net.run.executor_wipes, local.run.executor_wipes);
  EXPECT_EQ(net.run.recomputed_blocks, local.run.recomputed_blocks);
}

// ---------------------------------------------------------------------------
// Seed matrix: local vs loopback, both workload modes, sequential and
// parallel, fault-free and under injected task+fetch failures and OOM.

TEST(NetShuffleEquivalence, WordCountSeedMatrixBitIdentical) {
  std::vector<fault::FaultConfig> fault_configs(3);
  fault_configs[1].task_failure_prob = 0.5;
  fault_configs[1].fetch_failure_prob = 0.25;
  fault_configs[2].oom_failure_prob = 1.0;

  for (uint64_t seed : {TestSeed(), TestSeed() + 1, uint64_t{99}}) {
    for (size_t fi = 0; fi < fault_configs.size(); ++fi) {
      fault::FaultConfig fc = fault_configs[fi];
      fc.seed = seed;
      for (workloads::Mode mode :
           {workloads::Mode::kSpark, workloads::Mode::kDeca}) {
        spark::SparkConfig cfg = SmallConfig();
        cfg.fault = fc;
        workloads::WordCountResult local =
            RunWc(cfg, mode, /*threads=*/0);
        cfg.shuffle_transport = spark::ShuffleTransport::kLoopback;
        for (int threads : {0, 2}) {
          SCOPED_TRACE(testing::Message()
                       << "seed=" << seed << " faults=" << fi << " mode="
                       << static_cast<int>(mode) << " threads=" << threads);
          workloads::WordCountResult net = RunWc(cfg, mode, threads);
          ExpectWcEquivalent(net, local);
          EXPECT_TRUE(net.run.net_active);
          EXPECT_FALSE(local.run.net_active);
          EXPECT_GT(net.run.totals.net.wire_bytes, 0u);
          if (fi == 1) {
            EXPECT_GT(net.run.injected_faults, 0u);
          }
        }
      }
    }
  }
}

TEST(NetShuffleEquivalence, LrCrashWipeBitIdentical) {
  fault::FaultConfig fc;
  fc.seed = TestSeed();
  fc.crash_wipe_stage = 1;
  fc.crash_wipe_executor = 1;

  spark::SparkConfig cfg = SmallConfig();
  cfg.fault = fc;
  workloads::LrResult local = RunLr(cfg, /*threads=*/0);
  ASSERT_EQ(local.weights.size(), 10u);
  EXPECT_EQ(local.run.executor_wipes, 1u);

  cfg.shuffle_transport = spark::ShuffleTransport::kLoopback;
  for (int threads : {0, 2}) {
    SCOPED_TRACE(threads);
    workloads::LrResult net = RunLr(cfg, threads);
    ASSERT_EQ(net.weights.size(), local.weights.size());
    for (size_t j = 0; j < local.weights.size(); ++j) {
      EXPECT_EQ(net.weights[j], local.weights[j]) << "dim " << j;
    }
    EXPECT_EQ(net.run.totals.minor_gcs, local.run.totals.minor_gcs);
    EXPECT_EQ(net.run.totals.full_gcs, local.run.totals.full_gcs);
    EXPECT_EQ(net.run.executor_wipes, 1u);
    EXPECT_EQ(net.run.recomputed_blocks, local.run.recomputed_blocks);
  }
}

// The wire plane itself must replay identically: two loopback runs with
// the same seed agree on every deterministic counter, and so do
// sequential vs parallel runs of the same configuration.
TEST(NetShuffleEquivalence, WireCountersDeterministic) {
  spark::SparkConfig cfg = SmallConfig();
  cfg.shuffle_transport = spark::ShuffleTransport::kLoopback;
  cfg.fault.seed = TestSeed();
  cfg.fault.fetch_failure_prob = 0.25;

  workloads::WordCountResult a = RunWc(cfg, workloads::Mode::kDeca, 0);
  for (int threads : {0, 2}) {
    SCOPED_TRACE(threads);
    workloads::WordCountResult b =
        RunWc(cfg, workloads::Mode::kDeca, threads);
    ExpectWcEquivalent(b, a);
    // Every deterministic (integral) wire counter of the list.
    net::NetStatsSnapshot::ForEachField(
        [&](const char* name, auto member, Fold) {
          const auto& x = a.run.totals.net.*member;
          if constexpr (std::is_integral_v<std::remove_cvref_t<decltype(x)>>) {
            EXPECT_EQ(b.run.totals.net.*member, x) << "net." << name;
          }
        });
  }
}

// Golden wire rows: the shuffle plane's exact counts for a small
// WordCount in each mode and a small SQL run per engine over loopback,
// recorded once. The tests above
// compare runs with each other, so a change to how a message is encoded
// passes them as long as every run changes alike; it fails here. A
// changed row is listed in CHANGES.md with its reason.
struct WireCounts {
  uint64_t messages;
  uint64_t wire_bytes;
  uint64_t index_requests;
  uint64_t slice_requests;
  uint64_t payload_bytes;
  uint64_t records_encoded;
  uint64_t records_decoded;
  uint64_t flow_stalls;
};

void ExpectWire(const net::NetStatsSnapshot& n, const WireCounts& g) {
  EXPECT_EQ(n.messages, g.messages);
  EXPECT_EQ(n.wire_bytes, g.wire_bytes);
  EXPECT_EQ(n.index_requests, g.index_requests);
  EXPECT_EQ(n.slice_requests, g.slice_requests);
  EXPECT_EQ(n.payload_bytes, g.payload_bytes);
  EXPECT_EQ(n.records_encoded, g.records_encoded);
  EXPECT_EQ(n.records_decoded, g.records_decoded);
  EXPECT_EQ(n.flow_stalls, g.flow_stalls);
}

TEST(NetShuffleGolden, WordCountWireRows) {
  const std::pair<workloads::Mode, WireCounts> rows[] = {
      // mode    messages wire   index slices payload encoded decoded stalls
      {workloads::Mode::kSpark, {24, 8360, 8, 16, 5888, 2048, 2048, 0}},
      {workloads::Mode::kDeca, {24, 33192, 8, 16, 32768, 0, 0, 0}},
  };
  spark::SparkConfig cfg = SmallConfig();
  cfg.shuffle_transport = spark::ShuffleTransport::kLoopback;
  for (const auto& [mode, golden] : rows) {
    SCOPED_TRACE(static_cast<int>(mode));
    ExpectWire(RunWc(cfg, mode, 0).run.totals.net, golden);
  }
}

// SQL's Q2 shuffle per engine. SparkSQL is the one engine whose combine
// buffers (decomposed, Tungsten-like) and wire codec (Kryo-like records)
// differ; Spark pays the same per-record codec on object buffers, Deca
// ships its pages. Each run's answer equals the in-process run's.
TEST(NetShuffleGolden, SqlWireRows) {
  const std::pair<workloads::SqlEngine, WireCounts> rows[] = {
      // engine  messages wire   index slices payload encoded decoded stalls
      {workloads::SqlEngine::kSparkRdd,
       {24, 589045, 8, 16, 553936, 34621, 34621, 0}},
      {workloads::SqlEngine::kSparkSql,
       {24, 589045, 8, 16, 553936, 34621, 34621, 0}},
      {workloads::SqlEngine::kDeca, {24, 554440, 8, 16, 553936, 0, 0, 0}},
  };
  for (const auto& [engine, golden] : rows) {
    SCOPED_TRACE(workloads::SqlEngineName(engine));
    workloads::SqlParams p;  // SqlEngineTest's size
    p.rankings_rows = 40000;
    p.uservisits_rows = 80000;
    p.engine = engine;
    p.spark = SmallConfig();
    p.spark.heap.heap_bytes = 64u << 20;
    const workloads::SqlResult local = workloads::RunSqlQueries(p);
    p.spark.shuffle_transport = spark::ShuffleTransport::kLoopback;
    const workloads::SqlResult net = workloads::RunSqlQueries(p);
    EXPECT_EQ(net.q2_groups, local.q2_groups);
    EXPECT_EQ(net.q2_revenue_sum, local.q2_revenue_sum);
    ExpectWire(net.run.totals.net, golden);
  }
}

// ---------------------------------------------------------------------------
// Wire codecs: page vs record on the identical Deca payload.

TEST(NetShuffleCodec, PageShipsFewerBytesAndEncodesNoRecords) {
  spark::SparkConfig cfg = SmallConfig();
  cfg.shuffle_transport = spark::ShuffleTransport::kLoopback;

  cfg.shuffle_wire_codec = spark::ShuffleWireCodec::kPage;
  workloads::WordCountResult page =
      RunWc(cfg, workloads::Mode::kDeca, 0);
  cfg.shuffle_wire_codec = spark::ShuffleWireCodec::kRecord;
  workloads::WordCountResult rec = RunWc(cfg, workloads::Mode::kDeca, 0);

  ExpectWcEquivalent(rec, page);
  // Page mode moves the chunk bytes untouched: no per-record work at all.
  EXPECT_EQ(page.run.totals.net.records_encoded, 0u);
  EXPECT_EQ(page.run.totals.net.records_decoded, 0u);
  // Record mode re-serializes every (word, count) pair and pays per-record
  // length prefixes on the wire.
  EXPECT_GT(rec.run.totals.net.records_encoded, 0u);
  EXPECT_EQ(rec.run.totals.net.records_decoded,
            rec.run.totals.net.records_encoded);
  EXPECT_GT(rec.run.totals.net.wire_bytes, page.run.totals.net.wire_bytes);
  // Identical payload either way — the codec only changes framing.
  EXPECT_EQ(rec.run.totals.net.payload_bytes,
            page.run.totals.net.payload_bytes);
}

TEST(NetShuffleCodec, AutoFollowsWorkloadMode) {
  spark::SparkConfig cfg = SmallConfig();
  cfg.shuffle_transport = spark::ShuffleTransport::kLoopback;
  // Deca under kAuto ships pages: zero records encoded.
  workloads::WordCountResult deca =
      RunWc(cfg, workloads::Mode::kDeca, 0);
  EXPECT_EQ(deca.run.totals.net.records_encoded, 0u);
  // Spark object mode under kAuto serializes per record.
  workloads::WordCountResult jvm =
      RunWc(cfg, workloads::Mode::kSpark, 0);
  EXPECT_GT(jvm.run.totals.net.records_encoded, 0u);
  EXPECT_EQ(jvm.run.totals.net.records_decoded,
            jvm.run.totals.net.records_encoded);
}

// Every object chunk carries its record boundaries, so the record codec
// frames each serialized pair, not each chunk: PageRank's contribution
// shuffle alone ships one record per ranked vertex and map task that
// reaches it. Results stay those of the local shuffle.
TEST(NetShuffleCodec, ObjectChunksFrameEveryRecord) {
  workloads::GraphParams p;  // GraphModeTest's size
  p.num_vertices = 1 << 12;
  p.num_edges = 1 << 15;
  p.iterations = 3;
  p.mode = workloads::Mode::kSpark;
  p.spark = SmallConfig();
  workloads::PageRankResult local = workloads::RunPageRank(p);
  p.spark.shuffle_transport = spark::ShuffleTransport::kLoopback;
  workloads::PageRankResult net = workloads::RunPageRank(p);
  EXPECT_EQ(net.vertices_ranked, local.vertices_ranked);
  EXPECT_EQ(net.rank_sum, local.rank_sum);
  EXPECT_EQ(net.run.totals.minor_gcs, local.run.totals.minor_gcs);
  EXPECT_GE(net.run.totals.net.records_encoded, net.vertices_ranked);
  EXPECT_EQ(net.run.totals.net.records_decoded,
            net.run.totals.net.records_encoded);
}

// SQL's Deca engine shuffles decomposed entries, so under kAuto it ships
// pages like every other Deca workload: no record is encoded.
// ---------------------------------------------------------------------------
// Flow control and the retry path.

// A chunk past the in-flight window comes back in 64 KiB slices with a
// stall at every 256 KiB, byte for byte.
TEST(NetShuffleFlowControl, ChunkPastTheWindowStallsAndArrivesExact) {
  using Service = spark::NetworkShuffleService;
  spark::SparkConfig cfg;
  cfg.num_executors = 1;
  cfg.shuffle_wire_codec = spark::ShuffleWireCodec::kPage;
  net::NetStats stats;
  net::LoopbackTransport transport(1, &stats);
  Service service(cfg, &transport, &stats);
  const int shuffle = service.RegisterShuffle(1);
  // Five slices of payload; the page frame adds its codec byte and a
  // 3-byte length, so the frame takes a sixth slice of 4 bytes.
  std::vector<uint8_t> chunk(5 * Service::kFetchSliceBytes);
  for (size_t i = 0; i < chunk.size(); ++i) {
    chunk[i] = static_cast<uint8_t>(i * 131 + i / 251);
  }
  service.PutChunk(shuffle, 0, 0, chunk, net::ChunkMeta{});
  const auto& got = service.GetChunks(shuffle, 0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], chunk);
  EXPECT_EQ(stats.index_requests.load(), 1u);
  EXPECT_EQ(stats.slice_requests.load(), 6u);
  // Four slices fill the window; it drains once before the fifth.
  EXPECT_EQ(stats.flow_stalls.load(), 1u);
}

TEST(NetShuffleRetry, InjectedFetchFailuresCrossTheWire) {
  spark::SparkConfig cfg = SmallConfig();
  cfg.shuffle_transport = spark::ShuffleTransport::kLoopback;
  cfg.fault.seed = TestSeed();
  cfg.fault.fetch_failure_prob = 0.6;
  workloads::WordCountResult r = RunWc(cfg, workloads::Mode::kDeca, 0);

  spark::SparkConfig base = SmallConfig();
  base.fault = cfg.fault;
  workloads::WordCountResult local = RunWc(base, workloads::Mode::kDeca, 0);
  ExpectWcEquivalent(r, local);
  // Each injected fetch failure travelled the transport as a doomed probe
  // RPC (observed server-side) and burned virtual backoff time.
  EXPECT_GT(r.run.injected_faults, 0u);
  EXPECT_EQ(r.run.totals.net.injected_fetch_failures, r.run.injected_faults);
  EXPECT_EQ(r.run.totals.net.fetch_retries,
            r.run.injected_faults *
                static_cast<uint64_t>(
                    spark::NetworkShuffleService::kFetchRetries));
  EXPECT_GT(r.run.totals.net.virtual_wire_us, 0u);
}

// ---------------------------------------------------------------------------
// TCP transport: real sockets, same bytes, same results.

TEST(NetShuffleTcp, SmallWordCountMatchesLocal) {
  spark::SparkConfig cfg = SmallConfig();
  workloads::WordCountResult local =
      RunWc(cfg, workloads::Mode::kDeca, 0);

  cfg.shuffle_transport = spark::ShuffleTransport::kTcp;
  workloads::WordCountResult tcp = RunWc(cfg, workloads::Mode::kDeca, 0);
  ExpectWcEquivalent(tcp, local);
  EXPECT_TRUE(tcp.run.net_active);
  EXPECT_GT(tcp.run.totals.net.wire_bytes, 0u);
  EXPECT_EQ(tcp.run.totals.net.records_encoded, 0u);
}

}  // namespace
}  // namespace deca
