#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "spark/context.h"
#include "spark/tier_backend.h"

namespace deca::spark {
namespace {

/// Test record: class Rec { long id; double val; }.
struct RecModel {
  explicit RecModel(jvm::ClassRegistry* registry) {
    class_id = registry->RegisterClass(
        "Rec",
        {{"id", jvm::FieldKind::kLong}, {"val", jvm::FieldKind::kDouble}});
    ops.managed_bytes = [](jvm::Heap*, jvm::ObjRef) -> uint64_t {
      return jvm::kHeaderBytes + 16;
    };
    ops.serialize = [](jvm::Heap* h, jvm::ObjRef r, ByteWriter* w) {
      w->WriteVarI64(h->GetField<int64_t>(r, 0));
      w->Write<double>(h->GetField<double>(r, 8));
    };
    uint32_t cid = class_id;
    ops.deserialize = [cid](jvm::Heap* h, ByteReader* r) {
      int64_t id = r->ReadVarI64();
      double val = r->Read<double>();
      jvm::ObjRef rec = h->AllocateInstance(cid);
      h->SetField<int64_t>(rec, 0, id);
      h->SetField<double>(rec, 8, val);
      return rec;
    };
  }

  uint32_t class_id;
  RecordOps ops;
};

SparkConfig OneExecutorConfig() {
  SparkConfig cfg;
  cfg.num_executors = 1;
  cfg.partitions_per_executor = 1;
  cfg.heap.heap_bytes = 16u << 20;
  cfg.spill_dir = "/tmp/deca_test_swap";
  return cfg;
}

/// A serialized block forced to disk must stream back byte-identical, with
/// the swap accounted as a pressure eviction and the reload's disk time
/// charged to spill_ms.
TEST(BlockStoreSwapTest, SerializedBlockRoundTripsThroughSwapFile) {
  SparkConfig cfg = OneExecutorConfig();
  cfg.cache_level = StorageLevel::kMemorySerialized;
  SparkContext ctx(cfg);
  RecModel model(ctx.registry());
  ctx.RegisterCachedRdd(3, &model.ops);

  const int n = 5000;
  std::vector<uint8_t> before;
  ctx.RunStage("build", [&](TaskContext& tc) {
    jvm::Heap* h = tc.heap();
    jvm::HandleScope scope(h);
    jvm::Handle arr =
        scope.Make(h->AllocateArray(h->registry()->ref_array_class(), n));
    for (int i = 0; i < n; ++i) {
      jvm::HandleScope inner(h);
      jvm::ObjRef rec = h->AllocateInstance(model.class_id);
      h->SetField<int64_t>(rec, 0, i * 31);
      h->SetField<double>(rec, 8, i * 0.125);
      h->SetRefElem(arr.get(), static_cast<uint32_t>(i), rec);
    }
    tc.cache()->PutObjects({3, 0}, arr.get(), n, &tc.metrics());
    // Snapshot the in-memory serialized bytes for the later comparison.
    LoadedBlock block = tc.cache()->Get({3, 0}, &tc.metrics());
    ASSERT_TRUE(block.valid());
    ASSERT_NE(block.serialized, jvm::kNullRef);
    const uint8_t* data = h->ArrayData(block.serialized);
    before.assign(data, data + h->ArrayLength(block.serialized));
  });
  ASSERT_FALSE(before.empty());

  Executor* e = ctx.executor(0);
  uint64_t held = e->memory()->storage_used();
  EXPECT_GT(held, 0u);

  // The OOM degradation ladder swaps the block out.
  uint64_t evicted = e->memory()->EvictStorageForOom(UINT64_MAX);
  EXPECT_EQ(evicted, 1u);
  EXPECT_EQ(e->cache()->pressure_evictions(), 1u);
  EXPECT_EQ(e->cache()->swap_out_count(), 1u);
  EXPECT_EQ(e->cache()->memory_bytes(), 0u);
  EXPECT_GT(e->cache()->disk_bytes(), 0u);
  // The swap released the block's storage reservation.
  EXPECT_EQ(e->memory()->storage_used(), 0u);
  e->VerifyMemoryAccounting();

  double spill0 = ctx.metrics().tasks.spill_ms;
  ctx.RunStage("reload", [&](TaskContext& tc) {
    jvm::Heap* h = tc.heap();
    LoadedBlock block = tc.cache()->Get({3, 0}, &tc.metrics());
    ASSERT_TRUE(block.valid());
    EXPECT_TRUE(block.temporary);
    ASSERT_NE(block.serialized, jvm::kNullRef);
    ASSERT_EQ(h->ArrayLength(block.serialized),
              static_cast<uint32_t>(before.size()));
    EXPECT_EQ(std::memcmp(h->ArrayData(block.serialized), before.data(),
                          before.size()),
              0);
  });
  // Streaming the block back from disk is spill time.
  EXPECT_GT(ctx.metrics().tasks.spill_ms, spill0);
  // Swapped blocks stay on disk; the counters must not drift.
  EXPECT_EQ(e->cache()->memory_bytes(), 0u);
  EXPECT_GT(e->cache()->disk_bytes(), 0u);
}

/// A Deca page-group block swaps as raw page bytes (no serialization) and
/// must reload byte-identical.
TEST(BlockStoreSwapTest, PageGroupBlockRoundTripsThroughSwapFile) {
  SparkConfig cfg = OneExecutorConfig();
  cfg.cache_level = StorageLevel::kDecaPages;
  cfg.deca_page_bytes = 4096;
  SparkContext ctx(cfg);

  const int n = 3000;
  std::vector<uint8_t> before(static_cast<size_t>(n) * 16);
  ctx.RunStage("build", [&](TaskContext& tc) {
    auto pages = std::make_shared<core::PageGroup>(tc.heap(), 4096);
    for (int i = 0; i < n; ++i) {
      core::SegPtr s = pages->Append(16);
      uint8_t* p = pages->Resolve(s);
      StoreRaw<int64_t>(p, 0x0123456789abcdefLL ^ i);
      StoreRaw<double>(p + 8, i * 3.5);
      std::memcpy(before.data() + static_cast<size_t>(i) * 16, p, 16);
    }
    tc.cache()->PutPages({9, 0}, std::move(pages), n, &tc.metrics());
  });

  Executor* e = ctx.executor(0);
  // The cached group was re-tagged execution -> storage.
  EXPECT_GT(e->memory()->storage_used(), 0u);
  EXPECT_EQ(e->memory()->exec_used(), 0u);

  uint64_t evicted = e->memory()->EvictStorageForOom(UINT64_MAX);
  EXPECT_EQ(evicted, 1u);
  EXPECT_EQ(e->cache()->pressure_evictions(), 1u);
  // Destroying the swapped group released its storage page charge.
  EXPECT_EQ(e->memory()->storage_used(), 0u);
  EXPECT_EQ(e->memory()->page_bytes(), 0u);
  e->VerifyMemoryAccounting();

  double ser0 = ctx.metrics().tasks.ser_ms;
  double spill0 = ctx.metrics().tasks.spill_ms;
  ctx.RunStage("reload", [&](TaskContext& tc) {
    LoadedBlock block = tc.cache()->Get({9, 0}, &tc.metrics());
    ASSERT_TRUE(block.valid());
    EXPECT_TRUE(block.temporary);
    ASSERT_NE(block.pages, nullptr);
    core::PageScanner scan(block.pages.get());
    size_t i = 0;
    while (!scan.AtEnd()) {
      ASSERT_LT(i, static_cast<size_t>(n));
      EXPECT_EQ(std::memcmp(scan.Cur(), before.data() + i * 16, 16), 0);
      scan.Advance(16);
      ++i;
    }
    EXPECT_EQ(i, static_cast<size_t>(n));
  });
  // Raw page reload: disk time but no deserialization.
  EXPECT_GT(ctx.metrics().tasks.spill_ms, spill0);
  EXPECT_EQ(ctx.metrics().tasks.ser_ms, ser0);
  EXPECT_EQ(ctx.metrics().tasks.deser_ms, 0.0);
}

SparkConfig TieredConfig() {
  SparkConfig cfg = OneExecutorConfig();
  cfg.storage_tiers = 3;
  return cfg;
}

/// Builds `blocks` object blocks of `n` Rec records each under rdd 3.
void PutRecBlocks(SparkContext* ctx, const RecModel& model, int blocks,
                  int n) {
  ctx->RunStage("build", [&](TaskContext& tc) {
    jvm::Heap* h = tc.heap();
    for (int b = 0; b < blocks; ++b) {
      jvm::HandleScope scope(h);
      jvm::Handle arr = scope.Make(h->AllocateArray(
          h->registry()->ref_array_class(), static_cast<uint32_t>(n)));
      for (int i = 0; i < n; ++i) {
        jvm::HandleScope inner(h);
        jvm::ObjRef rec = h->AllocateInstance(model.class_id);
        h->SetField<int64_t>(rec, 0, b * 100000 + i);
        h->SetField<double>(rec, 8, b + i * 0.5);
        h->SetRefElem(arr.get(), static_cast<uint32_t>(i), rec);
      }
      tc.cache()->PutObjects({3, b}, arr.get(), static_cast<uint32_t>(n),
                             &tc.metrics());
    }
  });
}

/// The full tier ladder: demotion compacts T0 heap blocks into off-heap
/// T1 buffers, pressure eviction then cascades T1 to disk, and accesses
/// climb back up one tier at a time under AdmitPolicy::kAlways.
TEST(BlockStoreTierTest, DemoteThenCascadeThenClimbBack) {
  SparkConfig cfg = TieredConfig();
  cfg.admit_policy = AdmitPolicy::kAlways;
  SparkContext ctx(cfg);
  RecModel model(ctx.registry());
  ctx.RegisterCachedRdd(3, &model.ops);
  PutRecBlocks(&ctx, model, 3, 500);

  Executor* e = ctx.executor(0);
  CacheManager* cache = e->cache();
  uint64_t heap_held = cache->memory_bytes();
  ASSERT_GT(heap_held, 0u);

  // Stage 1 of the eviction ladder: everything compacts into T1. The
  // packed payload is smaller than the heap estimate, and nothing has
  // touched disk yet.
  uint64_t demoted = cache->DemoteUnderPressure(UINT64_MAX, false);
  EXPECT_EQ(demoted, 3u);
  EXPECT_EQ(cache->demote_t1_count(), 3u);
  EXPECT_EQ(cache->memory_bytes(), cache->t1_resident_bytes());
  EXPECT_GT(cache->t1_resident_bytes(), 0u);
  EXPECT_LT(cache->memory_bytes(), heap_held);
  EXPECT_EQ(cache->disk_bytes(), 0u);
  EXPECT_EQ(cache->swap_out_count(), 0u);
  cache->VerifyAccounting();
  e->VerifyMemoryAccounting();

  // Stage 2: pressure eviction cascades T1 to swap files.
  uint64_t evicted = cache->EvictUnderPressure(UINT64_MAX);
  EXPECT_EQ(evicted, 3u);
  EXPECT_EQ(cache->swap_out_count(), 3u);
  EXPECT_EQ(cache->t1_resident_bytes(), 0u);
  EXPECT_EQ(cache->memory_bytes(), 0u);
  EXPECT_GT(cache->disk_bytes(), 0u);
  cache->VerifyAccounting();
  e->VerifyMemoryAccounting();

  // Climb back: a T2 hit re-admits into T1 (still a temporary view), the
  // following T1 hit re-admits into T0 (the canonical copy again).
  ctx.RunStage("climb", [&](TaskContext& tc) {
    LoadedBlock first = tc.cache()->Get({3, 1}, &tc.metrics());
    ASSERT_TRUE(first.valid());
    EXPECT_TRUE(first.temporary);
    LoadedBlock second = tc.cache()->Get({3, 1}, &tc.metrics());
    ASSERT_TRUE(second.valid());
    EXPECT_FALSE(second.temporary);
    ASSERT_NE(second.object_array, jvm::kNullRef);
    jvm::Heap* h = tc.heap();
    jvm::ObjRef rec = h->GetRefElem(second.object_array, 7);
    EXPECT_EQ(h->GetField<int64_t>(rec, 0), 100007);
    EXPECT_EQ(h->GetField<double>(rec, 8), 1 + 7 * 0.5);
  });
  TierCounters tiers = cache->tier_counters();
  EXPECT_EQ(tiers.t2_hits, 1u);
  EXPECT_EQ(tiers.t1_hits, 1u);
  EXPECT_EQ(tiers.promotes, 2u);
  EXPECT_GT(cache->memory_bytes(), 0u);
}

/// kOnSecondAccess: the first access to a demoted block is served as a
/// zero-materialization packed view; the second re-admits it.
TEST(BlockStoreTierTest, LazyGetPromotesOnSecondAccess) {
  SparkConfig cfg = TieredConfig();
  cfg.admit_policy = AdmitPolicy::kOnSecondAccess;
  SparkContext ctx(cfg);
  RecModel model(ctx.registry());
  ctx.RegisterCachedRdd(3, &model.ops);
  PutRecBlocks(&ctx, model, 1, 500);

  CacheManager* cache = ctx.executor(0)->cache();
  ASSERT_EQ(cache->DemoteUnderPressure(UINT64_MAX, false), 1u);
  uint64_t packed_size = cache->t1_resident_bytes();
  ASSERT_GT(packed_size, 0u);

  ctx.RunStage("first", [&](TaskContext& tc) {
    LoadedBlock b = tc.cache()->GetLazy({3, 0}, &tc.metrics());
    ASSERT_TRUE(b.valid());
    EXPECT_TRUE(b.temporary);
    EXPECT_EQ(b.object_array, jvm::kNullRef);  // nothing materialized
    ASSERT_NE(b.packed, nullptr);
    EXPECT_EQ(b.level, StorageLevel::kMemoryObjects);
  });
  EXPECT_EQ(cache->admit_reject_count(), 1u);
  EXPECT_EQ(cache->promote_count(), 0u);
  EXPECT_EQ(cache->t1_resident_bytes(), packed_size);  // still demoted

  ctx.RunStage("second", [&](TaskContext& tc) {
    LoadedBlock b = tc.cache()->GetLazy({3, 0}, &tc.metrics());
    ASSERT_TRUE(b.valid());
    EXPECT_FALSE(b.temporary);
    ASSERT_NE(b.object_array, jvm::kNullRef);
    jvm::Heap* h = tc.heap();
    jvm::ObjRef rec = h->GetRefElem(b.object_array, 123);
    EXPECT_EQ(h->GetField<int64_t>(rec, 0), 123);
  });
  EXPECT_EQ(cache->promote_count(), 1u);
  EXPECT_EQ(cache->t1_resident_bytes(), 0u);  // back in T0
  cache->VerifyAccounting();
}

/// kNever: demoted blocks are served as packed views forever; no access
/// pattern earns them back into the heap.
TEST(BlockStoreTierTest, AdmitNeverKeepsBlocksPacked) {
  SparkConfig cfg = TieredConfig();
  cfg.admit_policy = AdmitPolicy::kNever;
  SparkContext ctx(cfg);
  RecModel model(ctx.registry());
  ctx.RegisterCachedRdd(3, &model.ops);
  PutRecBlocks(&ctx, model, 1, 500);

  CacheManager* cache = ctx.executor(0)->cache();
  ASSERT_EQ(cache->DemoteUnderPressure(UINT64_MAX, false), 1u);
  uint64_t packed_size = cache->t1_resident_bytes();

  ctx.RunStage("hammer", [&](TaskContext& tc) {
    for (int i = 0; i < 5; ++i) {
      LoadedBlock b = tc.cache()->GetLazy({3, 0}, &tc.metrics());
      ASSERT_TRUE(b.valid());
      EXPECT_TRUE(b.temporary);
      ASSERT_NE(b.packed, nullptr);
    }
  });
  EXPECT_EQ(cache->admit_reject_count(), 5u);
  EXPECT_EQ(cache->promote_count(), 0u);
  EXPECT_EQ(cache->t1_resident_bytes(), packed_size);
  cache->VerifyAccounting();
}

/// A crash-wipe landing while blocks sit on every rung of the ladder
/// (T0 + T1 + T2) must zero all meters and lose every block — lineage
/// recovery, not the store, owns bringing them back.
TEST(BlockStoreTierTest, CrashWipeMidDemotionZeroesEveryTier) {
  SparkConfig cfg = TieredConfig();
  SparkContext ctx(cfg);
  RecModel model(ctx.registry());
  ctx.RegisterCachedRdd(3, &model.ops);
  PutRecBlocks(&ctx, model, 3, 500);

  Executor* e = ctx.executor(0);
  CacheManager* cache = e->cache();
  // One block to T1, then cascade it to T2, then another to T1: the
  // ladder is mid-demotion with one block on each rung.
  ASSERT_GT(cache->DemoteUnderPressure(1, false), 0u);
  ASSERT_GT(cache->EvictUnderPressure(1), 0u);
  ASSERT_GT(cache->DemoteUnderPressure(1, false), 0u);
  ASSERT_GT(cache->t1_resident_bytes(), 0u);
  ASSERT_GT(cache->disk_bytes(), 0u);
  ASSERT_GT(cache->memory_bytes(), cache->t1_resident_bytes());  // T0 left

  cache->DropAllForWipe();
  EXPECT_EQ(cache->memory_bytes(), 0u);
  EXPECT_EQ(cache->disk_bytes(), 0u);
  EXPECT_EQ(cache->t1_resident_bytes(), 0u);
  cache->VerifyAccounting();
  e->VerifyMemoryAccounting();

  ctx.RunStage("lost", [&](TaskContext& tc) {
    for (int b = 0; b < 3; ++b) {
      LoadedBlock blk = tc.cache()->Get({3, b}, &tc.metrics());
      EXPECT_FALSE(blk.valid());
    }
  });
  EXPECT_EQ(cache->tier_counters().misses, 3u);
}

/// Cache-thrash equivalence matrix: a working set ~2x the executor
/// budget hammered with skewed point reads must produce one digest across
/// {legacy 2-tier, 3-tier always/second/never} and across the sequential
/// and threaded runtimes (the threaded run doubles as the TSan exercise:
/// two executor threads churn their stores while the driver polls the
/// atomic meters at barriers).
TEST(BlockStoreTierTest, ThrashDigestMatrixAcrossTiersAndThreads) {
  struct Outcome {
    uint64_t digest = 0;
    uint64_t demotes = 0;
    uint64_t rejects = 0;
    uint64_t swaps = 0;
  };
  constexpr int kBlocksPerPartition = 6;
  constexpr int kRecsPerBlock = 256;

  auto run = [&](int tiers, AdmitPolicy admit, int threads,
                 bool crash_wipe) {
    SparkConfig cfg;
    cfg.num_executors = 2;
    cfg.partitions_per_executor = 2;
    cfg.num_worker_threads = threads;
    cfg.heap.heap_bytes = 16u << 20;
    // Tight unified budget: the per-executor working set is ~2x this, so
    // every variant demotes and/or swaps continuously.
    cfg.executor_memory_bytes = 64u << 10;
    cfg.storage_tiers = tiers;
    cfg.admit_policy = admit;
    cfg.spill_dir = "/tmp/deca_test_thrash";
    if (crash_wipe) {
      // Wipe executor 1 between thrash stages: every tier it held (T0,
      // T1, and swap files) is lost at once and must come back through
      // lineage replay.
      cfg.fault.crash_wipe_stage = 2;
      cfg.fault.crash_wipe_executor = 1;
    }
    SparkContext ctx(cfg);
    RecModel model(ctx.registry());
    ctx.RegisterCachedRdd(7, &model.ops);

    auto load_task = [&](TaskContext& tc) {
      jvm::Heap* h = tc.heap();
      for (int b = 0; b < kBlocksPerPartition; ++b) {
        jvm::HandleScope scope(h);
        jvm::Handle arr = scope.Make(h->AllocateArray(
            h->registry()->ref_array_class(), kRecsPerBlock));
        for (int i = 0; i < kRecsPerBlock; ++i) {
          jvm::HandleScope inner(h);
          jvm::ObjRef rec = h->AllocateInstance(model.class_id);
          h->SetField<int64_t>(rec, 0,
                               tc.partition() * 1000000 + b * 1000 + i);
          h->SetField<double>(rec, 8, tc.partition() + b * 0.25 + i);
          h->SetRefElem(arr.get(), static_cast<uint32_t>(i), rec);
        }
        tc.cache()->PutObjects({7, tc.partition() * 16 + b}, arr.get(),
                               kRecsPerBlock, &tc.metrics());
      }
    };
    ctx.RunStage("load", load_task);
    ctx.RegisterLineage(7, load_task);

    uint64_t digest = 0;
    for (int s = 0; s < 3; ++s) {
      auto blobs = ctx.RunCollectStage(
          "thrash", [&, s](TaskContext& tc) -> std::vector<uint8_t> {
            jvm::Heap* h = tc.heap();
            uint64_t x = 0x243f6a8885a308d3ULL ^
                         (static_cast<uint64_t>(s) << 32) ^
                         static_cast<uint64_t>(tc.partition());
            uint64_t d = 0;
            for (int q = 0; q < 200; ++q) {
              x = x * 6364136223846793005ULL + 1442695040888963407ULL;
              int b = static_cast<int>((x >> 33) % kBlocksPerPartition);
              int slot = static_cast<int>((x >> 13) % kRecsPerBlock);
              LoadedBlock blk = tc.cache()->Get(
                  {7, tc.partition() * 16 + b}, &tc.metrics());
              EXPECT_TRUE(blk.valid());
              jvm::ObjRef rec = h->GetRefElem(
                  blk.object_array, static_cast<uint32_t>(slot));
              uint64_t vbits;
              double v = h->GetField<double>(rec, 8);
              std::memcpy(&vbits, &v, sizeof(vbits));
              d = d * 1099511628211ULL ^
                  (static_cast<uint64_t>(h->GetField<int64_t>(rec, 0)) +
                   0x9e3779b97f4a7c15ULL * vbits);
            }
            ByteWriter w;
            w.WriteVarU64(d);
            return w.TakeBuffer();
          });
      for (const auto& blob : blobs) {
        ByteReader r(blob.data(), blob.size());
        digest = digest * 1099511628211ULL ^ r.ReadVarU64();
      }
    }

    Outcome out;
    out.digest = digest;
    for (int i = 0; i < cfg.num_executors; ++i) {
      CacheManager* c = ctx.executor(i)->cache();
      c->VerifyAccounting();
      out.demotes += c->demote_t1_count();
      out.rejects += c->admit_reject_count();
      out.swaps += c->swap_out_count();
    }
    return out;
  };

  Outcome legacy = run(2, AdmitPolicy::kOnSecondAccess, 0, false);
  Outcome always = run(3, AdmitPolicy::kAlways, 0, false);
  Outcome second = run(3, AdmitPolicy::kOnSecondAccess, 0, false);
  Outcome never = run(3, AdmitPolicy::kNever, 0, false);
  Outcome threaded = run(3, AdmitPolicy::kOnSecondAccess, 2, false);
  Outcome wiped = run(3, AdmitPolicy::kOnSecondAccess, 0, true);
  Outcome wiped_legacy = run(2, AdmitPolicy::kOnSecondAccess, 0, true);

  // One digest across every tier policy, both runtimes, and a mid-run
  // crash-wipe: tier placement may differ, record values may not.
  EXPECT_EQ(always.digest, legacy.digest);
  EXPECT_EQ(second.digest, legacy.digest);
  EXPECT_EQ(never.digest, legacy.digest);
  EXPECT_EQ(threaded.digest, legacy.digest);
  EXPECT_EQ(wiped.digest, legacy.digest);
  EXPECT_EQ(wiped_legacy.digest, legacy.digest);
  // The matrix only means something if the variants actually thrashed.
  EXPECT_EQ(legacy.demotes, 0u);  // no T1 without the middle tier
  EXPECT_GT(legacy.swaps, 0u);
  EXPECT_GT(always.demotes, 0u);
  EXPECT_GT(never.demotes, 0u);
  EXPECT_GT(never.rejects, 0u);
  // Same config, same counters: the threaded runtime is bit-identical.
  EXPECT_EQ(threaded.demotes, second.demotes);
  EXPECT_EQ(threaded.swaps, second.swaps);
}

/// DiskTier driven directly: each test gets a directory of its own and
/// finds the swap file as the only regular file in it.
class DiskTierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("deca_test_disk_tier_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::vector<std::filesystem::path> Files() const {
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.is_regular_file()) files.push_back(entry.path());
    }
    return files;
  }

  /// Length of the swap file; 0 before the tier opens it.
  uint64_t FileBytes() const {
    std::vector<std::filesystem::path> files = Files();
    EXPECT_LE(files.size(), 1u);
    return files.empty() ? 0 : std::filesystem::file_size(files[0]);
  }

  std::filesystem::path dir_;
  TaskMetrics metrics_;
};

/// A payload whose bytes identify `tag` (a fill byte plus a stamp every
/// 4 KB), so a block overwritten by another cannot compare equal.
PackedBlock Payload(uint64_t size, uint64_t tag) {
  auto bytes = alloc::Bytes::New(nullptr, size);
  if (size > 0) {
    uint8_t* p = bytes->mutable_data();
    std::memset(p, static_cast<int>(tag % 251 + 1), size);
    for (uint64_t i = 0; i + 8 <= size; i += 4096) {
      StoreRaw<uint64_t>(p + i, tag);
    }
  }
  PackedBlock block;
  block.level = StorageLevel::kDecaPages;
  block.count = static_cast<uint32_t>(tag);
  block.bytes = std::move(bytes);
  return block;
}

bool SameBlock(const PackedBlock& got, const PackedBlock& want) {
  return got.valid() && got.level == want.level &&
         got.count == want.count && got.size() == want.size() &&
         (want.size() == 0 ||
          std::memcmp(got.bytes->data(), want.bytes->data(), want.size()) ==
              0);
}

/// Blocks of mixed sizes, the empty payload included, round-trip while
/// freed extents are split and refilled; a dropped key loads nothing.
TEST_F(DiskTierTest, MixedSizesRoundTripWhileExtentsAreReused) {
  DiskTier tier(dir_.string(), 0);
  std::map<int, PackedBlock> live;
  uint64_t tag = 0;
  auto store = [&](int k, uint64_t size) {
    PackedBlock block = Payload(size, ++tag);
    tier.Store({7, k}, block, &metrics_);
    live[k] = std::move(block);
  };
  auto check = [&] {
    for (const auto& [k, want] : live) {
      EXPECT_TRUE(SameBlock(tier.Load({7, k}, &metrics_), want)) << k;
    }
  };

  const uint64_t sizes[] = {136 << 10, 0,   4096,     1,
                            300 << 10, 777, 64 << 10, 9000};
  uint64_t total = 0;
  for (int k = 0; k < 8; ++k) {
    store(k, sizes[k]);
    total += sizes[k];
  }
  check();
  EXPECT_EQ(FileBytes(), total);
  EXPECT_EQ(tier.resident_bytes(), total);

  // Dropping an interior block leaves its extent in the file, free.
  tier.Drop({7, 4});
  live.erase(4);
  EXPECT_FALSE(tier.Contains({7, 4}));
  EXPECT_FALSE(tier.Load({7, 4}, &metrics_).valid());
  EXPECT_EQ(FileBytes(), total);
  // Two blocks and an empty one fit in the freed 300 KB, and the
  // rewrite of key 0 fits in what they leave: the file does not grow.
  store(8, 136 << 10);
  store(9, 0);
  store(10, 100 << 10);
  store(0, 4096);
  check();
  EXPECT_EQ(FileBytes(), total);

  // Rotate sizes across keys: every extent is freed and refilled by
  // blocks of other sizes.
  for (int round = 0; round < 20; ++round) {
    for (int k = round % 2; k < 11; k += 2) {
      if (k % 3 == 0) {
        tier.Drop({7, k});
        live.erase(k);
        EXPECT_FALSE(tier.Load({7, k}, &metrics_).valid());
      } else {
        store(k, sizes[(k + round) % 8]);
      }
    }
    check();
  }
  uint64_t resident = 0;
  for (const auto& [k, block] : live) resident += block.size();
  EXPECT_EQ(tier.resident_bytes(), resident);
  EXPECT_EQ(tier.block_count(), live.size());
}

/// A steady working set of equal-size blocks, replaced one at a time,
/// reuses its extents: the file never outgrows the first pass.
TEST_F(DiskTierTest, SteadyWorkingSetNeverGrowsTheFile) {
  DiskTier tier(dir_.string(), 0);
  const uint64_t size = 136 << 10;
  std::map<int, PackedBlock> live;
  int next_key = 0;
  auto store_new = [&] {
    PackedBlock block = Payload(size, static_cast<uint64_t>(next_key) + 1);
    tier.Store({7, next_key}, block, &metrics_);
    live[next_key++] = std::move(block);
  };
  for (int i = 0; i < 8; ++i) store_new();
  const uint64_t first_pass = FileBytes();
  EXPECT_EQ(first_pass, 8 * size);

  Rng rng(1);
  for (int cycle = 0; cycle < 100; ++cycle) {
    std::vector<int> keys;
    for (const auto& [k, block] : live) keys.push_back(k);
    for (size_t i = keys.size(); i > 1; --i) {
      std::swap(keys[i - 1], keys[rng.NextBounded(i)]);
    }
    for (int k : keys) {
      tier.Drop({7, k});
      live.erase(k);
      store_new();
      ASSERT_LE(FileBytes(), first_pass) << "cycle " << cycle;
    }
  }
  EXPECT_EQ(tier.block_count(), 8u);
  for (const auto& [k, want] : live) {
    EXPECT_TRUE(SameBlock(tier.Load({7, k}, &metrics_), want)) << k;
  }
}

/// Seeded churn of mixed sizes: fragmentation keeps the file within twice
/// the peak resident bytes, and every block still reads back intact.
TEST_F(DiskTierTest, ChurnStaysWithinTwicePeakResident) {
  DiskTier tier(dir_.string(), 0);
  std::map<int, PackedBlock> live;
  Rng rng(42);
  for (uint64_t op = 0; op < 4000; ++op) {
    const int k = static_cast<int>(rng.NextBounded(100));
    if (rng.NextBounded(4) == 0) {
      tier.Drop({7, k});
      live.erase(k);
    } else {
      PackedBlock block = Payload(rng.NextBounded((300 << 10) + 1), op + 1);
      tier.Store({7, k}, block, &metrics_);
      live[k] = std::move(block);
    }
    ASSERT_LE(FileBytes(), 2 * tier.peak_resident_bytes()) << "op " << op;
    if (op % 8 == 0 && !live.empty()) {
      auto it = std::next(live.begin(),
                          static_cast<long>(rng.NextBounded(live.size())));
      ASSERT_TRUE(SameBlock(tier.Load({7, it->first}, &metrics_), it->second))
          << "op " << op;
    }
  }
  for (const auto& [k, want] : live) {
    EXPECT_TRUE(SameBlock(tier.Load({7, k}, &metrics_), want)) << k;
  }
}

/// Dropping every block or DropAll cuts the file to length zero (it stays
/// open for reuse); destroying the tier leaves the directory empty.
TEST_F(DiskTierTest, EmptyingTheTierCutsTheFileAndDestructionRemovesIt) {
  {
    DiskTier tier(dir_.string(), 3);
    tier.DropAll();
    EXPECT_TRUE(Files().empty());  // the file opens on the first Store

    for (int k = 0; k < 6; ++k) {
      tier.Store({7, k}, Payload((k + 1) * 10000, k + 1), &metrics_);
    }
    EXPECT_EQ(FileBytes(), 210000u);
    for (int k : {2, 0, 4, 1, 5, 3}) tier.Drop({7, k});
    EXPECT_EQ(Files().size(), 1u);
    EXPECT_EQ(FileBytes(), 0u);
    EXPECT_EQ(tier.resident_bytes(), 0u);

    for (int k = 0; k < 4; ++k) {
      tier.Store({7, k}, Payload(50000, k + 10), &metrics_);
    }
    EXPECT_EQ(FileBytes(), 200000u);
    tier.DropAll();
    EXPECT_EQ(FileBytes(), 0u);
    EXPECT_EQ(tier.block_count(), 0u);
    EXPECT_EQ(tier.resident_bytes(), 0u);
    EXPECT_FALSE(tier.Load({7, 0}, &metrics_).valid());

    // The emptied file takes new blocks from offset zero.
    PackedBlock block = Payload(12345, 99);
    tier.Store({7, 9}, block, &metrics_);
    EXPECT_EQ(FileBytes(), 12345u);
    EXPECT_TRUE(SameBlock(tier.Load({7, 9}, &metrics_), block));
  }
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

/// A swap file cut short under a live tier must abort the Load that
/// reaches past its end, naming the file and the block's offset, rather
/// than hand back a short payload that the decoders would over-read.
TEST_F(DiskTierTest, TruncatedSwapFileFailsLoudly) {
  DiskTier tier(dir_.string(), 0);
  PackedBlock first = Payload(4096, 1);
  tier.Store({7, 0}, first, &metrics_);
  tier.Store({7, 1}, Payload(4096, 2), &metrics_);
  ASSERT_EQ(Files().size(), 1u);
  const std::filesystem::path file = Files()[0];
  // Keep the first block and 100 bytes of the second.
  std::filesystem::resize_file(file, 4096 + 100);
  EXPECT_TRUE(SameBlock(tier.Load({7, 0}, &metrics_), first));
  EXPECT_DEATH(tier.Load({7, 1}, &metrics_),
               file.string() + " at offset 4096");
}

/// A store that would run past the mapped window fails loudly instead of
/// writing outside the mapping. The oversized payload is a view of a small
/// buffer: the size check aborts before anything is copied or allocated.
TEST_F(DiskTierTest, StorePastTheWindowFailsLoudly) {
  DiskTier tier(dir_.string(), 0);
  PackedBlock first = Payload(48 << 10, 1);
  tier.Store({7, 0}, first, &metrics_);
  EXPECT_TRUE(SameBlock(tier.Load({7, 0}, &metrics_), first));
  const uint8_t buf[8] = {};
  PackedBlock oversized;
  oversized.level = StorageLevel::kDecaPages;
  oversized.bytes =
      alloc::Bytes::View(buf, DiskTier::kWindowBytes - (48 << 10) + 1, nullptr);
  EXPECT_DEATH(tier.Store({7, 1}, oversized, &metrics_),
               "at offset 49152 runs past its " +
                   std::to_string(DiskTier::kWindowBytes) + "-byte mapping");
}

// -- Views of the mapping -----------------------------------------------------
//
// Load hands out views into the swap file's mapping, so a view must pin
// its extent (and the mapping) for as long as it lives.

/// A view held across Drop of its block and a same-size Store keeps its
/// bytes; the extent is reused once the view is released.
TEST_F(DiskTierTest, ViewKeepsItsBytesUntilReleased) {
  DiskTier tier(dir_.string(), 0);
  const uint64_t size = 136 << 10;
  PackedBlock a = Payload(size, 1);
  tier.Store({7, 0}, a, &metrics_);
  PackedBlock view = tier.Load({7, 0}, &metrics_);
  tier.Drop({7, 0});
  PackedBlock b = Payload(size, 2);
  tier.Store({7, 1}, b, &metrics_);
  EXPECT_TRUE(SameBlock(view, a));
  EXPECT_TRUE(SameBlock(tier.Load({7, 1}, &metrics_), b));
  EXPECT_EQ(FileBytes(), 2 * size);

  view = {};
  PackedBlock c = Payload(size, 3);
  tier.Store({7, 2}, c, &metrics_);
  EXPECT_EQ(FileBytes(), 2 * size);  // c took the released extent
  EXPECT_TRUE(SameBlock(tier.Load({7, 1}, &metrics_), b));
  EXPECT_TRUE(SameBlock(tier.Load({7, 2}, &metrics_), c));
}

/// Emptying the tier, block by block or with DropAll, cuts the file to
/// length zero only once the last view of it is gone.
TEST_F(DiskTierTest, EmptyTierIsCutOnlyAfterItsLastView) {
  DiskTier tier(dir_.string(), 0);
  const uint64_t size = 40000;
  PackedBlock a = Payload(size, 1);
  tier.Store({7, 0}, a, &metrics_);
  tier.Store({7, 1}, Payload(size, 2), &metrics_);
  PackedBlock view = tier.Load({7, 0}, &metrics_);
  tier.Drop({7, 0});
  tier.Drop({7, 1});
  EXPECT_EQ(tier.block_count(), 0u);
  EXPECT_EQ(tier.resident_bytes(), 0u);
  ASSERT_EQ(FileBytes(), 2 * size);  // the view still reads its extent
  EXPECT_TRUE(SameBlock(view, a));
  view = {};
  EXPECT_EQ(FileBytes(), 0u);

  PackedBlock c = Payload(size, 3);
  tier.Store({7, 2}, Payload(size, 4), &metrics_);
  tier.Store({7, 3}, c, &metrics_);
  view = tier.Load({7, 3}, &metrics_);
  tier.DropAll();
  EXPECT_EQ(tier.block_count(), 0u);
  ASSERT_EQ(FileBytes(), 2 * size);
  EXPECT_TRUE(SameBlock(view, c));
  view = {};
  EXPECT_EQ(FileBytes(), 0u);
}

/// A view that outlives its tier still reads its bytes; the swap file is
/// unlinked with the tier all the same.
TEST_F(DiskTierTest, ViewOutlivesItsTier) {
  PackedBlock a = Payload(100000, 1);
  PackedBlock view;
  {
    DiskTier tier(dir_.string(), 0);
    tier.Store({7, 0}, a, &metrics_);
    tier.Store({7, 1}, Payload(5000, 2), &metrics_);
    view = tier.Load({7, 0}, &metrics_);
  }
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
  EXPECT_TRUE(SameBlock(view, a));
  view = {};
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

/// Views released on another thread while the tier keeps storing: each
/// extent is reused only after its view is gone (the TSan exercise for
/// the pin bookkeeping).
TEST_F(DiskTierTest, ViewsReleasedOnAnotherThread) {
  DiskTier tier(dir_.string(), 0);
  constexpr int kBlocks = 8;
  const uint64_t size = 64 << 10;
  std::vector<PackedBlock> first;
  std::vector<PackedBlock> views;
  for (int k = 0; k < kBlocks; ++k) {
    first.push_back(Payload(size, k + 1));
    tier.Store({7, k}, first.back(), &metrics_);
    views.push_back(tier.Load({7, k}, &metrics_));
    tier.Drop({7, k});
  }
  // Same-size stores while every first-round extent is pinned.
  std::map<int, PackedBlock> live;
  for (int k = kBlocks; k < 2 * kBlocks; ++k) {
    live[k] = Payload(size, k + 1);
    tier.Store({7, k}, live[k], &metrics_);
  }
  EXPECT_EQ(FileBytes(), 2 * kBlocks * size);

  std::thread reader([&] {
    for (int k = 0; k < kBlocks; ++k) {
      EXPECT_TRUE(SameBlock(views[k], first[k])) << k;
      views[k] = {};
    }
  });
  for (int k = 2 * kBlocks; k < 3 * kBlocks; ++k) {
    live[k] = Payload(size, k + 1);
    tier.Store({7, k}, live[k], &metrics_);
    tier.Drop({7, k - kBlocks});
    live.erase(k - kBlocks);
  }
  reader.join();
  for (const auto& [k, want] : live) {
    EXPECT_TRUE(SameBlock(tier.Load({7, k}, &metrics_), want)) << k;
  }
  EXPECT_LE(FileBytes(), 3 * kBlocks * size);
  tier.DropAll();
  EXPECT_EQ(FileBytes(), 0u);
}

/// At CacheManager level: a lazy view of a T2 block stays byte-identical
/// while that block is promoted to T1 and other blocks are swapped into
/// the space it freed.
TEST(BlockStoreTierTest, LazyT2ViewSurvivesPromotionAndReuse) {
  SparkConfig cfg = TieredConfig();
  cfg.admit_policy = AdmitPolicy::kOnSecondAccess;
  cfg.cache_level = StorageLevel::kDecaPages;
  cfg.deca_page_bytes = 4096;
  SparkContext ctx(cfg);
  constexpr int kRecs = 1000;  // 16 KB of records: equal-size payloads
  auto put = [&](int first, int last) {
    ctx.RunStage("put", [&](TaskContext& tc) {
      for (int b = first; b < last; ++b) {
        auto pages = std::make_shared<core::PageGroup>(tc.heap(), 4096);
        for (int i = 0; i < kRecs; ++i) {
          uint8_t* p = pages->Resolve(pages->Append(16));
          StoreRaw<int64_t>(p, b * 100000 + i);
          StoreRaw<double>(p + 8, b + i * 0.5);
        }
        tc.cache()->PutPages({9, b}, std::move(pages), kRecs, &tc.metrics());
      }
    });
  };
  CacheManager* cache = ctx.executor(0)->cache();
  put(0, 3);
  ASSERT_EQ(cache->EvictUnderPressure(UINT64_MAX), 3u);

  TaskMetrics metrics;
  LoadedBlock lazy = cache->GetLazy({9, 1}, &metrics);
  ASSERT_NE(lazy.packed, nullptr);
  EXPECT_TRUE(lazy.temporary);
  const std::vector<uint8_t> before(lazy.packed->data(),
                                    lazy.packed->data() + lazy.packed->size());
  LoadedBlock second = cache->GetLazy({9, 1}, &metrics);
  EXPECT_EQ(cache->promote_count(), 1u);
  EXPECT_GT(cache->t1_resident_bytes(), 0u);

  put(3, 6);
  // A T1 hit makes block 1 the most recently used, so block 3 swaps out
  // first and would take the extent block 1 freed, were it not pinned.
  cache->GetLazy({9, 1}, &metrics);
  ASSERT_EQ(cache->EvictUnderPressure(UINT64_MAX), 4u);  // 3..5 and T1's 1
  EXPECT_EQ(cache->swap_out_count(), 7u);
  ASSERT_EQ(lazy.packed->size(), before.size());
  EXPECT_EQ(std::memcmp(lazy.packed->data(), before.data(), before.size()), 0);
  cache->VerifyAccounting();
}

}  // namespace
}  // namespace deca::spark
