#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "memory/memory_manager.h"
#include "spark/context.h"

namespace deca::memory {
namespace {

constexpr uint64_t kKb = 1024;

// -- ExecutorMemoryManager unit tests ---------------------------------------

TEST(MemoryManagerTest, ReserveReleaseRoundTrip) {
  ExecutorMemoryManager mm(100 * kKb, 0.5);
  EXPECT_EQ(mm.total_bytes(), 100 * kKb);
  EXPECT_EQ(mm.storage_floor_bytes(), 50 * kKb);
  {
    MemoryReservation r = mm.TryReserve(Pool::kExecution, 30 * kKb);
    ASSERT_TRUE(r.held());
    EXPECT_EQ(r.bytes(), 30 * kKb);
    EXPECT_EQ(mm.exec_used(), 30 * kKb);
  }
  // RAII: destruction returned the bytes.
  EXPECT_EQ(mm.exec_used(), 0u);
  EXPECT_EQ(mm.exec_peak(), 30 * kKb);
  EXPECT_EQ(mm.denied_reservations(), 0u);

  MemoryReservation r = mm.TryReserve(Pool::kStorage, 10 * kKb);
  ASSERT_TRUE(r.held());
  r.Release();
  r.Release();  // idempotent
  EXPECT_EQ(mm.storage_used(), 0u);
  EXPECT_EQ(mm.storage_peak(), 10 * kKb);
}

TEST(MemoryManagerTest, StorageBorrowsIdleExecutionMemory) {
  ExecutorMemoryManager mm(100 * kKb, 0.3);
  // With execution idle, storage may take the whole budget (its 30K floor
  // is only a protection, not a cap).
  MemoryReservation big = mm.TryReserve(Pool::kStorage, 90 * kKb);
  ASSERT_TRUE(big.held());
  // The storage cap is everything execution does not use — the whole
  // budget while execution is idle.
  EXPECT_EQ(mm.storage_limit(), 100 * kKb);
  EXPECT_FALSE(mm.StorageOverLimit());
  // Borrowed = bytes held beyond the floor.
  EXPECT_EQ(mm.borrowed_peak(), 60 * kKb);
  // A storage request past the total is denied (storage never evicts
  // execution, and there is nothing left).
  MemoryReservation over = mm.TryReserve(Pool::kStorage, 20 * kKb);
  EXPECT_FALSE(over.held());
  EXPECT_EQ(mm.denied_reservations(), 1u);
}

TEST(MemoryManagerTest, ExecutionEvictsStorageDownToFloorOnly) {
  ExecutorMemoryManager mm(100 * kKb, 0.4);
  // Simulated block store: holds storage reservations it can shed.
  std::vector<MemoryReservation> blocks;
  std::vector<uint64_t> evict_requests;
  mm.SetStorageEvictor([&](uint64_t need,
                           ExecutorMemoryManager::EvictStage stage,
                           bool for_oom) -> uint64_t {
    EXPECT_FALSE(for_oom);
    // This fake store has no off-heap tier: the demote stage sheds
    // nothing, like the real cache with storage_tiers=2.
    if (stage == ExecutorMemoryManager::EvictStage::kDemote) return 0;
    evict_requests.push_back(need);
    uint64_t evicted = 0;
    while (!blocks.empty() && evicted < need) {
      evicted += blocks.back().bytes();
      blocks.pop_back();
    }
    return evicted / (10 * kKb);
  });
  for (int i = 0; i < 8; ++i) {
    blocks.push_back(mm.TryReserve(Pool::kStorage, 10 * kKb));
    ASSERT_TRUE(blocks.back().held());
  }
  EXPECT_EQ(mm.storage_used(), 80 * kKb);

  // 50K execution request: 20K free, so 30K must come from eviction —
  // storage drops to 50K, still above its 40K floor.
  MemoryReservation r = mm.TryReserve(Pool::kExecution, 50 * kKb);
  ASSERT_TRUE(r.held());
  ASSERT_EQ(evict_requests.size(), 1u);
  EXPECT_EQ(evict_requests[0], 30 * kKb);
  EXPECT_EQ(mm.storage_used(), 50 * kKb);
  EXPECT_EQ(mm.denied_reservations(), 0u);

  // A further 20K request would need storage below its floor: the
  // evictor is asked for at most the evictable 10K, the grant still
  // fails, and the denial is counted.
  MemoryReservation r2 = mm.TryReserve(Pool::kExecution, 20 * kKb);
  EXPECT_FALSE(r2.held());
  EXPECT_EQ(mm.denied_reservations(), 1u);
  EXPECT_GE(mm.storage_used(), mm.storage_floor_bytes());
}

TEST(MemoryManagerTest, ForcedReserveOvercommitsAndCountsDenial) {
  ExecutorMemoryManager mm(10 * kKb, 0.5);
  MemoryReservation r = mm.Reserve(Pool::kStorage, 30 * kKb);
  ASSERT_TRUE(r.held());  // forced grants always hold...
  EXPECT_EQ(mm.storage_used(), 30 * kKb);
  EXPECT_EQ(mm.denied_reservations(), 1u);  // ...but the pressure shows
  EXPECT_TRUE(mm.StorageOverLimit());
}

TEST(MemoryManagerTest, PageChargesAndPoolTransfer) {
  ExecutorMemoryManager mm(100 * kKb, 0.5);
  mm.ChargePages(Pool::kExecution, 20 * kKb);
  EXPECT_EQ(mm.exec_used(), 20 * kKb);
  EXPECT_EQ(mm.page_bytes(), 20 * kKb);
  // A shuffle-built page group handed to the cache moves pools without
  // double counting.
  mm.TransferPages(Pool::kExecution, Pool::kStorage, 20 * kKb);
  EXPECT_EQ(mm.exec_used(), 0u);
  EXPECT_EQ(mm.storage_used(), 20 * kKb);
  EXPECT_EQ(mm.page_bytes(), 20 * kKb);
  mm.UnchargePages(Pool::kStorage, 20 * kKb);
  EXPECT_EQ(mm.page_bytes(), 0u);
  EXPECT_EQ(mm.denied_reservations(), 0u);
}

class FakePages : public PageFootprintSource {
 public:
  explicit FakePages(uint64_t bytes) : bytes_(bytes) {}
  uint64_t footprint_bytes() const override { return bytes_; }

 private:
  uint64_t bytes_;
};

TEST(MemoryManagerTest, VerifyAccountingMatchesRegisteredSources) {
  ExecutorMemoryManager mm(100 * kKb, 0.5);
  mm.RegisterHeapCapacity(64 * kKb);
  FakePages a(12 * kKb), b(8 * kKb);
  mm.RegisterPageSource(&a);
  mm.RegisterPageSource(&b);
  mm.ChargePages(Pool::kExecution, 12 * kKb);
  mm.ChargePages(Pool::kStorage, 8 * kKb);
  mm.VerifyAccounting(64 * kKb);  // aborts on drift
  MemoryStats s = mm.Snapshot();
  EXPECT_EQ(s.page_bytes, 20 * kKb);
  EXPECT_EQ(s.heap_capacity, 64 * kKb);
  mm.UnregisterPageSource(&b);
  mm.UnchargePages(Pool::kStorage, 8 * kKb);
  mm.VerifyAccounting(64 * kKb);
}

// -- Stage-barrier invariants across the whole engine -----------------------

/// Test record: class Rec { long id; double val; } (same shape the engine
/// tests use).
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
  spark::RecordOps ops;
};

/// Everything the unified plane reports for one pipeline run, folded into
/// comparable per-executor rows (no wall-clock fields).
struct PipelineObservation {
  std::vector<uint64_t> numbers;

  bool operator==(const PipelineObservation& o) const {
    return numbers == o.numbers;
  }
};

/// A mini pipeline exercising every charge path at once: page-group cache
/// blocks (execution -> storage transfer + LRU swap-out), and an execution
/// page group that borrows memory back from storage. Returns per-executor
/// accounting; `threads` selects the sequential driver loop (0) or the
/// parallel runtime.
PipelineObservation RunPipeline(int threads) {
  spark::SparkConfig cfg;
  cfg.num_executors = 2;
  cfg.partitions_per_executor = 2;
  cfg.num_worker_threads = threads;
  cfg.heap.heap_bytes = 16u << 20;
  cfg.executor_memory_bytes = 256u << 10;  // tiny: forces swap + denials
  cfg.storage_fraction = 0.5;
  cfg.cache_level = spark::StorageLevel::kDecaPages;
  cfg.spill_dir = "/tmp/deca_test_mm";
  spark::SparkContext ctx(cfg);
  RecModel model(ctx.registry());
  ctx.RegisterCachedRdd(1, &model.ops);

  // Stage 1: each partition caches a ~160KB page-group block. Two blocks
  // per executor (320KB) overflow the 256KB budget -> LRU swap-out.
  ctx.RunStage("build", [&](spark::TaskContext& tc) {
    auto pages = std::make_shared<core::PageGroup>(tc.heap(), 16u << 10);
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
      core::SegPtr s = pages->Append(16);
      uint8_t* p = pages->Resolve(s);
      StoreRaw<int64_t>(p, tc.partition() * 100000 + i);
      StoreRaw<double>(p + 8, i * 0.25);
    }
    tc.cache()->PutPages({1, tc.partition()}, std::move(pages), n,
                         &tc.metrics());
  });

  // Stage 2: a page group charged to the execution pool outgrows the
  // budget. The pool claws memory back from storage (swapping blocks out,
  // down to the floor), then its pages overcommit and count denials.
  ctx.RunStage("borrow", [&](spark::TaskContext& tc) {
    core::PageGroup pages(tc.heap(), 8u << 10);
    const uint32_t n = 60000;  // ~960KB >> the ~256KB execution region
    for (uint32_t i = 0; i < n; ++i) {
      uint8_t* p = pages.Resolve(pages.Append(16));
      StoreRaw<int64_t>(p, static_cast<int64_t>(i));
      StoreRaw<double>(p + 8, 1.0);
    }
    EXPECT_EQ(pages.segment_count(), n);
  });

  // Stage 3: swapped blocks stream back intact.
  ctx.RunStage("reload", [&](spark::TaskContext& tc) {
    spark::LoadedBlock block =
        tc.cache()->Get({1, tc.partition()}, &tc.metrics());
    ASSERT_TRUE(block.valid());
    core::PageScanner scan(block.pages.get());
    int i = 0;
    while (!scan.AtEnd()) {
      uint8_t* p = scan.Cur();
      ASSERT_EQ(LoadRaw<int64_t>(p), tc.partition() * 100000 + i);
      scan.Advance(16);
      ++i;
    }
    EXPECT_EQ(i, 10000);
  });

  // Fold everything comparable into one observation. The accounting
  // identity itself (pool charges == heap capacity registration + summed
  // page footprints) is asserted by VerifyMemoryAccounting at every stage
  // barrier above; re-check once more at the end.
  PipelineObservation obs;
  for (int e = 0; e < ctx.num_executors(); ++e) {
    ctx.executor(e)->VerifyMemoryAccounting();
    MemoryStats s = ctx.executor(e)->memory()->Snapshot();
    obs.numbers.insert(
        obs.numbers.end(),
        {s.total_bytes, s.storage_floor_bytes, s.exec_used, s.exec_peak,
         s.storage_used, s.storage_peak, s.borrowed_peak,
         s.denied_reservations, s.page_bytes, s.heap_capacity});
    obs.numbers.push_back(ctx.executor(e)->cache()->swap_out_count());
    obs.numbers.push_back(ctx.executor(e)->cache()->pressure_evictions());
  }
  return obs;
}

TEST(MemoryPipelineTest, PressurePathsFireUnderTinyBudget) {
  PipelineObservation obs = RunPipeline(0);
  // Layout per executor: [.., exec_peak(3), .., storage_peak(5),
  // borrowed_peak(6), denied(7), .., swap_outs(10), pressure(11)].
  ASSERT_EQ(obs.numbers.size(), 2 * 12u);
  for (int e = 0; e < 2; ++e) {
    size_t base = static_cast<size_t>(e) * 12;
    EXPECT_GT(obs.numbers[base + 3], 0u) << "exec peak, executor " << e;
    EXPECT_GT(obs.numbers[base + 5], 0u) << "storage peak, executor " << e;
    EXPECT_GT(obs.numbers[base + 7], 0u) << "denials, executor " << e;
    EXPECT_GT(obs.numbers[base + 10], 0u) << "swap-outs, executor " << e;
    // Pool arbitration is not an OOM rescue: the pressure counter stays 0.
    EXPECT_EQ(obs.numbers[base + 11], 0u) << "pressure, executor " << e;
  }
}

TEST(MemoryPipelineTest, ParallelRunsMatchSequentialAccounting) {
  PipelineObservation seq = RunPipeline(0);
  for (int threads : {2, 4}) {
    PipelineObservation par = RunPipeline(threads);
    EXPECT_EQ(seq, par) << "with " << threads << " worker threads";
  }
}

}  // namespace
}  // namespace deca::memory
