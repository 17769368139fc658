#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "spark/context.h"
#include "spark/keyed_shuffle.h"
#include "workloads/lr.h"
#include "workloads/wordcount.h"

namespace deca::spark {
namespace {

/// Test record: class Rec { long id; double val; }.
struct RecModel {
  explicit RecModel(jvm::ClassRegistry* registry) {
    class_id = registry->RegisterClass(
        "Rec", {{"id", jvm::FieldKind::kLong}, {"val", jvm::FieldKind::kDouble}});
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
    ops.deca_bytes = [](jvm::Heap*, jvm::ObjRef) -> uint32_t { return 16; };
    ops.decompose = [](jvm::Heap* h, jvm::ObjRef r, uint8_t* out) {
      StoreRaw<int64_t>(out, h->GetField<int64_t>(r, 0));
      StoreRaw<double>(out + 8, h->GetField<double>(r, 8));
    };
    ops.reconstruct = [cid](jvm::Heap* h, const uint8_t* in) {
      jvm::ObjRef rec = h->AllocateInstance(cid);
      h->SetField<int64_t>(rec, 0, LoadRaw<int64_t>(in));
      h->SetField<double>(rec, 8, LoadRaw<double>(in + 8));
      return rec;
    };
  }

  uint32_t class_id;
  RecordOps ops;
};

/// Shuffle ops over (boxed long key, boxed long count) with sum combining.
struct SumShuffleModel {
  explicit SumShuffleModel(jvm::ClassRegistry* registry) {
    uint32_t key_cls = registry->boxed_long_class();
    ops.key_hash = [](jvm::Heap* h, jvm::ObjRef k) -> uint64_t {
      uint64_t v = static_cast<uint64_t>(h->GetField<int64_t>(k, 0));
      return v * 0x9e3779b97f4a7c15ULL;
    };
    ops.key_equals = [](jvm::Heap* h, jvm::ObjRef a, jvm::ObjRef b) {
      return h->GetField<int64_t>(a, 0) == h->GetField<int64_t>(b, 0);
    };
    ops.combine = [](jvm::Heap* h, jvm::ObjRef agg, jvm::ObjRef v) {
      int64_t sum = h->GetField<int64_t>(agg, 0) + h->GetField<int64_t>(v, 0);
      jvm::ObjRef fresh = h->AllocateInstance(h->registry()->boxed_long_class());
      h->SetField<int64_t>(fresh, 0, sum);
      return fresh;
    };
    ops.entry_bytes = [](jvm::Heap*, jvm::ObjRef, jvm::ObjRef) -> uint64_t {
      return 2 * (jvm::kHeaderBytes + 8) + 8;
    };
    ops.serialize_key = [](jvm::Heap* h, jvm::ObjRef k, ByteWriter* w) {
      w->WriteVarI64(h->GetField<int64_t>(k, 0));
    };
    ops.serialize_value = [](jvm::Heap* h, jvm::ObjRef v, ByteWriter* w) {
      w->WriteVarI64(h->GetField<int64_t>(v, 0));
    };
    ops.deserialize_key = [key_cls](jvm::Heap* h, ByteReader* r) {
      jvm::ObjRef k = h->AllocateInstance(key_cls);
      h->SetField<int64_t>(k, 0, r->ReadVarI64());
      return k;
    };
    ops.deserialize_value = ops.deserialize_key;
    // Deca mode: 8-byte key, 8-byte value, in-place sum.
    ops.deca_key_bytes = 8;
    ops.deca_value_bytes = 8;
    ops.deca_key_hash = [](const uint8_t* k) -> uint64_t {
      return LoadRaw<uint64_t>(k) * 0x9e3779b97f4a7c15ULL;
    };
    ops.deca_combine = [](uint8_t* agg, const uint8_t* v) {
      StoreRaw<int64_t>(agg, LoadRaw<int64_t>(agg) + LoadRaw<int64_t>(v));
    };
  }

  ShuffleOps ops;
};

SparkConfig SmallConfig() {
  SparkConfig cfg;
  cfg.num_executors = 2;
  cfg.partitions_per_executor = 2;
  cfg.heap.heap_bytes = 16u << 20;
  cfg.spill_dir = "/tmp/deca_test_spill";
  return cfg;
}

TEST(SparkContextTest, StageRunsOneTaskPerPartition) {
  SparkContext ctx(SmallConfig());
  int runs = 0;
  std::vector<int> partitions;
  ctx.RunStage("count", [&](TaskContext& tc) {
    ++runs;
    partitions.push_back(tc.partition());
  });
  EXPECT_EQ(runs, 4);
  EXPECT_EQ(partitions, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_GT(ctx.metrics().wall_ms, 0.0);
}

TEST(SparkContextTest, TaskGcAttributed) {
  SparkContext ctx(SmallConfig());
  ctx.RunStage("alloc", [&](TaskContext& tc) {
    jvm::Heap* h = tc.heap();
    for (int i = 0; i < 200000; ++i) {
      h->AllocateInstance(h->registry()->boxed_long_class());
    }
  });
  EXPECT_GT(ctx.metrics().tasks.gc_ms, 0.0);
  EXPECT_GT(ctx.TotalMinorGcs(), 0u);
}

class CacheTest : public ::testing::TestWithParam<StorageLevel> {};

TEST_P(CacheTest, PutGetRoundTrip) {
  SparkConfig cfg = SmallConfig();
  cfg.cache_level = GetParam();
  SparkContext ctx(cfg);
  RecModel model(ctx.registry());
  ctx.RegisterCachedRdd(1, &model.ops);

  const int n = 100;
  ctx.RunStage("build", [&](TaskContext& tc) {
    jvm::Heap* h = tc.heap();
    if (GetParam() == StorageLevel::kDecaPages) {
      auto pages = std::make_shared<core::PageGroup>(h, 4096);
      for (int i = 0; i < n; ++i) {
        core::SegPtr s = pages->Append(16);
        uint8_t* p = pages->Resolve(s);
        StoreRaw<int64_t>(p, tc.partition() * 1000 + i);
        StoreRaw<double>(p + 8, i * 0.5);
      }
      tc.cache()->PutPages({1, tc.partition()}, pages, n, &tc.metrics());
      return;
    }
    jvm::HandleScope scope(h);
    jvm::Handle arr = scope.Make(
        h->AllocateArray(h->registry()->ref_array_class(), n));
    for (int i = 0; i < n; ++i) {
      jvm::HandleScope inner(h);
      jvm::ObjRef rec = h->AllocateInstance(model.class_id);
      h->SetField<int64_t>(rec, 0, tc.partition() * 1000 + i);
      h->SetField<double>(rec, 8, i * 0.5);
      h->SetRefElem(arr.get(), static_cast<uint32_t>(i), rec);
    }
    tc.cache()->PutObjects({1, tc.partition()}, arr.get(), n, &tc.metrics());
  });

  ctx.RunStage("read", [&](TaskContext& tc) {
    jvm::Heap* h = tc.heap();
    LoadedBlock block = tc.cache()->Get({1, tc.partition()}, &tc.metrics());
    ASSERT_TRUE(block.valid());
    ASSERT_EQ(block.count, static_cast<uint32_t>(n));
    switch (block.level) {
      case StorageLevel::kMemoryObjects: {
        for (int i = 0; i < n; ++i) {
          jvm::ObjRef rec =
              h->GetRefElem(block.object_array, static_cast<uint32_t>(i));
          EXPECT_EQ(h->GetField<int64_t>(rec, 0), tc.partition() * 1000 + i);
          EXPECT_EQ(h->GetField<double>(rec, 8), i * 0.5);
        }
        break;
      }
      case StorageLevel::kMemorySerialized: {
        ByteReader r(h->ArrayData(block.serialized),
                     h->ArrayLength(block.serialized));
        jvm::HandleScope scope(h);
        for (int i = 0; i < n; ++i) {
          jvm::ObjRef rec = model.ops.deserialize(h, &r);
          EXPECT_EQ(h->GetField<int64_t>(rec, 0), tc.partition() * 1000 + i);
          (void)scope;
        }
        break;
      }
      case StorageLevel::kDecaPages: {
        core::PageScanner scan(block.pages.get());
        int i = 0;
        while (!scan.AtEnd()) {
          uint8_t* p = scan.Cur();
          EXPECT_EQ(LoadRaw<int64_t>(p), tc.partition() * 1000 + i);
          EXPECT_EQ(LoadRaw<double>(p + 8), i * 0.5);
          scan.Advance(16);
          ++i;
        }
        EXPECT_EQ(i, n);
        break;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllLevels, CacheTest,
    ::testing::Values(StorageLevel::kMemoryObjects,
                      StorageLevel::kMemorySerialized,
                      StorageLevel::kDecaPages),
    [](const ::testing::TestParamInfo<StorageLevel>& info) {
      return std::string(StorageLevelName(info.param));
    });

TEST(CacheSwapTest, EvictsToDiskAndStreamsBack) {
  SparkConfig cfg = SmallConfig();
  cfg.num_executors = 1;
  cfg.partitions_per_executor = 1;
  cfg.heap.heap_bytes = 16u << 20;
  cfg.memory_fraction = 0.02;  // tiny storage budget forces eviction
  cfg.storage_fraction = 0.5;
  SparkContext ctx(cfg);
  RecModel model(ctx.registry());
  ctx.RegisterCachedRdd(7, &model.ops);
  const int n = 5000;  // ~160KB of objects > ~160KB budget
  ctx.RunStage("build", [&](TaskContext& tc) {
    jvm::Heap* h = tc.heap();
    for (int b = 0; b < 4; ++b) {
      jvm::HandleScope scope(h);
      jvm::Handle arr = scope.Make(
          h->AllocateArray(h->registry()->ref_array_class(), n));
      for (int i = 0; i < n; ++i) {
        jvm::HandleScope inner(h);
        jvm::ObjRef rec = h->AllocateInstance(model.class_id);
        h->SetField<int64_t>(rec, 0, b * 100000 + i);
        h->SetRefElem(arr.get(), static_cast<uint32_t>(i), rec);
      }
      tc.cache()->PutObjects({7, b}, arr.get(), n, &tc.metrics());
    }
  });
  Executor* e = ctx.executor(0);
  EXPECT_GT(e->cache()->swap_out_count(), 0u);
  EXPECT_GT(e->cache()->disk_bytes(), 0u);
  // All four blocks readable, including swapped ones.
  ctx.RunStage("read", [&](TaskContext& tc) {
    jvm::Heap* h = tc.heap();
    for (int b = 0; b < 4; ++b) {
      jvm::HandleScope scope(h);
      LoadedBlock block = tc.cache()->Get({7, b}, &tc.metrics());
      ASSERT_TRUE(block.valid());
      jvm::Handle arr = scope.Make(block.object_array);
      for (int i = 0; i < n; i += 977) {
        jvm::ObjRef rec =
            h->GetRefElem(arr.get(), static_cast<uint32_t>(i));
        EXPECT_EQ(h->GetField<int64_t>(rec, 0), b * 100000 + i);
      }
    }
  });
  EXPECT_GT(ctx.metrics().tasks.spill_ms, 0.0);
}

TEST(ShuffleServiceTest, ChunkRouting) {
  LocalShuffleService svc;
  int id = svc.RegisterShuffle(3);
  svc.PutChunk(id, 0, /*map_partition=*/0, {1, 2, 3});
  svc.PutChunk(id, 2, /*map_partition=*/0, {4});
  svc.PutChunk(id, 0, /*map_partition=*/1, {5, 6});
  EXPECT_EQ(svc.GetChunks(id, 0).size(), 2u);
  EXPECT_EQ(svc.GetChunks(id, 1).size(), 0u);
  EXPECT_EQ(svc.GetChunks(id, 2).size(), 1u);
  EXPECT_EQ(svc.total_bytes(id), 6u);
  svc.Release(id);
  EXPECT_EQ(svc.total_bytes(id), 0u);
}

// Reduce-side chunk order must be the map partition order regardless of
// the order map tasks deposited them (the parallel runtime's determinism
// contract).
TEST(ShuffleServiceTest, ChunksSortedByMapPartition) {
  LocalShuffleService svc;
  int id = svc.RegisterShuffle(1);
  svc.PutChunk(id, 0, /*map_partition=*/3, {30});
  svc.PutChunk(id, 0, /*map_partition=*/0, {0});
  svc.PutChunk(id, 0, /*map_partition=*/2, {20});
  svc.PutChunk(id, 0, /*map_partition=*/1, {10});
  const auto& chunks = svc.GetChunks(id, 0);
  ASSERT_EQ(chunks.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(chunks[i][0], static_cast<uint8_t>(10 * i));
  }
}

TEST(ShuffleServiceTest, ConcurrentPutChunkKeepsDeterministicOrder) {
  LocalShuffleService svc;
  const int kMappers = 32;
  int id = svc.RegisterShuffle(2);
  std::vector<std::thread> mappers;
  for (int m = 0; m < kMappers; ++m) {
    mappers.emplace_back([&svc, id, m] {
      for (int r = 0; r < 2; ++r) {
        svc.PutChunk(id, r, m, {static_cast<uint8_t>(m)});
      }
    });
  }
  for (auto& t : mappers) t.join();
  for (int r = 0; r < 2; ++r) {
    const auto& chunks = svc.GetChunks(id, r);
    ASSERT_EQ(chunks.size(), static_cast<size_t>(kMappers));
    for (int m = 0; m < kMappers; ++m) {
      EXPECT_EQ(chunks[static_cast<size_t>(m)][0], static_cast<uint8_t>(m));
    }
  }
}

TEST(ObjectHashBufferTest, EagerCombineAggregates) {
  SparkContext ctx(SmallConfig());
  SumShuffleModel model(ctx.registry());
  jvm::Heap* h = ctx.executor(0)->heap();
  ObjectHashShuffleBuffer buf(h, &model.ops);
  Rng rng(5);
  std::map<int64_t, int64_t> expected;
  for (int i = 0; i < 5000; ++i) {
    int64_t key = static_cast<int64_t>(rng.NextBounded(100));
    jvm::HandleScope scope(h);
    jvm::Handle k = scope.Make(
        h->AllocateInstance(h->registry()->boxed_long_class()));
    h->SetField<int64_t>(k.get(), 0, key);
    jvm::Handle v = scope.Make(
        h->AllocateInstance(h->registry()->boxed_long_class()));
    h->SetField<int64_t>(v.get(), 0, 1);
    buf.Insert(k.get(), v.get());
    expected[key] += 1;
  }
  EXPECT_EQ(buf.size(), 100u);
  std::map<int64_t, int64_t> actual;
  buf.ForEach([&](jvm::ObjRef k, jvm::ObjRef v) {
    actual[h->GetField<int64_t>(k, 0)] = h->GetField<int64_t>(v, 0);
  });
  EXPECT_EQ(actual, expected);
}

TEST(DecaHashBufferTest, InPlaceCombineMatchesObjectMode) {
  SparkContext ctx(SmallConfig());
  SumShuffleModel model(ctx.registry());
  jvm::Heap* h = ctx.executor(0)->heap();
  DecaHashShuffleBuffer buf(h, &model.ops, 4096);
  Rng rng(5);
  std::map<int64_t, int64_t> expected;
  uint64_t allocs_before = h->stats().objects_allocated;
  for (int i = 0; i < 5000; ++i) {
    int64_t key = static_cast<int64_t>(rng.NextBounded(100));
    int64_t one = 1;
    buf.Insert(reinterpret_cast<const uint8_t*>(&key),
               reinterpret_cast<const uint8_t*>(&one));
    expected[key] += 1;
  }
  EXPECT_EQ(buf.size(), 100u);
  // Only page allocations: far fewer objects than the 10000 boxed values
  // object mode would create.
  EXPECT_LT(h->stats().objects_allocated - allocs_before, 10u);
  std::map<int64_t, int64_t> actual;
  buf.ForEach([&](const uint8_t* entry) {
    actual[LoadRaw<int64_t>(entry)] = LoadRaw<int64_t>(entry + 8);
  });
  EXPECT_EQ(actual, expected);
}

TEST(GroupByBufferTest, GroupsAllValues) {
  SparkContext ctx(SmallConfig());
  SumShuffleModel model(ctx.registry());
  jvm::Heap* h = ctx.executor(0)->heap();
  ObjectGroupByBuffer buf(h, &model.ops);
  for (int i = 0; i < 300; ++i) {
    jvm::HandleScope scope(h);
    jvm::Handle k = scope.Make(
        h->AllocateInstance(h->registry()->boxed_long_class()));
    h->SetField<int64_t>(k.get(), 0, i % 10);
    jvm::Handle v = scope.Make(
        h->AllocateInstance(h->registry()->boxed_long_class()));
    h->SetField<int64_t>(v.get(), 0, i);
    buf.Insert(k.get(), v.get());
  }
  EXPECT_EQ(buf.size(), 10u);
  std::map<int64_t, int64_t> group_sizes;
  buf.ForEach([&](jvm::ObjRef k, jvm::ObjRef values, uint32_t count) {
    group_sizes[h->GetField<int64_t>(k, 0)] = count;
    // Values are intact managed objects.
    for (uint32_t j = 0; j < count; ++j) {
      jvm::ObjRef v = h->GetRefElem(values, j);
      EXPECT_EQ(h->GetField<int64_t>(v, 0) % 10, h->GetField<int64_t>(k, 0));
    }
  });
  for (const auto& [k, c] : group_sizes) EXPECT_EQ(c, 30) << "key " << k;
}

TEST(DecaSortBufferTest, SortsByKey) {
  SparkContext ctx(SmallConfig());
  jvm::Heap* h = ctx.executor(0)->heap();
  DecaSortSpillWriter writer(
      h, 4096, ctx.config().spill_dir,
      [](const uint8_t* a, const uint8_t* b) {
        return LoadRaw<int64_t>(a) < LoadRaw<int64_t>(b);
      });
  Rng rng(11);
  std::vector<int64_t> keys;
  for (int i = 0; i < 500; ++i) {
    int64_t k = static_cast<int64_t>(rng.NextBounded(100000));
    keys.push_back(k);
    uint8_t rec[8];
    StoreRaw<int64_t>(rec, k);
    writer.Append(rec, 8);
  }
  std::sort(keys.begin(), keys.end());
  std::vector<int64_t> sorted;
  writer.Merge([&](const uint8_t* rec, uint32_t) {
    sorted.push_back(LoadRaw<int64_t>(rec));
  });
  // The whole run stays in memory: Merge sorts the pointer array and
  // visits it, with no spill file on the way.
  EXPECT_EQ(writer.spill_count(), 0u);
  EXPECT_EQ(sorted, keys);
}

/// End-to-end two-stage word count through the keyed-shuffle operator.
/// Factored into a helper so the tests below can run the same job with
/// different worker-thread counts or budgets and compare outcomes bitwise.
struct MiniWcOutcome {
  std::map<int64_t, int64_t> totals;
  // (minor, full) GC counts per executor heap.
  std::vector<std::pair<uint64_t, uint64_t>> gc_per_executor;
  uint64_t shuffle_bytes = 0;
};

MiniWcOutcome RunMiniWordCount(bool deca, int worker_threads,
                               SparkConfig cfg = SmallConfig()) {
  cfg.deca_shuffle = deca;
  cfg.num_worker_threads = worker_threads;
  SparkContext ctx(cfg);
  SumShuffleModel model(ctx.registry());
  const int reducers = ctx.num_partitions();
  int shuffle_id = ctx.shuffle()->RegisterShuffle(reducers);
  const int kWordsPerTask = 20000;
  const int kDistinct = 500;

  // Map stage: count words with eager combining; the writer drains its
  // buffer into per-reducer chunks.
  ctx.RunStage("map", [&](TaskContext& tc) {
    jvm::Heap* h = tc.heap();
    Rng rng(100 + static_cast<uint64_t>(tc.partition()));
    KeyedShuffleWriter out(
        tc, shuffle_id, &model.ops,
        deca ? ShuffleLayout::kDecomposed : ShuffleLayout::kObjects);
    for (int i = 0; i < kWordsPerTask; ++i) {
      int64_t word = static_cast<int64_t>(rng.NextBounded(kDistinct));
      if (deca) {
        int64_t one = 1;
        out.Insert(reinterpret_cast<const uint8_t*>(&word),
                   reinterpret_cast<const uint8_t*>(&one));
      } else {
        jvm::HandleScope scope(h);
        jvm::Handle k = scope.Make(
            h->AllocateInstance(h->registry()->boxed_long_class()));
        h->SetField<int64_t>(k.get(), 0, word);
        jvm::Handle v = scope.Make(
            h->AllocateInstance(h->registry()->boxed_long_class()));
        h->SetField<int64_t>(v.get(), 0, 1);
        out.Insert(k.get(), v.get());
      }
    }
    out.Finish();
  });

  // Reduce stage: merge chunks into per-partition maps (disjoint slots;
  // merged in partition order after the barrier).
  std::vector<std::map<int64_t, int64_t>> part_totals(
      static_cast<size_t>(reducers));
  ctx.RunStage("reduce", [&](TaskContext& tc) {
    jvm::Heap* h = tc.heap();
    std::map<int64_t, int64_t>& totals =
        part_totals[static_cast<size_t>(tc.partition())];
    KeyedShuffleReader in(tc, shuffle_id, &model.ops);
    if (deca) {
      DecaHashShuffleBuffer buf(h, &model.ops, cfg.deca_page_bytes);
      in.ForEachEntry(
          [&](const uint8_t* k, const uint8_t* v) { buf.Insert(k, v); });
      buf.ForEach([&](const uint8_t* entry) {
        totals[LoadRaw<int64_t>(entry)] += LoadRaw<int64_t>(entry + 8);
      });
    } else {
      ObjectHashShuffleBuffer buf(h, &model.ops);
      in.ForEachRecord([&](jvm::ObjRef k, jvm::ObjRef v) { buf.Insert(k, v); });
      buf.ForEach([&](jvm::ObjRef k, jvm::ObjRef v) {
        totals[h->GetField<int64_t>(k, 0)] += h->GetField<int64_t>(v, 0);
      });
    }
  });

  MiniWcOutcome outcome;
  for (const auto& part : part_totals) {
    for (const auto& [k, c] : part) outcome.totals[k] += c;
  }
  for (int e = 0; e < ctx.num_executors(); ++e) {
    const auto& stats = ctx.executor(e)->heap()->stats();
    outcome.gc_per_executor.emplace_back(stats.minor_count, stats.full_count);
  }
  outcome.shuffle_bytes = ctx.ShuffleTotalBytes(shuffle_id);
  return outcome;
}

class MiniWordCountTest : public ::testing::TestWithParam<bool> {};

TEST_P(MiniWordCountTest, TwoStageAggregation) {
  const int kWordsPerTask = 20000;
  const int kDistinct = 500;
  MiniWcOutcome o = RunMiniWordCount(GetParam(), /*worker_threads=*/0);
  // Every word counted exactly once across reducers.
  int64_t total = 0;
  for (const auto& [k, c] : o.totals) total += c;
  EXPECT_EQ(total, 4ll * kWordsPerTask);
  EXPECT_EQ(o.totals.size(), static_cast<size_t>(kDistinct));
}

// The tentpole guarantee: running the same job on the parallel runtime
// yields bit-identical results AND the same per-executor GC history.
TEST_P(MiniWordCountTest, ParallelMatchesSequential) {
  MiniWcOutcome seq = RunMiniWordCount(GetParam(), /*worker_threads=*/0);
  for (int threads : {1, 2, 4}) {
    MiniWcOutcome par = RunMiniWordCount(GetParam(), threads);
    EXPECT_EQ(par.totals, seq.totals) << threads << " threads";
    EXPECT_EQ(par.gc_per_executor, seq.gc_per_executor)
        << threads << " threads";
  }
}

// A buffer that outgrows the shuffle budget is drained mid-task: the
// partial aggregates of every drain ship separately, so more bytes cross
// the shuffle, and the reducers still count every word once.
TEST_P(MiniWordCountTest, BudgetedDrainsKeepTotals) {
  MiniWcOutcome roomy = RunMiniWordCount(GetParam(), /*worker_threads=*/0);
  SparkConfig tight = SmallConfig();
  tight.executor_memory_bytes = 16u << 10;  // an 8 KB shuffle budget
  tight.deca_page_bytes = 4u << 10;
  MiniWcOutcome drained = RunMiniWordCount(GetParam(), 0, tight);
  EXPECT_EQ(drained.totals, roomy.totals);
  EXPECT_GT(drained.shuffle_bytes, roomy.shuffle_bytes);
}

/// A decomposed chunk that lost bytes on its way (15 of a 16-byte entry)
/// aborts the reader, naming the shuffle, reducer and sizes, instead of
/// reading past the chunk's end; so does an entry width of zero.
TEST(KeyedShuffleReaderTest, PartialEntryFailsLoudly) {
  SparkContext ctx(SmallConfig());
  SumShuffleModel model(ctx.registry());
  int shuffle_id = ctx.shuffle()->RegisterShuffle(ctx.num_partitions());
  ctx.shuffle()->PutChunk(shuffle_id, 1, 0, std::vector<uint8_t>(15, 0));
  TaskContext tc(&ctx, ctx.executor_for_partition(1), 1,
                 ctx.num_partitions());
  KeyedShuffleReader in(tc, shuffle_id, &model.ops);
  auto visit = [](const uint8_t*, const uint8_t*) {};
  EXPECT_DEATH(in.ForEachEntry(visit),
               "shuffle 0 reducer 1: a 15-byte chunk does not hold whole "
               "16-byte entries");
  ShuffleOps widthless = model.ops;
  widthless.deca_key_bytes = 0;
  widthless.deca_value_bytes = 0;
  KeyedShuffleReader blind(tc, shuffle_id, &widthless);
  EXPECT_DEATH(blind.ForEachEntry(visit), "does not hold whole 0-byte");
}

INSTANTIATE_TEST_SUITE_P(Modes, MiniWordCountTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Deca" : "Spark";
                         });

// Full workloads across the two modes: outputs (including float results)
// and GC counts must match exactly.
TEST(ParallelWorkloadEquivalenceTest, WordCount) {
  workloads::WordCountParams p;
  p.total_words = 120000;
  p.distinct_keys = 3000;
  p.spark = SmallConfig();
  p.spark.num_executors = 4;
  workloads::WordCountResult seq = workloads::RunWordCount(p);
  p.spark.num_worker_threads = 4;
  workloads::WordCountResult par = workloads::RunWordCount(p);
  EXPECT_EQ(par.total_count, seq.total_count);
  EXPECT_EQ(par.distinct_found, seq.distinct_found);
  EXPECT_EQ(par.shuffle_bytes, seq.shuffle_bytes);
  EXPECT_EQ(par.run.minor_gcs, seq.run.minor_gcs);
  EXPECT_EQ(par.run.full_gcs, seq.run.full_gcs);
}

TEST(ParallelWorkloadEquivalenceTest, LogisticRegression) {
  workloads::MlParams p;
  p.num_points = 40000;
  p.iterations = 3;
  p.spark = SmallConfig();
  p.spark.num_executors = 4;
  workloads::LrResult seq = workloads::RunLogisticRegression(p);
  p.spark.num_worker_threads = 4;
  workloads::LrResult par = workloads::RunLogisticRegression(p);
  ASSERT_EQ(par.weights.size(), seq.weights.size());
  for (size_t j = 0; j < seq.weights.size(); ++j) {
    // Bitwise equality: the per-partition gradient fold fixes the float
    // accumulation order.
    EXPECT_EQ(par.weights[j], seq.weights[j]) << "weight " << j;
  }
  EXPECT_EQ(par.run.minor_gcs, seq.run.minor_gcs);
  EXPECT_EQ(par.run.full_gcs, seq.run.full_gcs);
}

}  // namespace
}  // namespace deca::spark
