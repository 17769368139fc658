#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "spark/context.h"

namespace deca::spark {
namespace {

/// Shuffle ops over (i64 key, i64 value) with sum combining, usable in
/// both object and decomposed modes.
ShuffleOps SumOps() {
  ShuffleOps ops;
  ops.key_hash = [](jvm::Heap* h, jvm::ObjRef k) -> uint64_t {
    return static_cast<uint64_t>(h->GetField<int64_t>(k, 0)) *
           0x9e3779b97f4a7c15ULL;
  };
  ops.key_equals = [](jvm::Heap* h, jvm::ObjRef a, jvm::ObjRef b) {
    return h->GetField<int64_t>(a, 0) == h->GetField<int64_t>(b, 0);
  };
  ops.combine = [](jvm::Heap* h, jvm::ObjRef agg, jvm::ObjRef v) {
    int64_t sum = h->GetField<int64_t>(agg, 0) + h->GetField<int64_t>(v, 0);
    jvm::ObjRef fresh =
        h->AllocateInstance(h->registry()->boxed_long_class());
    h->SetField<int64_t>(fresh, 0, sum);
    return fresh;
  };
  ops.entry_bytes = [](jvm::Heap*, jvm::ObjRef, jvm::ObjRef) -> uint64_t {
    return 56;
  };
  ops.deca_key_bytes = 8;
  ops.deca_value_bytes = 8;
  ops.deca_key_hash = [](const uint8_t* k) -> uint64_t {
    return LoadRaw<uint64_t>(k) * 0x9e3779b97f4a7c15ULL;
  };
  ops.deca_combine = [](uint8_t* agg, const uint8_t* v) {
    StoreRaw<int64_t>(agg, LoadRaw<int64_t>(agg) + LoadRaw<int64_t>(v));
  };
  return ops;
}

/// Property: for any random insert sequence, the object-mode buffer, the
/// Deca buffer, and a reference std::map agree exactly.
class BufferEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BufferEquivalenceTest, ObjectAndDecaBuffersMatchReference) {
  SparkConfig cfg;
  cfg.num_executors = 1;
  cfg.heap.heap_bytes = 24u << 20;
  cfg.spill_dir = "/tmp/deca_test_spill_prop";
  SparkContext ctx(cfg);
  jvm::Heap* h = ctx.executor(0)->heap();
  ShuffleOps ops = SumOps();

  Rng rng(GetParam());
  uint64_t key_space = 1 + rng.NextBounded(3000);
  int inserts = 1000 + static_cast<int>(rng.NextBounded(9000));

  std::map<int64_t, int64_t> reference;
  ObjectHashShuffleBuffer obj_buf(h, &ops);
  DecaHashShuffleBuffer deca_buf(h, &ops, 16 << 10);

  Rng data_rng(GetParam() * 97 + 1);
  for (int i = 0; i < inserts; ++i) {
    int64_t key = static_cast<int64_t>(data_rng.NextBounded(key_space));
    int64_t value = static_cast<int64_t>(data_rng.NextBounded(100)) - 50;
    reference[key] += value;
    {
      jvm::HandleScope scope(h);
      jvm::Handle k = scope.Make(
          h->AllocateInstance(h->registry()->boxed_long_class()));
      h->SetField<int64_t>(k.get(), 0, key);
      jvm::Handle v = scope.Make(
          h->AllocateInstance(h->registry()->boxed_long_class()));
      h->SetField<int64_t>(v.get(), 0, value);
      obj_buf.Insert(k.get(), v.get());
    }
    deca_buf.Insert(reinterpret_cast<const uint8_t*>(&key),
                    reinterpret_cast<const uint8_t*>(&value));
  }

  std::map<int64_t, int64_t> from_obj;
  obj_buf.ForEach([&](jvm::ObjRef k, jvm::ObjRef v) {
    from_obj[h->GetField<int64_t>(k, 0)] = h->GetField<int64_t>(v, 0);
  });
  std::map<int64_t, int64_t> from_deca;
  deca_buf.ForEach([&](const uint8_t* e) {
    from_deca[LoadRaw<int64_t>(e)] = LoadRaw<int64_t>(e + 8);
  });
  EXPECT_EQ(from_obj, reference);
  EXPECT_EQ(from_deca, reference);
  EXPECT_EQ(obj_buf.size(), reference.size());
  EXPECT_EQ(deca_buf.size(), reference.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 11));

/// Order contract: under the same hash, the Deca buffer's tagged pointer
/// array visits entries in exactly the object buffer's slot order, across
/// many doublings and after a Clear. Keys k and k + 2^32 share the low 32
/// bits of SumOps' multiplicative hash, so they carry the same slot tag
/// and home slot; only the key compare keeps their sums apart.
class BufferOrderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BufferOrderTest, DecaVisitsEntriesInObjectBufferOrder) {
  SparkConfig cfg;
  cfg.num_executors = 1;
  cfg.heap.heap_bytes = 32u << 20;
  cfg.spill_dir = "/tmp/deca_test_spill_prop";
  SparkContext ctx(cfg);
  jvm::Heap* h = ctx.executor(0)->heap();
  ShuffleOps ops = SumOps();
  ObjectHashShuffleBuffer obj_buf(h, &ops);
  DecaHashShuffleBuffer deca_buf(h, &ops, 16 << 10);

  Rng rng(GetParam() * 31 + 7);
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    // 4,100 to 9,800 distinct keys: the 64-slot table doubles 7-8 times.
    uint64_t key_space = 2000 + rng.NextBounded(4000);
    std::map<int64_t, int64_t> reference;
    for (int i = 0; i < 20000; ++i) {
      int64_t key = static_cast<int64_t>(rng.NextBounded(key_space));
      if (rng.NextBounded(2) == 0) key += int64_t{1} << 32;
      int64_t value = static_cast<int64_t>(rng.NextBounded(100)) - 50;
      reference[key] += value;
      {
        jvm::HandleScope scope(h);
        jvm::Handle k = scope.Make(
            h->AllocateInstance(h->registry()->boxed_long_class()));
        h->SetField<int64_t>(k.get(), 0, key);
        jvm::Handle v = scope.Make(
            h->AllocateInstance(h->registry()->boxed_long_class()));
        h->SetField<int64_t>(v.get(), 0, value);
        obj_buf.Insert(k.get(), v.get());
      }
      deca_buf.Insert(reinterpret_cast<const uint8_t*>(&key),
                      reinterpret_cast<const uint8_t*>(&value));
    }

    std::vector<std::pair<int64_t, int64_t>> from_obj;
    obj_buf.ForEach([&](jvm::ObjRef k, jvm::ObjRef v) {
      from_obj.emplace_back(h->GetField<int64_t>(k, 0),
                            h->GetField<int64_t>(v, 0));
    });
    std::vector<std::pair<int64_t, int64_t>> from_deca;
    deca_buf.ForEach([&](const uint8_t* e) {
      from_deca.emplace_back(LoadRaw<int64_t>(e), LoadRaw<int64_t>(e + 8));
    });
    EXPECT_EQ(from_deca, from_obj);
    std::map<int64_t, int64_t> sums(from_deca.begin(), from_deca.end());
    EXPECT_EQ(sums, reference);
    EXPECT_EQ(deca_buf.size(), reference.size());

    obj_buf.Clear();
    deca_buf.Clear();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferOrderTest,
                         ::testing::Range<uint64_t>(1, 11));

TEST(GroupByBufferStressTest, ManyGroupsManyValues) {
  SparkConfig cfg;
  cfg.num_executors = 1;
  cfg.heap.heap_bytes = 32u << 20;
  cfg.spill_dir = "/tmp/deca_test_spill_prop";
  SparkContext ctx(cfg);
  jvm::Heap* h = ctx.executor(0)->heap();
  ShuffleOps ops = SumOps();
  ObjectGroupByBuffer buf(h, &ops);
  Rng rng(42);
  std::map<int64_t, std::multiset<int64_t>> reference;
  for (int i = 0; i < 20000; ++i) {
    int64_t key = static_cast<int64_t>(rng.NextBounded(700));
    int64_t value = static_cast<int64_t>(rng.NextBounded(1'000'000));
    reference[key].insert(value);
    jvm::HandleScope scope(h);
    jvm::Handle k = scope.Make(
        h->AllocateInstance(h->registry()->boxed_long_class()));
    h->SetField<int64_t>(k.get(), 0, key);
    jvm::Handle v = scope.Make(
        h->AllocateInstance(h->registry()->boxed_long_class()));
    h->SetField<int64_t>(v.get(), 0, value);
    buf.Insert(k.get(), v.get());
  }
  ASSERT_EQ(buf.size(), reference.size());
  buf.ForEach([&](jvm::ObjRef k, jvm::ObjRef values, uint32_t count) {
    std::multiset<int64_t> got;
    for (uint32_t j = 0; j < count; ++j) {
      got.insert(h->GetField<int64_t>(h->GetRefElem(values, j), 0));
    }
    EXPECT_EQ(got, reference[h->GetField<int64_t>(k, 0)]);
  });
}

TEST(ShuffleBufferClearTest, ClearedBufferReusable) {
  SparkConfig cfg;
  cfg.num_executors = 1;
  cfg.heap.heap_bytes = 16u << 20;
  cfg.spill_dir = "/tmp/deca_test_spill_prop";
  SparkContext ctx(cfg);
  jvm::Heap* h = ctx.executor(0)->heap();
  ShuffleOps ops = SumOps();
  DecaHashShuffleBuffer buf(h, &ops, 8 << 10);
  for (int round = 0; round < 5; ++round) {
    for (int64_t k = 0; k < 500; ++k) {
      int64_t one = 1;
      buf.Insert(reinterpret_cast<const uint8_t*>(&k),
                 reinterpret_cast<const uint8_t*>(&one));
    }
    EXPECT_EQ(buf.size(), 500u);
    buf.Clear();
    EXPECT_EQ(buf.size(), 0u);
  }
}

/// Cache eviction property: with a random mixture of block sizes and a
/// tight budget, every block remains readable and byte-identical.
class CacheEvictionPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(CacheEvictionPropertyTest, AllBlocksSurviveEvictionChurn) {
  SparkConfig cfg;
  cfg.num_executors = 1;
  cfg.partitions_per_executor = 1;
  cfg.heap.heap_bytes = 24u << 20;
  cfg.memory_fraction = 0.1;  // tiny budget: most blocks must swap
  cfg.cache_level = StorageLevel::kDecaPages;
  cfg.spill_dir = "/tmp/deca_test_spill_prop";
  SparkContext ctx(cfg);
  Rng rng(GetParam() * 3 + 1);
  const int blocks = 12;
  std::vector<uint32_t> counts(blocks);
  ctx.RunStage("build", [&](TaskContext& tc) {
    for (int b = 0; b < blocks; ++b) {
      uint32_t n = 100 + static_cast<uint32_t>(rng.NextBounded(3000));
      counts[static_cast<size_t>(b)] = n;
      auto pages = std::make_shared<core::PageGroup>(tc.heap(), 16 << 10);
      for (uint32_t i = 0; i < n; ++i) {
        core::SegPtr s = pages->Append(16);
        uint8_t* p = pages->Resolve(s);
        StoreRaw<uint64_t>(p, static_cast<uint64_t>(b) << 32 | i);
        StoreRaw<uint64_t>(p + 8, i * 3);
      }
      tc.cache()->PutPages({50, b}, pages, n, &tc.metrics());
    }
  });
  // Read back in random order multiple times.
  ctx.RunStage("read", [&](TaskContext& tc) {
    for (int round = 0; round < 3; ++round) {
      for (int b = 0; b < blocks; ++b) {
        int pick = static_cast<int>(rng.NextBounded(blocks));
        LoadedBlock block = tc.cache()->Get({50, pick}, &tc.metrics());
        ASSERT_TRUE(block.valid());
        ASSERT_EQ(block.count, counts[static_cast<size_t>(pick)]);
        core::PageScanner scan(block.pages.get());
        uint32_t i = 0;
        while (!scan.AtEnd()) {
          uint8_t* p = scan.Cur();
          ASSERT_EQ(LoadRaw<uint64_t>(p),
                    static_cast<uint64_t>(pick) << 32 | i);
          ASSERT_EQ(LoadRaw<uint64_t>(p + 8), i * 3);
          scan.Advance(16);
          ++i;
        }
        ASSERT_EQ(i, counts[static_cast<size_t>(pick)]);
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheEvictionPropertyTest,
                         ::testing::Range<uint64_t>(1, 6));

}  // namespace
}  // namespace deca::spark
