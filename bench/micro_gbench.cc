// Micro/ablation benchmarks (google-benchmark) for the design choices
// DESIGN.md calls out: decomposed page access vs managed object-graph
// traversal, in-place vs allocating shuffle combining, GC pause cost vs
// live object count, page-size sweep, and serializer throughput.

#include <benchmark/benchmark.h>

#include <map>
#include <unordered_map>

#include "common/random.h"
#include "core/page.h"
#include "obs/trace.h"
#include "spark/context.h"
#include "spark/shuffle.h"
#include "spark/tier_backend.h"
#include "stream/epoch_region.h"
#include "stream/stream_context.h"
#include "workloads/lr.h"

namespace deca {
namespace {

using workloads::LrTypes;

constexpr int kDims = 10;

struct HeapFixture {
  HeapFixture() : types(&registry, kDims) {
    jvm::HeapConfig cfg;
    cfg.heap_bytes = 128u << 20;
    heap = std::make_unique<jvm::Heap>(cfg, &registry);
  }
  jvm::ClassRegistry registry;
  LrTypes types;
  std::unique_ptr<jvm::Heap> heap;
};

/// Scanning decomposed pages (Deca's cached layout).
void BM_PageScanGradient(benchmark::State& state) {
  HeapFixture f;
  const int n = static_cast<int>(state.range(0));
  core::PageGroup pages(f.heap.get(), 64u << 10);
  Rng rng(1);
  uint32_t rec = 8 + 8 * kDims;
  for (int i = 0; i < n; ++i) {
    core::SegPtr s = pages.Append(rec);
    uint8_t* p = pages.Resolve(s);
    StoreRaw<double>(p, 1.0);
    for (int j = 0; j < kDims; ++j) {
      StoreRaw<double>(p + 8 + 8 * j, rng.NextDouble());
    }
  }
  std::vector<double> weights(kDims, 0.5);
  std::vector<double> grad(kDims, 0.0);
  for (auto _ : state) {
    core::PageScanner scan(&pages);
    double dot = 0;
    while (!scan.AtEnd()) {
      const uint8_t* p = scan.Cur();
      for (int j = 0; j < kDims; ++j) {
        dot += weights[static_cast<size_t>(j)] *
               LoadRaw<double>(p + 8 + 8 * j);
      }
      scan.Advance(rec);
    }
    benchmark::DoNotOptimize(dot);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PageScanGradient)->Arg(10000)->Arg(50000);

/// Traversing the equivalent managed object graph (Spark's cached layout).
void BM_ObjectScanGradient(benchmark::State& state) {
  HeapFixture f;
  const int n = static_cast<int>(state.range(0));
  jvm::HandleScope scope(f.heap.get());
  jvm::Handle arr = scope.Make(f.heap->AllocateArray(
      f.registry.ref_array_class(), static_cast<uint32_t>(n)));
  Rng rng(1);
  double feats[kDims];
  for (int i = 0; i < n; ++i) {
    jvm::HandleScope inner(f.heap.get());
    for (auto& v : feats) v = rng.NextDouble();
    jvm::ObjRef lp = f.types.NewLabeledPoint(f.heap.get(), 1.0, feats);
    f.heap->SetRefElem(arr.get(), static_cast<uint32_t>(i), lp);
  }
  std::vector<double> weights(kDims, 0.5);
  for (auto _ : state) {
    double dot = 0;
    for (int i = 0; i < n; ++i) {
      jvm::ObjRef lp = f.heap->GetRefElem(arr.get(), static_cast<uint32_t>(i));
      jvm::ObjRef dv = f.heap->GetRefField(lp, f.types.lp_features_off());
      jvm::ObjRef data = f.heap->GetRefField(dv, f.types.dv_data_off());
      for (int j = 0; j < kDims; ++j) {
        dot += weights[static_cast<size_t>(j)] *
               f.heap->GetElem<double>(data, static_cast<uint32_t>(j));
      }
    }
    benchmark::DoNotOptimize(dot);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ObjectScanGradient)->Arg(10000)->Arg(50000);

spark::ShuffleOps SumOps(jvm::ClassRegistry* registry) {
  (void)registry;
  spark::ShuffleOps ops;
  ops.key_hash = [](jvm::Heap* h, jvm::ObjRef k) -> uint64_t {
    return static_cast<uint64_t>(h->GetField<int64_t>(k, 0)) *
           0x9e3779b97f4a7c15ULL;
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

/// Object-mode eager combining: allocates boxed key/value per insert and a
/// fresh aggregate per merge.
void BM_ObjectHashCombine(benchmark::State& state) {
  HeapFixture f;
  spark::ShuffleOps ops = SumOps(&f.registry);
  const uint64_t keys = static_cast<uint64_t>(state.range(0));
  Rng rng(3);
  for (auto _ : state) {
    spark::ObjectHashShuffleBuffer buf(f.heap.get(), &ops);
    for (int i = 0; i < 50000; ++i) {
      jvm::HandleScope scope(f.heap.get());
      jvm::Handle k = scope.Make(
          f.heap->AllocateInstance(f.registry.boxed_long_class()));
      f.heap->SetField<int64_t>(k.get(), 0,
                                static_cast<int64_t>(rng.NextBounded(keys)));
      jvm::Handle v = scope.Make(
          f.heap->AllocateInstance(f.registry.boxed_long_class()));
      f.heap->SetField<int64_t>(v.get(), 0, 1);
      buf.Insert(k.get(), v.get());
    }
    benchmark::DoNotOptimize(buf.size());
  }
  state.SetItemsProcessed(state.iterations() * 50000);
}
BENCHMARK(BM_ObjectHashCombine)->Arg(1000)->Arg(20000);

/// Deca in-place combining over page segments: zero allocation per merge.
void BM_DecaHashCombine(benchmark::State& state) {
  HeapFixture f;
  spark::ShuffleOps ops = SumOps(&f.registry);
  const uint64_t keys = static_cast<uint64_t>(state.range(0));
  Rng rng(3);
  for (auto _ : state) {
    spark::DecaHashShuffleBuffer buf(f.heap.get(), &ops, 64u << 10);
    for (int i = 0; i < 50000; ++i) {
      int64_t k = static_cast<int64_t>(rng.NextBounded(keys));
      int64_t one = 1;
      buf.Insert(reinterpret_cast<const uint8_t*>(&k),
                 reinterpret_cast<const uint8_t*>(&one));
    }
    benchmark::DoNotOptimize(buf.size());
  }
  state.SetItemsProcessed(state.iterations() * 50000);
}
BENCHMARK(BM_DecaHashCombine)->Arg(1000)->Arg(20000);

/// Ablation: the static-offset hash table (paper Section 4.3.2 — no
/// pointer array, slots addressed arithmetically within the pages) vs the
/// pointer-array variant measured above.
void BM_DecaStaticHashCombine(benchmark::State& state) {
  HeapFixture f;
  spark::ShuffleOps ops = SumOps(&f.registry);
  const uint64_t keys = static_cast<uint64_t>(state.range(0));
  Rng rng(3);
  for (auto _ : state) {
    spark::DecaStaticHashShuffleBuffer buf(f.heap.get(), &ops, 64u << 10);
    for (int i = 0; i < 50000; ++i) {
      int64_t k = static_cast<int64_t>(rng.NextBounded(keys));
      int64_t one = 1;
      buf.Insert(reinterpret_cast<const uint8_t*>(&k),
                 reinterpret_cast<const uint8_t*>(&one));
    }
    benchmark::DoNotOptimize(buf.size());
  }
  state.SetItemsProcessed(state.iterations() * 50000);
}
BENCHMARK(BM_DecaStaticHashCombine)->Arg(1000)->Arg(20000);

/// Full-GC pause as a function of the number of live objects — the core
/// cost Deca eliminates by replacing millions of objects with a few pages.
void BM_FullGcPauseVsLiveObjects(benchmark::State& state) {
  HeapFixture f;
  const int n = static_cast<int>(state.range(0));
  jvm::VectorRootProvider roots;
  f.heap->AddRootProvider(&roots);
  Rng rng(5);
  double feats[kDims];
  for (int i = 0; i < n; ++i) {
    jvm::HandleScope inner(f.heap.get());
    for (auto& v : feats) v = rng.NextDouble();
    roots.refs().push_back(
        f.types.NewLabeledPoint(f.heap.get(), 1.0, feats));
  }
  for (auto _ : state) {
    f.heap->CollectFull();
  }
  f.heap->RemoveRootProvider(&roots);
  state.counters["live_objects"] = 3.0 * n;
}
BENCHMARK(BM_FullGcPauseVsLiveObjects)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

/// Same live data held as decomposed pages: the GC traces only the pages.
void BM_FullGcPauseVsLivePages(benchmark::State& state) {
  HeapFixture f;
  const int n = static_cast<int>(state.range(0));
  core::PageGroup pages(f.heap.get(), 64u << 10);
  for (int i = 0; i < n; ++i) pages.Append(8 + 8 * kDims);
  for (auto _ : state) {
    f.heap->CollectFull();
  }
  state.counters["pages"] = static_cast<double>(pages.page_count());
}
BENCHMARK(BM_FullGcPauseVsLivePages)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

/// Page-size ablation: too-small pages mean more GC roots and more append
/// overhead; too-large pages waste tail space (reported as a counter).
void BM_PageSizeAblation(benchmark::State& state) {
  HeapFixture f;
  const uint32_t page_bytes = static_cast<uint32_t>(state.range(0));
  const uint32_t rec = 88;
  for (auto _ : state) {
    core::PageGroup pages(f.heap.get(), page_bytes);
    for (int i = 0; i < 20000; ++i) pages.Append(rec);
    benchmark::DoNotOptimize(pages.page_count());
    state.counters["pages"] = static_cast<double>(pages.page_count());
    state.counters["waste_pct"] =
        100.0 *
        (static_cast<double>(pages.footprint_bytes()) -
         static_cast<double>(pages.used_bytes())) /
        static_cast<double>(pages.footprint_bytes());
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_PageSizeAblation)
    ->Arg(1u << 10)
    ->Arg(16u << 10)
    ->Arg(64u << 10)
    ->Arg(1u << 20);

/// Probe keys for the block-store lookup pair below: the sub-block key
/// population of a serving run (a handful of RDD ids, sequential
/// partition*1024+sub granules), probed in a deterministic shuffled order.
std::vector<spark::BlockKey> LookupKeys(int n) {
  std::vector<spark::BlockKey> keys;
  keys.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    keys.push_back({i % 4, (i / 4) * 1024 + i % 1024});
  }
  Rng rng(11);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.NextBounded(i)]);
  }
  return keys;
}

/// The CacheManager's hot lookup before the tiered refactor: an ordered
/// std::map keyed by BlockKey (one pointer-chasing tree descent per Get).
void BM_BlockKeyMapLookup(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<spark::BlockKey> keys = LookupKeys(n);
  std::map<spark::BlockKey, uint64_t> blocks;
  for (const auto& k : keys) {
    blocks[k] = static_cast<uint64_t>(k.partition);
  }
  for (auto _ : state) {
    uint64_t sum = 0;
    for (const auto& k : keys) sum += blocks.find(k)->second;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BlockKeyMapLookup)->Arg(1024)->Arg(16384);

/// The replacement: unordered_map with the splitmix64-mixed BlockKeyHash —
/// one bucket probe per Get, no ordering maintained.
void BM_BlockKeyHashLookup(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<spark::BlockKey> keys = LookupKeys(n);
  std::unordered_map<spark::BlockKey, uint64_t, spark::BlockKeyHash> blocks;
  for (const auto& k : keys) {
    blocks[k] = static_cast<uint64_t>(k.partition);
  }
  for (auto _ : state) {
    uint64_t sum = 0;
    for (const auto& k : keys) sum += blocks.find(k)->second;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BlockKeyHashLookup)->Arg(1024)->Arg(16384);

/// Kryo-style serialization / deserialization throughput per record.
void BM_KryoSerialize(benchmark::State& state) {
  HeapFixture f;
  jvm::HandleScope scope(f.heap.get());
  double feats[kDims];
  for (int j = 0; j < kDims; ++j) feats[j] = j * 0.25;
  jvm::Handle lp =
      scope.Make(f.types.NewLabeledPoint(f.heap.get(), 1.0, feats));
  ByteWriter w;
  for (auto _ : state) {
    w.Clear();
    f.types.ops().serialize(f.heap.get(), lp.get(), &w);
    benchmark::DoNotOptimize(w.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KryoSerialize);

void BM_KryoDeserialize(benchmark::State& state) {
  HeapFixture f;
  jvm::HandleScope scope(f.heap.get());
  double feats[kDims];
  for (int j = 0; j < kDims; ++j) feats[j] = j * 0.25;
  jvm::Handle lp =
      scope.Make(f.types.NewLabeledPoint(f.heap.get(), 1.0, feats));
  ByteWriter w;
  f.types.ops().serialize(f.heap.get(), lp.get(), &w);
  for (auto _ : state) {
    jvm::HandleScope inner(f.heap.get());
    ByteReader r(w.data(), w.size());
    benchmark::DoNotOptimize(f.types.ops().deserialize(f.heap.get(), &r));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KryoDeserialize);

/// Tracing overhead, disabled path: no recorder installed, so every hook
/// is one thread-local load plus a branch. This is the cost every
/// instrumented site pays when tracing is off (the default).
void BM_TraceHookDisabled(benchmark::State& state) {
  obs::ScopedRecorder off(nullptr);
  for (auto _ : state) {
    obs::Instant(obs::Cat::kMemory, "deny", 4096, 0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceHookDisabled);

/// Tracing overhead, enabled path: one ring-buffer slot write per event,
/// no allocation (the ring is preallocated at BeginWindow time).
void BM_TraceRecordInstant(benchmark::State& state) {
  obs::TraceRecorder rec(/*executor=*/0, 1u << 15);
  rec.BeginWindow(0, 0, 0);
  obs::ScopedRecorder on(&rec);
  for (auto _ : state) {
    obs::Instant(obs::Cat::kMemory, "deny", 4096, 0);
  }
  benchmark::DoNotOptimize(rec.pending());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRecordInstant);

spark::SparkConfig StreamBenchConfig() {
  spark::SparkConfig cfg;
  cfg.num_executors = 2;
  cfg.partitions_per_executor = 2;
  cfg.heap.heap_bytes = 32u << 20;
  return cfg;
}

/// Fixed cost of one streaming epoch with no data: region open, window
/// bookkeeping, accounting re-verification and footprint sampling at the
/// boundary, reclaim of the empty region. This is the floor every epoch
/// pays regardless of payload — it must stay microseconds, far below any
/// per-epoch GC pause it replaces.
void BM_EpochOpenClose(benchmark::State& state) {
  spark::SparkConfig cfg = StreamBenchConfig();
  spark::SparkContext ctx(cfg);
  stream::StreamOptions opts;
  opts.epochs = static_cast<int>(state.range(0));
  opts.window = 4;
  for (auto _ : state) {
    stream::StreamContext sc(&ctx, opts);
    sc.RunEpochs([](int, stream::EpochRegion&) {},
                 [](const stream::StreamWindow&) {});
    benchmark::DoNotOptimize(sc.epochs_run());
  }
  state.SetItemsProcessed(state.iterations() * opts.epochs);
  state.counters["us_per_epoch"] = benchmark::Counter(
      static_cast<double>(state.iterations() * opts.epochs),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_EpochOpenClose)->Arg(16)->Arg(64)->Unit(benchmark::kMicrosecond);

/// Region reclaim cost vs adopted page-group count: dropping an epoch is
/// a handful of refcount releases + byte accounting, independent of how
/// many records the pages hold — the paper's constant-ish-cost region
/// free vs per-object collector work.
void BM_EpochRegionReclaimPages(benchmark::State& state) {
  spark::SparkConfig cfg = StreamBenchConfig();
  spark::SparkContext ctx(cfg);
  const int groups = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    stream::EpochRegion region(0, ctx.num_executors());
    for (int g = 0; g < groups; ++g) {
      jvm::Heap* h = ctx.executor(g % ctx.num_executors())->heap();
      auto pages = std::make_shared<core::PageGroup>(h, 16u << 10);
      for (int i = 0; i < 256; ++i) pages->Append(32);
      region.AdoptPages(g % ctx.num_executors(), std::move(pages));
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(region.Reclaim(&ctx));
  }
  state.SetItemsProcessed(state.iterations() * groups);
}
BENCHMARK(BM_EpochRegionReclaimPages)
    ->Arg(4)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);

/// Pure region bookkeeping: construct, pin/unpin (one pin per
/// overlapping sliding window), reclaim empty. The driver-side cost of
/// tracking an epoch's lifetime, with no data attached.
void BM_EpochRegionBookkeeping(benchmark::State& state) {
  spark::SparkConfig cfg = StreamBenchConfig();
  spark::SparkContext ctx(cfg);
  for (auto _ : state) {
    stream::EpochRegion region(0, ctx.num_executors());
    region.Pin();
    region.Pin();
    region.Pin();
    region.Unpin();
    region.Unpin();
    benchmark::DoNotOptimize(region.Unpin());
    benchmark::DoNotOptimize(region.Reclaim(&ctx));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EpochRegionBookkeeping);

/// Enabled span: two clock reads plus one slot write at destruction.
void BM_TraceRecordSpan(benchmark::State& state) {
  obs::TraceRecorder rec(/*executor=*/0, 1u << 15);
  rec.BeginWindow(0, 0, 0);
  obs::ScopedRecorder on(&rec);
  for (auto _ : state) {
    obs::ScopedSpan span(obs::Cat::kTask, "task");
    span.set_args(1, 2);
  }
  benchmark::DoNotOptimize(rec.pending());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRecordSpan);

}  // namespace
}  // namespace deca

BENCHMARK_MAIN();
