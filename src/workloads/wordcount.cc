#include "workloads/wordcount.h"

#include <cstring>

#include "analysis/global_classifier.h"
#include "cluster/scoped_job.h"
#include "common/clock.h"
#include "common/logging.h"
#include "common/random.h"
#include "jvm/heap_profiler.h"
#include "spark/keyed_shuffle.h"
#include "workloads/dist_entry.h"

namespace deca::workloads {

using analysis::SizeType;
using jvm::FieldKind;
using jvm::HandleScope;
using jvm::ObjRef;

namespace {

/// Managed Tuple2 plus the (word, count) shuffle operations.
struct WcTypes {
  explicit WcTypes(jvm::ClassRegistry* registry) {
    tuple2_cls = registry->RegisterClass(
        "scala.Tuple2", {{"_1", FieldKind::kRef}, {"_2", FieldKind::kRef}});
    ops.key_hash = [](jvm::Heap* h, ObjRef k) -> uint64_t {
      return static_cast<uint64_t>(h->GetField<int64_t>(k, 0)) *
             0x9e3779b97f4a7c15ULL;
    };
    ops.key_equals = [](jvm::Heap* h, ObjRef a, ObjRef b) {
      return h->GetField<int64_t>(a, 0) == h->GetField<int64_t>(b, 0);
    };
    ops.combine = [](jvm::Heap* h, ObjRef agg, ObjRef v) -> ObjRef {
      int64_t sum =
          h->GetField<int64_t>(agg, 0) + h->GetField<int64_t>(v, 0);
      ObjRef fresh =
          h->AllocateInstance(h->registry()->boxed_long_class());
      h->SetField<int64_t>(fresh, 0, sum);
      return fresh;
    };
    ops.entry_bytes = [](jvm::Heap*, ObjRef, ObjRef) -> uint64_t {
      // Tuple2 + two boxed longs + table slot.
      return 3 * (jvm::kHeaderBytes + 8) + 8;
    };
    ops.serialize_key = [](jvm::Heap* h, ObjRef k, ByteWriter* w) {
      w->WriteVarI64(h->GetField<int64_t>(k, 0));
    };
    ops.serialize_value = ops.serialize_key;
    ops.deserialize_key = [](jvm::Heap* h, ByteReader* r) -> ObjRef {
      ObjRef k = h->AllocateInstance(h->registry()->boxed_long_class());
      h->SetField<int64_t>(k, 0, r->ReadVarI64());
      return k;
    };
    ops.deserialize_value = ops.deserialize_key;
    ops.deca_key_bytes = 8;
    ops.deca_value_bytes = 8;
    ops.deca_key_hash = [](const uint8_t* k) -> uint64_t {
      return LoadRaw<uint64_t>(k) * 0x9e3779b97f4a7c15ULL;
    };
    ops.deca_combine = [](uint8_t* agg, const uint8_t* v) {
      StoreRaw<int64_t>(agg, LoadRaw<int64_t>(agg) + LoadRaw<int64_t>(v));
    };
  }

  uint32_t tuple2_cls;
  spark::ShuffleOps ops;
};

// GCC at -O3 flags the aggregate Statement initializers below as
// maybe-uninitialized through the inlined std::string members of FieldRef
// — a known reachability false positive (every string is constructed
// before use).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
/// Static size-type of the map UDF's (word, 1) record: Tuple2's `_1`/`_2`
/// are Scala vals (final) referencing boxed longs whose payload is one
/// final primitive, so the classification proves SFST; the call graph
/// records the UDF's allocation sites for the points-to inference.
SizeType StaticTupleSizeType() {
  analysis::TypeUniverse u;
  auto* lng = u.DefineClass("java.lang.Long");
  u.AddField(lng, "value", /*is_final=*/true,
             {u.Primitive(FieldKind::kLong)});
  auto* t2 = u.DefineClass("scala.Tuple2");
  u.AddField(t2, "_1", /*is_final=*/true, {lng});
  u.AddField(t2, "_2", /*is_final=*/true, {lng});
  analysis::MethodInfo map_udf;
  map_udf.name = "WC.map";
  map_udf.statements.push_back({analysis::Statement::Kind::kNewObjectAssign,
                                {t2, "_1"},
                                lng,
                                {},
                                ""});
  map_udf.statements.push_back({analysis::Statement::Kind::kNewObjectAssign,
                                {t2, "_2"},
                                lng,
                                {},
                                ""});
  analysis::CallGraph cg;
  cg.AddMethod(map_udf);
  cg.SetEntry("WC.map");
  return analysis::GlobalClassifier(&cg).Classify(t2);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace

WordCountResult RunWordCount(const WordCountParams& params) {
  spark::SparkConfig cfg = params.spark;
  ApplyMode(params.mode, &cfg);
  // SPMD seam: a no-op in-process; spawns/joins the executor daemons in
  // process mode. Must outlive the context.
  cluster::ScopedJob job(&cfg, "wordcount", EncodeBytes(params));
  spark::SparkContext ctx(cfg);
  WcTypes types(ctx.registry());

  bool deca = params.mode == Mode::kDeca;
  if (deca) {
    // The optimizer's verdict gates the decomposed path — exactly what the
    // paper's code transformation does for safely decomposable UDTs.
    DECA_CHECK(StaticTupleSizeType() == SizeType::kStaticFixed)
        << "WordCount Tuple2 must classify as SFST";
  }
  spark::ShuffleLayout layout = deca ? spark::ShuffleLayout::kDecomposed
                                     : spark::ShuffleLayout::kObjects;
  // Heap profiling needs the mutating heap in this process; in process
  // mode executor 0's mutator lives in a daemon, so the profile is off.
  bool profile = params.profile && ctx.role() == spark::DistRole::kLocal;
  WordCountResult result;
  result.run.mode = params.mode;
  int parts = ctx.num_partitions();
  uint64_t per_part = params.total_words / static_cast<uint64_t>(parts);
  int shuffle_id = ctx.shuffle()->RegisterShuffle(parts);

  std::unique_ptr<jvm::HeapProfiler> profiler;
  if (profile) {
    profiler = std::make_unique<jvm::HeapProfiler>(
        ctx.executor(0)->heap(), types.tuple2_cls);
  }
  Stopwatch run_sw;

  // -- map stage: count words with eager combining, spill-flushing when
  // the buffer exceeds the shuffle memory budget. A map stage: if an
  // executor crash-wipes later, its deposited chunks are dropped and the
  // lost partitions deterministically re-executed.
  ctx.RunMapStage("map", shuffle_id, [&](spark::TaskContext& tc) {
    jvm::Heap* h = tc.heap();
    bool profiled = profile && tc.executor()->id() == 0;
    std::unique_ptr<Rng> word_rng;
    std::unique_ptr<ZipfSampler> zipf;
    uint64_t task_seed = params.seed + static_cast<uint64_t>(tc.partition());
    if (params.zipf_s > 0) {
      zipf = std::make_unique<ZipfSampler>(params.distinct_keys,
                                           params.zipf_s, task_seed);
    } else {
      word_rng = std::make_unique<Rng>(task_seed);
    }
    auto next_word = [&]() -> int64_t {
      return static_cast<int64_t>(
          zipf ? zipf->Next() : word_rng->NextBounded(params.distinct_keys));
    };
    spark::KeyedShuffleWriter out(tc, shuffle_id, &types.ops, layout);
    for (uint64_t i = 0; i < per_part; ++i) {
      int64_t word = next_word();
      if (deca) {
        int64_t one = 1;
        out.Insert(reinterpret_cast<const uint8_t*>(&word),
                   reinterpret_cast<const uint8_t*>(&one));
      } else {
        HandleScope scope(h);
        // The map UDF emits a Tuple2 per word (paper Figure 8a tracks
        // these); the buffer then keeps only key/value.
        jvm::Handle key = scope.Make(
            h->AllocateInstance(h->registry()->boxed_long_class()));
        h->SetField<int64_t>(key.get(), 0, word);
        jvm::Handle one = scope.Make(
            h->AllocateInstance(h->registry()->boxed_long_class()));
        h->SetField<int64_t>(one.get(), 0, 1);
        jvm::Handle tuple = scope.Make(h->AllocateInstance(types.tuple2_cls));
        h->SetRefField(tuple.get(), 0, key.get());
        h->SetRefField(tuple.get(), 4, one.get());
        out.Insert(h->GetRefField(tuple.get(), 0),
                   h->GetRefField(tuple.get(), 4));
      }
      if (profiled && (i + 1) % params.profile_every == 0) {
        profiler->Sample(run_sw.ElapsedMillis());
      }
    }
    out.Finish();
  });

  result.shuffle_bytes = ctx.ShuffleTotalBytes(shuffle_id);

  // -- reduce stage: merge per-reducer chunks. A collect stage: each
  // task's (total, distinct) blob is gathered in partition order (and
  // broadcast to every process in distributed mode), then folded below.
  auto blobs = ctx.RunCollectStage("reduce", [&](spark::TaskContext& tc)
                                                 -> std::vector<uint8_t> {
    // Accumulate locally and emit at task end, so a retried attempt
    // that failed mid-merge cannot double-count.
    uint64_t total = 0;
    uint64_t distinct = 0;
    jvm::Heap* h = tc.heap();
    spark::KeyedShuffleReader in(tc, shuffle_id, &types.ops);
    in.ForEachCombined(
        layout,
        [&](const uint8_t* entry) {
          total += static_cast<uint64_t>(LoadRaw<int64_t>(entry + 8));
          ++distinct;
        },
        [&](ObjRef, ObjRef v) {
          total += static_cast<uint64_t>(h->GetField<int64_t>(v, 0));
          ++distinct;
        });
    ByteWriter w;
    w.WriteVarU64(total);
    w.WriteVarU64(distinct);
    return w.TakeBuffer();
  });
  ctx.shuffle()->Release(shuffle_id);

  uint64_t total = 0;
  uint64_t distinct = 0;
  for (const auto& blob : blobs) {
    ByteReader r(blob.data(), blob.size());
    total += r.ReadVarU64();
    distinct += r.ReadVarU64();
  }

  result.run.exec_ms = run_sw.ElapsedMillis();
  result.total_count = total;
  result.distinct_found = distinct;
  FinalizeResult(&ctx, &result.run);
  if (profiler != nullptr) {
    result.run.object_counts = profiler->object_counts();
    result.run.gc_series = profiler->gc_time_ms();
  }
  return result;
}

}  // namespace deca::workloads
