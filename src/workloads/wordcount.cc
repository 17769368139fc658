#include "workloads/wordcount.h"

#include <utility>

#include "analysis/global_classifier.h"
#include "cluster/scoped_job.h"
#include "common/clock.h"
#include "common/logging.h"
#include "common/random.h"
#include "jvm/heap_profiler.h"
#include "spark/keyed_shuffle.h"
#include "workloads/dist_entry.h"
#include "workloads/records.h"

namespace deca::workloads {

using analysis::SizeType;

namespace {

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
SizeType StaticTupleSizeType(const LongPairs& counts) {
  analysis::TypeUniverse u;
  const analysis::UdtType* t2 = counts.DefineUdt(&u);
  const analysis::UdtType* lng = u.Find("java.lang.Long");
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
  const LongPairs counts = WordCounts(ctx.registry());

  bool deca = params.mode == Mode::kDeca;
  if (deca) {
    // The optimizer's verdict gates the decomposed path — exactly what the
    // paper's code transformation does for safely decomposable UDTs.
    DECA_CHECK(StaticTupleSizeType(counts) == SizeType::kStaticFixed)
        << "WordCount Tuple2 must classify as SFST";
  }
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
        ctx.executor(0)->heap(), counts.tuple2_class());
  }
  Stopwatch run_sw;

  // -- map stage: count words with eager combining, spill-flushing when
  // the buffer exceeds the shuffle memory budget. A map stage: if an
  // executor crash-wipes later, its deposited chunks are dropped and the
  // lost partitions deterministically re-executed.
  ctx.RunMapStage("map", shuffle_id, [&](spark::TaskContext& tc) {
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
    spark::KeyedShuffleWriter out(tc, shuffle_id, counts);
    for (uint64_t i = 0; i < per_part; ++i) {
      // The map UDF emits a Tuple2 per word (paper Figure 8a tracks
      // these); the buffer then keeps only key/value.
      int64_t word = next_word();
      out.Emit(spark::Long{word}, spark::Long{1});
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
    spark::KeyedShuffleReader in(tc, shuffle_id, counts);
    in.ForEachCombined([&](const spark::Long&, const spark::Long& count) {
      total += static_cast<uint64_t>(count.value);
      ++distinct;
    });
    return EncodeBytes(std::pair<uint64_t, uint64_t>{total, distinct});
  });
  ctx.shuffle()->Release(shuffle_id);

  uint64_t total = 0;
  uint64_t distinct = 0;
  for (const auto& blob : blobs) {
    const auto [t, d] = DecodeBytes<std::pair<uint64_t, uint64_t>>(blob);
    total += t;
    distinct += d;
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
