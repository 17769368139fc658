#include "workloads/graph.h"

#include <cstring>
#include <set>
#include <unordered_map>

#include "common/clock.h"
#include "common/logging.h"
#include "common/random.h"
#include "analysis/global_classifier.h"
#include "spark/block_reader.h"
#include "spark/keyed_shuffle.h"
#include "workloads/lr.h"
#include "workloads/records.h"

namespace deca::workloads {

using jvm::FieldKind;
using jvm::HandleScope;
using jvm::ObjRef;

namespace {

constexpr int kLinksRddId = 3;

/// Why a crash-wipe cannot be recovered: the cached adjacency lists
/// would need the groupBy stage replayed, but its input is gone.
constexpr const char* kNoAdjacencyLineage =
    "the edge shuffle is released after grouping, so the cached adjacency "
    "lists have no lineage";

/// Deca adjacency record: [id:i64 | total_degree:u32 | count:u32 |
/// dsts:i64*count]. Hub vertices whose lists exceed one page are split
/// into multiple records carrying the same id and total_degree.
constexpr uint32_t kAdjHeaderBytes = 16;

uint64_t MixHash(uint64_t v) { return v * 0x9e3779b97f4a7c15ULL; }

/// Managed types and shuffle operations for the graph workloads.
struct GraphTypes {
  explicit GraphTypes(jvm::ClassRegistry* registry)
      : edges(Edges(registry)),
        contribs(Contributions(registry)),
        labels(Labels(registry)) {
    vertex_links_cls = registry->RegisterClass(
        "VertexLinks",
        {{"id", FieldKind::kLong}, {"neighbors", FieldKind::kRef}});
    const auto& ci = registry->Get(vertex_links_cls);
    id_off = ci.FieldOffset("id");
    neighbors_off = ci.FieldOffset("neighbors");

    // -- cache swap ops for VertexLinks blocks (object mode).
    uint32_t id_o = id_off;
    uint32_t nb_o = neighbors_off;
    uint32_t cls = vertex_links_cls;
    links_ops.managed_bytes = [id_o, nb_o](jvm::Heap* h,
                                           ObjRef r) -> uint64_t {
      (void)id_o;
      ObjRef nbrs = h->GetRefField(r, nb_o);
      return (jvm::kHeaderBytes + 16) + h->ObjectBytes(nbrs);
    };
    links_ops.serialize = [id_o, nb_o](jvm::Heap* h, ObjRef r,
                                       ByteWriter* w) {
      w->WriteVarI64(h->GetField<int64_t>(r, id_o));
      ObjRef nbrs = h->GetRefField(r, nb_o);
      uint32_t n = h->ArrayLength(nbrs);
      w->WriteVarU64(n);
      w->WriteBytes(h->ArrayData(nbrs), 8ull * n);
    };
    links_ops.deserialize = [cls, id_o, nb_o](jvm::Heap* h,
                                              ByteReader* r) -> ObjRef {
      HandleScope scope(h);
      int64_t id = r->ReadVarI64();
      uint32_t n = static_cast<uint32_t>(r->ReadVarU64());
      jvm::Handle nbrs = scope.Make(
          h->AllocateArray(h->registry()->long_array_class(), n));
      r->ReadBytes(h->ArrayData(nbrs.get()), 8ull * n);
      ObjRef v = h->AllocateInstance(cls);
      h->SetField<int64_t>(v, id_o, id);
      h->SetRefField(v, nb_o, nbrs.get());
      return v;
    };

  }

  uint32_t vertex_links_cls;
  uint32_t id_off, neighbors_off;
  spark::RecordOps links_ops;
  /// (src, dst) edges, grouped by src with no combine.
  LongPairs edges;
  /// PageRank's (vertex, contribution) sums.
  spark::ShuffleType<spark::Long, spark::Double> contribs;
  /// ConnectedComponents' (vertex, label) minima.
  LongPairs labels;
};

}  // namespace

GraphPlan PlanAdjacencyContainers() {
  using analysis::CallGraph;
  using analysis::MethodInfo;
  using analysis::Statement;

  // Annotated types: the grouping buffer's value container is a growable
  // ArrayBuffer {size: Int, elems: var Array[Long]}; the cached record is
  // VertexLinks {id: Long, neighbors: val Array[Long]}.
  analysis::TypeUniverse u;
  const auto* larr = u.DefineArray(
      "Array[Long]", {u.Primitive(jvm::FieldKind::kLong)});
  auto* array_buffer = u.DefineClass("ArrayBuffer");
  u.AddField(array_buffer, "size", false,
             {u.Primitive(jvm::FieldKind::kInt)});
  u.AddField(array_buffer, "elems", /*is_final=*/false, {larr});
  auto* vertex_links = u.DefineClass("VertexLinks");
  u.AddField(vertex_links, "id", false,
             {u.Primitive(jvm::FieldKind::kLong)});
  u.AddField(vertex_links, "neighbors", /*is_final=*/true, {larr});

  // Phase 0 (grouping): the combining function appends, reallocating the
  // elems array with data-dependent lengths — classic VST behaviour.
  CallGraph phase0;
  {
    MethodInfo main;
    main.name = "groupByKey.insert";
    main.statements.push_back({Statement::Kind::kNewArrayAssign,
                               {array_buffer, "elems"},
                               larr,
                               analysis::SymExpr::Unknown(),
                               ""});
    main.statements.push_back({Statement::Kind::kFieldAssign,
                               {array_buffer, "elems"},
                               nullptr,
                               {},
                               ""});
    phase0.AddMethod(main);
    phase0.SetEntry("groupByKey.insert");
  }
  // Phase 1 (iterate): the cached VertexLinks are only read.
  CallGraph phase1;
  {
    MethodInfo main;
    main.name = "pagerank.iterate";
    phase1.AddMethod(main);
    phase1.SetEntry("pagerank.iterate");
  }
  analysis::PhasedRefinement phased({&phase0, &phase1});
  GraphPlan plan;
  plan.buffer_phase_size_type = phased.ClassifyInPhase(array_buffer, 0);
  plan.cache_phase_size_type = phased.ClassifyInPhase(vertex_links, 1);

  // Container planning (Section 4.3): the shuffle buffer is created first
  // and holds the same objects the cache later copies out.
  std::vector<core::ContainerSpec> group{
      {"groupByKey-buffer", core::ContainerKind::kShuffleBuffer, 0,
       plan.buffer_phase_size_type, false},
      {"links-cache", core::ContainerKind::kCacheBlock, 1,
       plan.cache_phase_size_type, false},
  };
  auto decisions = core::DecompositionPlanner::Plan(group);
  plan.shuffle_layout = decisions[0].layout;
  plan.cache_layout = decisions[1].layout;
  return plan;
}

namespace {

/// One RMAT edge with the canonical (0.57, 0.19, 0.19, 0.05) quadrant
/// probabilities.
std::pair<uint64_t, uint64_t> RmatEdge(Rng* rng, int scale) {
  uint64_t src = 0, dst = 0;
  for (int i = 0; i < scale; ++i) {
    double r = rng->NextDouble();
    int q = r < 0.57 ? 0 : (r < 0.76 ? 1 : (r < 0.95 ? 2 : 3));
    src = (src << 1) | static_cast<uint64_t>(q >> 1);
    dst = (dst << 1) | static_cast<uint64_t>(q & 1);
  }
  return {src, dst};
}

int ScaleFor(uint64_t vertices) {
  int scale = 1;
  while ((1ull << scale) < vertices) ++scale;
  return scale;
}

/// Builds and caches the adjacency lists: edge generation stage, then a
/// groupByKey stage whose output is cached (decomposed under Deca — the
/// partially decomposable scenario of Figure 7b). Returns total adjacency
/// records cached.
uint64_t BuildAdjacency(spark::SparkContext* ctx, const GraphParams& params,
                        const GraphTypes& types, bool deca) {
  if (deca) {
    // The optimizer's verdict gates the decomposed path (Figure 7b): the
    // grouping buffer must stay in object form, the cache copy may be
    // decomposed.
    GraphPlan plan = PlanAdjacencyContainers();
    DECA_CHECK(plan.shuffle_layout == core::ContainerLayout::kObjects);
    DECA_CHECK(plan.cache_layout == core::ContainerLayout::kDecomposed);
  }
  int parts = ctx->num_partitions();
  int scale = ScaleFor(params.num_vertices);
  uint64_t per_part = params.num_edges / static_cast<uint64_t>(parts);
  int edge_shuffle = ctx->shuffle()->RegisterShuffle(parts);
  const spark::SparkConfig& cfg = ctx->config();

  ctx->RunStage("edges", [&](spark::TaskContext& tc) {
    // The one hand-written map side: edges are emitted uncombined, with
    // no buffer and no allocation, so KeyedShuffleWriter does not fit.
    // Its chunks still carry their record boundaries.
    Rng rng(params.seed + 1000 + static_cast<uint64_t>(tc.partition()));
    std::vector<ByteWriter> outs(static_cast<size_t>(parts));
    std::vector<net::ChunkMeta> metas(static_cast<size_t>(parts));
    const spark::RecordType<spark::Long>& src_type = types.edges.key();
    const spark::RecordType<spark::Long>& dst_type = types.edges.value();
    const uint32_t entry_bytes =
        src_type.decomposed_bytes() + dst_type.decomposed_bytes();
    if (deca) {
      for (auto& meta : metas) meta.fixed_record_bytes = entry_bytes;
    }
    std::vector<uint8_t> entry(entry_bytes);
    for (uint64_t i = 0; i < per_part; ++i) {
      auto [src, dst] = RmatEdge(&rng, scale);
      if (src == dst) continue;  // drop self loops
      size_t r = MixHash(src) % static_cast<uint64_t>(parts);
      ByteWriter& w = outs[r];
      spark::Long from{static_cast<int64_t>(src)};
      spark::Long to{static_cast<int64_t>(dst)};
      if (deca) {
        // SFST pair: raw decomposed entries, no serialization.
        src_type.Store(entry.data(), from);
        dst_type.Store(entry.data() + src_type.decomposed_bytes(), to);
        w.WriteBytes(entry.data(), entry_bytes);
      } else {
        size_t before = w.size();
        {
          ScopedTimerMs t(&tc.metrics().ser_ms);
          src_type.Put(&w, from);
          dst_type.Put(&w, to);
        }
        metas[r].record_lens.push_back(
            static_cast<uint32_t>(w.size() - before));
      }
    }
    ScopedTimerMs t(&tc.metrics().shuffle_write_ms);
    for (int r = 0; r < parts; ++r) {
      ctx->shuffle()->PutChunk(edge_shuffle, r, tc.partition(),
                               outs[static_cast<size_t>(r)].TakeBuffer(),
                               metas[static_cast<size_t>(r)]);
    }
  });

  // Per-partition record counts, summed after the barrier (parallel-safe).
  std::vector<uint64_t> part_records(static_cast<size_t>(parts), 0);
  ctx->RunStage("group", [&](spark::TaskContext& tc) {
    jvm::Heap* h = tc.heap();
    // The grouping buffer holds managed objects in BOTH modes: its value
    // arrays are VSTs while being built (paper Section 4.3.3).
    spark::ObjectGroupByBuffer groups(h, &types.edges.ops());
    spark::KeyedShuffleReader in(tc, edge_shuffle, types.edges);
    if (deca) {
      in.ForEachPair(spark::ShuffleLayout::kDecomposed,
                     [&](const spark::Long& src, const spark::Long& dst) {
                       types.edges.BuildPair(
                           h, src, dst, [&](ObjRef k, ObjRef v) {
                             groups.Insert(k, v);
                           });
                     });
    } else {
      in.ForEachRecord([&](ObjRef k, ObjRef v) { groups.Insert(k, v); });
    }
    uint32_t count = 0;
    if (deca) {
      // Decompose the grouped output straight into cache pages; the
      // object-form shuffle buffer dies at stage end. Sub-blocks of a few
      // MB keep materialization interleaved with eviction.
      int sub = 0;
      uint32_t sub_count = 0;
      auto pages = std::make_shared<core::PageGroup>(h, cfg.deca_page_bytes);
      auto flush = [&]() {
        if (sub_count == 0) return;
        tc.cache()->PutPages({kLinksRddId, tc.partition() * 1024 + sub},
                             pages, sub_count, &tc.metrics());
        pages = std::make_shared<core::PageGroup>(h, cfg.deca_page_bytes);
        sub_count = 0;
        ++sub;
      };
      uint32_t max_per_rec =
          (cfg.deca_page_bytes - kAdjHeaderBytes) / 8;
      groups.ForEach([&](ObjRef key, ObjRef values, uint32_t n) {
        // Page appends may trigger GC; hold the group refs in handles.
        HandleScope inner(h);
        jvm::Handle hvals = inner.Make(values);
        int64_t id = h->GetField<int64_t>(key, 0);
        uint32_t emitted = 0;
        while (emitted < n) {
          uint32_t batch = std::min(n - emitted, max_per_rec);
          core::SegPtr seg =
              pages->Append(kAdjHeaderBytes + 8 * batch);
          uint8_t* p = pages->Resolve(seg);
          StoreRaw<int64_t>(p, id);
          StoreRaw<uint32_t>(p + 8, n);  // total degree
          StoreRaw<uint32_t>(p + 12, batch);
          for (uint32_t j = 0; j < batch; ++j) {
            ObjRef dv = h->GetRefElem(hvals.get(), emitted + j);
            StoreRaw<int64_t>(p + kAdjHeaderBytes + 8ull * j,
                              h->GetField<int64_t>(dv, 0));
          }
          emitted += batch;
          ++count;
          ++sub_count;
        }
        if (pages->used_bytes() >= kPointSubBlockBytes) flush();
      });
      flush();
    } else {
      // Materialize VertexLinks objects into cached Object[] sub-blocks.
      // Pass 1 (no allocation => group order is stable): compute sub-block
      // boundaries by estimated managed bytes.
      std::vector<uint32_t> sub_sizes;
      {
        uint64_t bytes = 0;
        uint32_t in_sub = 0;
        groups.ForEach([&](ObjRef, ObjRef, uint32_t n) {
          bytes += 48 + 8ull * n;
          ++in_sub;
          if (bytes >= kPointSubBlockBytes) {
            sub_sizes.push_back(in_sub);
            bytes = 0;
            in_sub = 0;
          }
        });
        if (in_sub > 0) sub_sizes.push_back(in_sub);
      }
      // Pass 2: fill and cache each sub-block.
      int sub = 0;
      uint32_t group_idx = 0;
      uint32_t filled = 0;
      HandleScope scope(h);
      jvm::Handle arr = scope.Make(
          sub_sizes.empty()
              ? jvm::kNullRef
              : h->AllocateArray(h->registry()->ref_array_class(),
                                 sub_sizes[0]));
      groups.ForEach([&](ObjRef key, ObjRef values, uint32_t n) {
        // Allocations below may trigger GC; hold the group refs in handles.
        HandleScope inner(h);
        jvm::Handle hvals = inner.Make(values);
        int64_t id = h->GetField<int64_t>(key, 0);
        jvm::Handle nbrs = inner.Make(
            h->AllocateArray(h->registry()->long_array_class(), n));
        for (uint32_t j = 0; j < n; ++j) {
          ObjRef dv = h->GetRefElem(hvals.get(), j);
          h->SetElem<int64_t>(nbrs.get(), j, h->GetField<int64_t>(dv, 0));
        }
        jvm::Handle links =
            inner.Make(h->AllocateInstance(types.vertex_links_cls));
        h->SetField<int64_t>(links.get(), types.id_off, id);
        h->SetRefField(links.get(), types.neighbors_off, nbrs.get());
        h->SetRefElem(arr.get(), filled, links.get());
        ++filled;
        ++group_idx;
        ++count;
        if (filled == sub_sizes[static_cast<size_t>(sub)]) {
          tc.cache()->PutObjects({kLinksRddId, tc.partition() * 1024 + sub},
                                 arr.get(), filled, &tc.metrics());
          ++sub;
          filled = 0;
          if (static_cast<size_t>(sub) < sub_sizes.size()) {
            arr.set(h->AllocateArray(h->registry()->ref_array_class(),
                                     sub_sizes[static_cast<size_t>(sub)]));
          }
        }
      });
    }
    part_records[static_cast<size_t>(tc.partition())] = count;
  });
  ctx->shuffle()->Release(edge_shuffle);
  uint64_t total_records = 0;
  for (uint64_t c : part_records) total_records += c;
  return total_records;
}

}  // namespace

PageRankResult RunPageRank(const GraphParams& params) {
  spark::SparkConfig cfg = params.spark;
  ApplyMode(params.mode, &cfg);
  RejectCrashWipe(cfg, "PageRank", kNoAdjacencyLineage);
  spark::SparkContext ctx(cfg);
  GraphTypes types(ctx.registry());
  ctx.RegisterCachedRdd(kLinksRddId, &types.links_ops);
  bool deca = params.mode == Mode::kDeca;
  spark::ShuffleLayout layout = deca ? spark::ShuffleLayout::kDecomposed
                                     : spark::ShuffleLayout::kObjects;

  PageRankResult result;
  result.run.mode = params.mode;
  int parts = ctx.num_partitions();

  Stopwatch load_sw;
  result.adjacency_records = BuildAdjacency(&ctx, params, types, deca);
  result.run.load_ms = load_sw.ElapsedMillis();
  ctx.ResetMetrics();

  Stopwatch exec_sw;
  int prev_shuffle = -1;
  for (int iter = 0; iter < params.iterations; ++iter) {
    int next_shuffle = ctx.shuffle()->RegisterShuffle(parts);
    ctx.RunStage("rank-iter", [&](spark::TaskContext& tc) {
      jvm::Heap* h = tc.heap();
      // 1. Aggregate the previous iteration's contributions into this
      //    partition's rank table.
      std::unordered_map<int64_t, double> ranks;
      if (prev_shuffle >= 0) {
        spark::KeyedShuffleReader in(tc, prev_shuffle, types.contribs);
        in.ForEachCombined(
            layout, [&](const spark::Long& v, const spark::Double& sum) {
              ranks[v.value] = 0.15 + 0.85 * sum.value;
            });
      }
      auto rank_of = [&](int64_t v) -> double {
        if (iter == 0) return 1.0;
        auto it = ranks.find(v);
        return it == ranks.end() ? 0.15 : it->second;
      };

      // 2. Scan the cached adjacency sub-blocks and emit contributions.
      spark::KeyedShuffleWriter out(tc, next_shuffle, types.contribs, layout);
      auto emit_record = [&](const uint8_t* p) {
        int64_t id = LoadRaw<int64_t>(p);
        uint32_t degree = LoadRaw<uint32_t>(p + 8);
        uint32_t n = LoadRaw<uint32_t>(p + 12);
        spark::Double contrib{rank_of(id) / degree};
        for (uint32_t j = 0; j < n; ++j) {
          int64_t dst = LoadRaw<int64_t>(p + kAdjHeaderBytes + 8ull * j);
          out.Emit(spark::Long{dst}, contrib);
        }
        return kAdjHeaderBytes + 8 * n;
      };
      auto emit_links = [&](ObjRef links) {
        HandleScope inner(h);
        jvm::Handle hl = inner.Make(links);
        int64_t id = h->GetField<int64_t>(hl.get(), types.id_off);
        spark::Double contrib;
        {
          ObjRef nbrs = h->GetRefField(hl.get(), types.neighbors_off);
          contrib.value = rank_of(id) / h->ArrayLength(nbrs);
        }
        uint32_t n =
            h->ArrayLength(h->GetRefField(hl.get(), types.neighbors_off));
        for (uint32_t j = 0; j < n; ++j) {
          ObjRef nbrs = h->GetRefField(hl.get(), types.neighbors_off);
          out.Emit(spark::Long{h->GetElem<int64_t>(nbrs, j)}, contrib);
        }
      };
      ForEachPointBlock(tc, kLinksRddId, [&](const spark::LoadedBlock& block) {
        spark::ForEachCachedRecord(tc, block, types.links_ops, emit_record,
                                   emit_links);
      });
      out.Finish();
    });
    if (prev_shuffle >= 0) ctx.shuffle()->Release(prev_shuffle);
    prev_shuffle = next_shuffle;
  }

  // Final aggregation: fold the last contributions into ranks.
  // Per-partition slots folded in partition order after the barrier so
  // the float sum is identical in parallel mode.
  std::vector<double> part_rank_sum(static_cast<size_t>(parts), 0.0);
  std::vector<uint64_t> part_ranked(static_cast<size_t>(parts), 0);
  ctx.RunStage("finalize", [&](spark::TaskContext& tc) {
    double& rank_sum = part_rank_sum[static_cast<size_t>(tc.partition())];
    uint64_t& ranked = part_ranked[static_cast<size_t>(tc.partition())];
    spark::KeyedShuffleReader in(tc, prev_shuffle, types.contribs);
    in.ForEachCombined(layout,
                       [&](const spark::Long&, const spark::Double& sum) {
                         rank_sum += 0.15 + 0.85 * sum.value;
                         ++ranked;
                       });
  });
  ctx.shuffle()->Release(prev_shuffle);

  double rank_sum = 0;
  uint64_t ranked = 0;
  for (int p = 0; p < parts; ++p) {
    rank_sum += part_rank_sum[static_cast<size_t>(p)];
    ranked += part_ranked[static_cast<size_t>(p)];
  }
  result.run.exec_ms = exec_sw.ElapsedMillis();
  result.rank_sum = rank_sum;
  result.vertices_ranked = ranked;
  FinalizeResult(&ctx, &result.run);
  return result;
}

ConnectedComponentsResult RunConnectedComponents(const GraphParams& params) {
  spark::SparkConfig cfg = params.spark;
  ApplyMode(params.mode, &cfg);
  RejectCrashWipe(cfg, "ConnectedComponents", kNoAdjacencyLineage);
  spark::SparkContext ctx(cfg);
  GraphTypes types(ctx.registry());
  ctx.RegisterCachedRdd(kLinksRddId, &types.links_ops);
  bool deca = params.mode == Mode::kDeca;
  spark::ShuffleLayout layout = deca ? spark::ShuffleLayout::kDecomposed
                                     : spark::ShuffleLayout::kObjects;

  ConnectedComponentsResult result;
  result.run.mode = params.mode;
  int parts = ctx.num_partitions();

  Stopwatch load_sw;
  BuildAdjacency(&ctx, params, types, deca);
  result.run.load_ms = load_sw.ElapsedMillis();
  ctx.ResetMetrics();

  // Per-partition vertex labels, kept across iterations (vertices default
  // to their own id).
  std::vector<std::unordered_map<int64_t, int64_t>> labels(
      static_cast<size_t>(parts));
  auto label_of = [&](int p, int64_t v) -> int64_t {
    auto& map = labels[static_cast<size_t>(p)];
    auto it = map.find(v);
    return it == map.end() ? v : it->second;
  };

  Stopwatch exec_sw;
  int prev_shuffle = -1;
  uint64_t total_updates = 0;
  for (int iter = 0; iter < params.iterations; ++iter) {
    int next_shuffle = ctx.shuffle()->RegisterShuffle(parts);
    std::vector<uint64_t> part_updates(static_cast<size_t>(parts), 0);
    ctx.RunStage("cc-iter", [&](spark::TaskContext& tc) {
      jvm::Heap* h = tc.heap();
      int p = tc.partition();
      uint64_t& updates = part_updates[static_cast<size_t>(p)];
      // 1. Apply incoming label minima.
      if (prev_shuffle >= 0) {
        spark::KeyedShuffleReader in(tc, prev_shuffle, types.labels);
        in.ForEachCombined(
            layout, [&](const spark::Long& v, const spark::Long& l) {
              if (l.value < label_of(p, v.value)) {
                labels[static_cast<size_t>(p)][v.value] = l.value;
                ++updates;
              }
            });
      }
      // 2. Propagate labels along edges (over all adjacency sub-blocks).
      spark::KeyedShuffleWriter out(tc, next_shuffle, types.labels, layout);
      auto emit_record = [&](const uint8_t* rec) {
        int64_t id = LoadRaw<int64_t>(rec);
        uint32_t n = LoadRaw<uint32_t>(rec + 12);
        spark::Long l{label_of(p, id)};
        for (uint32_t j = 0; j < n; ++j) {
          out.Emit(
              spark::Long{LoadRaw<int64_t>(rec + kAdjHeaderBytes + 8ull * j)},
              l);
        }
        return kAdjHeaderBytes + 8 * n;
      };
      auto emit_links = [&](ObjRef links) {
        HandleScope inner(h);
        jvm::Handle hl = inner.Make(links);
        int64_t id = h->GetField<int64_t>(hl.get(), types.id_off);
        spark::Long l{label_of(p, id)};
        uint32_t n =
            h->ArrayLength(h->GetRefField(hl.get(), types.neighbors_off));
        for (uint32_t j = 0; j < n; ++j) {
          ObjRef nbrs = h->GetRefField(hl.get(), types.neighbors_off);
          out.Emit(spark::Long{h->GetElem<int64_t>(nbrs, j)}, l);
        }
      };
      ForEachPointBlock(tc, kLinksRddId, [&](const spark::LoadedBlock& block) {
        spark::ForEachCachedRecord(tc, block, types.links_ops, emit_record,
                                   emit_links);
      });
      out.Finish();
    });
    if (prev_shuffle >= 0) ctx.shuffle()->Release(prev_shuffle);
    prev_shuffle = next_shuffle;
    uint64_t updates = 0;
    for (uint64_t u : part_updates) updates += u;
    total_updates += updates;
    if (iter > 0 && updates == 0) break;
  }

  // Apply the final round of messages so labels are consistent.
  std::vector<uint64_t> final_updates(static_cast<size_t>(parts), 0);
  ctx.RunStage("cc-final", [&](spark::TaskContext& tc) {
    int p = tc.partition();
    spark::KeyedShuffleReader in(tc, prev_shuffle, types.labels);
    in.ForEachPair(layout, [&](const spark::Long& v, const spark::Long& l) {
      if (l.value < label_of(p, v.value)) {
        labels[static_cast<size_t>(p)][v.value] = l.value;
        ++final_updates[static_cast<size_t>(p)];
      }
    });
  });
  ctx.shuffle()->Release(prev_shuffle);
  for (uint64_t u : final_updates) total_updates += u;

  // Count distinct labels among all labelled vertices.
  std::set<int64_t> distinct;
  for (const auto& map : labels) {
    for (const auto& [v, l] : map) {
      (void)v;
      distinct.insert(l);
    }
  }
  result.run.exec_ms = exec_sw.ElapsedMillis();
  result.components = distinct.size();
  result.label_updates = total_updates;
  FinalizeResult(&ctx, &result.run);
  return result;
}

}  // namespace deca::workloads
