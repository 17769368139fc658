#include "workloads/lr.h"

#include <cmath>

#include "cluster/scoped_job.h"
#include "common/clock.h"
#include "common/logging.h"
#include "common/random.h"
#include "jvm/heap_profiler.h"
#include "spark/block_reader.h"
#include "workloads/dist_entry.h"

namespace deca::workloads {

using analysis::SizeType;
using analysis::Statement;
using analysis::SymExpr;
using jvm::FieldKind;
using jvm::HandleScope;
using jvm::ObjRef;

LrTypes::LrTypes(jvm::ClassRegistry* registry, int dims)
    : dims_(dims), registry_(registry) {
  // Managed class layouts mirroring the Scala classes of paper Figure 1.
  dense_vector_cls_ = registry->RegisterClass(
      "DenseVector", {{"data", FieldKind::kRef},
                      {"offset", FieldKind::kInt},
                      {"stride", FieldKind::kInt},
                      {"length", FieldKind::kInt}});
  labeled_point_cls_ = registry->RegisterClass(
      "LabeledPoint",
      {{"label", FieldKind::kDouble}, {"features", FieldKind::kRef}});
  const jvm::ClassInfo& dv = registry->Get(dense_vector_cls_);
  const jvm::ClassInfo& lp = registry->Get(labeled_point_cls_);
  dv_data_off_ = dv.FieldOffset("data");
  dv_offset_off_ = dv.FieldOffset("offset");
  dv_stride_off_ = dv.FieldOffset("stride");
  dv_length_off_ = dv.FieldOffset("length");
  lp_label_off_ = lp.FieldOffset("label");
  lp_features_off_ = lp.FieldOffset("features");

  BuildUdtModel();
  BuildOps();
}

// GCC at -O3 flags the aggregate Statement initializers below as
// maybe-uninitialized through the inlined std::string members of FieldRef
// — a known reachability false positive (every string is constructed
// before use).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
void LrTypes::BuildUdtModel() {
  // Annotated types (paper Figure 3).
  const auto* darr = universe_.DefineArray(
      "Array[Double]", {universe_.Primitive(FieldKind::kDouble)});
  auto* dv = universe_.DefineClass("DenseVector");
  universe_.AddField(dv, "data", /*is_final=*/true, {darr});
  universe_.AddField(dv, "offset", false,
                     {universe_.Primitive(FieldKind::kInt)});
  universe_.AddField(dv, "stride", false,
                     {universe_.Primitive(FieldKind::kInt)});
  universe_.AddField(dv, "length", false,
                     {universe_.Primitive(FieldKind::kInt)});
  auto* lp = universe_.DefineClass("LabeledPoint");
  universe_.AddField(lp, "label", false,
                     {universe_.Primitive(FieldKind::kDouble)});
  universe_.AddField(lp, "features", /*is_final=*/false, {dv});
  lp_udt_ = lp;

  // The LR stage's call graph: the map UDF of Figure 1 constructs each
  // point via the two constructors; `features.data` is always `new
  // Array[Double](D)` with the global constant D.
  analysis::MethodInfo map_udf;
  map_udf.name = "LR.map";
  map_udf.statements.push_back(
      {Statement::Kind::kCall, {}, nullptr, {}, "LabeledPoint.<init>"});
  analysis::MethodInfo lp_ctor;
  lp_ctor.name = "LabeledPoint.<init>";
  lp_ctor.ctor_of = lp;
  lp_ctor.statements.push_back({Statement::Kind::kNewObjectAssign,
                                {lp, "features"},
                                dv,
                                {},
                                ""});
  lp_ctor.statements.push_back(
      {Statement::Kind::kCall, {}, nullptr, {}, "DenseVector.<init>"});
  analysis::MethodInfo dv_ctor;
  dv_ctor.name = "DenseVector.<init>";
  dv_ctor.ctor_of = dv;
  dv_ctor.statements.push_back({Statement::Kind::kNewArrayAssign,
                                {dv, "data"},
                                darr,
                                SymExpr::Constant(dims_),
                                ""});
  stage_cg_.AddMethod(map_udf);
  stage_cg_.AddMethod(lp_ctor);
  stage_cg_.AddMethod(dv_ctor);
  stage_cg_.SetEntry("LR.map");

  // Pre-processing (paper Section 5): the per-field type-sets come from
  // points-to analysis over the stage's code. Verify the inferred set for
  // `features` matches the model's declared set: exactly {DenseVector}.
  auto inferred = stage_cg_.InferTypeSet({lp, "features"});
  DECA_CHECK_EQ(inferred.size(), 1u);
  DECA_CHECK(inferred[0] == dv);

  analysis::GlobalClassifier classifier(&stage_cg_);
  classified_ = classifier.Classify(lp);
  if (classified_ == SizeType::kStaticFixed) {
    core::LengthResolver lengths;
    lengths.SetFixedLength(dv, "data",
                           static_cast<uint32_t>(dims_));
    // offset/stride/length are compile-time constants after the
    // optimizer's constant propagation (always 0/1/D), so the transformed
    // code elides them — the layout of paper Figure 2.
    layout_ = core::SudtLayout::Build(lp, lengths,
                                      {"features.offset", "features.stride",
                                       "features.length"});
  }
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

jvm::ObjRef LrTypes::NewLabeledPoint(jvm::Heap* heap, double label,
                                     const double* features) const {
  HandleScope scope(heap);
  jvm::Handle data = scope.Make(heap->AllocateArray(
      heap->registry()->double_array_class(), static_cast<uint32_t>(dims_)));
  std::memcpy(heap->ArrayData(data.get()), features,
              sizeof(double) * static_cast<size_t>(dims_));
  jvm::Handle dv = scope.Make(heap->AllocateInstance(dense_vector_cls_));
  heap->SetRefField(dv.get(), dv_data_off_, data.get());
  heap->SetField<int32_t>(dv.get(), dv_offset_off_, 0);
  heap->SetField<int32_t>(dv.get(), dv_stride_off_, 1);
  heap->SetField<int32_t>(dv.get(), dv_length_off_, dims_);
  ObjRef lp = heap->AllocateInstance(labeled_point_cls_);
  heap->SetField<double>(lp, lp_label_off_, label);
  heap->SetRefField(lp, lp_features_off_, dv.get());
  return lp;
}

void LrTypes::BuildOps() {
  int dims = dims_;
  uint32_t lp_label = lp_label_off_;
  uint32_t lp_features = lp_features_off_;
  uint32_t dv_data = dv_data_off_;
  const LrTypes* self = this;

  ops_.managed_bytes = [dims](jvm::Heap* h, ObjRef lp) -> uint64_t {
    (void)lp;
    const auto* reg = h->registry();
    return reg->Get(reg->FindId("LabeledPoint")).ObjectBytes(0) +
           reg->Get(reg->FindId("DenseVector")).ObjectBytes(0) +
           reg->Get(reg->double_array_class())
               .ObjectBytes(static_cast<uint32_t>(dims));
  };
  ops_.serialize = [lp_label, lp_features, dv_data, dims](
                       jvm::Heap* h, ObjRef lp, ByteWriter* w) {
    w->Write<double>(h->GetField<double>(lp, lp_label));
    ObjRef dv = h->GetRefField(lp, lp_features);
    ObjRef data = h->GetRefField(dv, dv_data);
    w->WriteVarU64(static_cast<uint64_t>(dims));
    w->WriteBytes(h->ArrayData(data),
                  sizeof(double) * static_cast<size_t>(dims));
  };
  ops_.deserialize = [self](jvm::Heap* h, ByteReader* r) -> ObjRef {
    double label = r->Read<double>();
    uint64_t n = r->ReadVarU64();
    std::vector<double> tmp(n);
    r->ReadBytes(reinterpret_cast<uint8_t*>(tmp.data()),
                 sizeof(double) * n);
    return self->NewLabeledPoint(h, label, tmp.data());
  };
  uint32_t rec_bytes = 8 + 8 * static_cast<uint32_t>(dims);
  ops_.deca_bytes = [rec_bytes](jvm::Heap*, ObjRef) { return rec_bytes; };
  ops_.decompose = [lp_label, lp_features, dv_data, dims](
                       jvm::Heap* h, ObjRef lp, uint8_t* out) {
    StoreRaw<double>(out, h->GetField<double>(lp, lp_label));
    ObjRef dv = h->GetRefField(lp, lp_features);
    ObjRef data = h->GetRefField(dv, dv_data);
    std::memcpy(out + 8, h->ArrayData(data),
                sizeof(double) * static_cast<size_t>(dims));
  };
  ops_.reconstruct = [self](jvm::Heap* h, const uint8_t* in) -> ObjRef {
    double label = LoadRaw<double>(in);
    return self->NewLabeledPoint(
        h, label, reinterpret_cast<const double*>(in + 8));
  };
}

void CachePoints(spark::TaskContext& tc, const LrTypes& types, int rdd_id,
                 bool deca, uint32_t page_bytes, uint64_t count,
                 const std::function<double(double* feats)>& gen) {
  jvm::Heap* h = tc.heap();
  int dims = types.dims();
  uint64_t obj_bytes_per_point =
      types.ops().managed_bytes(h, jvm::kNullRef) + 4;
  uint64_t per_sub =
      std::max<uint64_t>(64, kPointSubBlockBytes / obj_bytes_per_point);
  std::vector<double> feats(static_cast<size_t>(dims));
  uint64_t done = 0;
  int sub = 0;
  while (done < count) {
    uint32_t n = static_cast<uint32_t>(std::min(per_sub, count - done));
    spark::BlockKey key{rdd_id, tc.partition() * 1024 + sub};
    if (deca) {
      auto pages = std::make_shared<core::PageGroup>(h, page_bytes);
      uint32_t rec = 8 + 8 * static_cast<uint32_t>(dims);
      for (uint32_t i = 0; i < n; ++i) {
        double label = gen(feats.data());
        core::SegPtr seg = pages->Append(rec);
        uint8_t* p = pages->Resolve(seg);
        StoreRaw<double>(p, label);
        std::memcpy(p + 8, feats.data(), sizeof(double) * feats.size());
      }
      tc.cache()->PutPages(key, pages, n, &tc.metrics());
    } else {
      HandleScope scope(h);
      jvm::Handle arr = scope.Make(
          h->AllocateArray(h->registry()->ref_array_class(), n));
      for (uint32_t i = 0; i < n; ++i) {
        double label = gen(feats.data());
        HandleScope inner(h);
        ObjRef lp = types.NewLabeledPoint(h, label, feats.data());
        h->SetRefElem(arr.get(), i, lp);
      }
      tc.cache()->PutObjects(key, arr.get(), n, &tc.metrics());
    }
    done += n;
    ++sub;
  }
}

void ForEachPointBlock(
    spark::TaskContext& tc, int rdd_id,
    const std::function<void(const spark::LoadedBlock&)>& fn) {
  for (int sub = 0; sub < 1024; ++sub) {
    spark::LoadedBlock b = tc.cache()->Get(
        {rdd_id, tc.partition() * 1024 + sub}, &tc.metrics());
    if (!b.valid()) break;
    fn(b);
  }
}

namespace {

constexpr int kLrRddId = 1;

/// Object-mode gradient kernel for one point: mirrors the Scala UDF
/// `p.features * ((1/(1+exp(-label*dot))-1) * label)` including the
/// temporary result vector it allocates per point.
void ObjectGradient(jvm::Heap* h, const LrTypes& types, ObjRef lp,
                    const std::vector<double>& weights, double* grad) {
  int dims = types.dims();
  double label = h->GetField<double>(lp, types.lp_label_off());
  ObjRef dv = h->GetRefField(lp, types.lp_features_off());
  ObjRef data = h->GetRefField(dv, types.dv_data_off());
  double dot = 0;
  for (int j = 0; j < dims; ++j) {
    dot += weights[static_cast<size_t>(j)] *
           h->GetElem<double>(data, static_cast<uint32_t>(j));
  }
  double factor = (1.0 / (1.0 + std::exp(-label * dot)) - 1.0) * label;
  // The Scala code materializes `p.features * factor` as a fresh
  // DenseVector before the reduce combines it — the per-point temporary
  // object churn of paper Section 2.2.
  HandleScope scope(h);
  jvm::Handle tmp = scope.Make(h->AllocateArray(
      h->registry()->double_array_class(), static_cast<uint32_t>(dims)));
  for (int j = 0; j < dims; ++j) {
    h->SetElem<double>(tmp.get(), static_cast<uint32_t>(j),
                       h->GetElem<double>(data, static_cast<uint32_t>(j)) *
                           factor);
  }
  for (int j = 0; j < dims; ++j) {
    grad[j] += h->GetElem<double>(tmp.get(), static_cast<uint32_t>(j));
  }
}

/// Deca-mode gradient kernel: the transformed code of paper Figure 12 —
/// sequential reads from the decomposed byte segment, results written into
/// a pre-allocated array, no object creation.
void DecaGradient(const uint8_t* rec, int dims,
                  const std::vector<double>& weights, double* grad) {
  double label = LoadRaw<double>(rec);
  const uint8_t* feats = rec + 8;
  double dot = 0;
  for (int j = 0; j < dims; ++j) {
    dot += weights[static_cast<size_t>(j)] *
           LoadRaw<double>(feats + 8 * static_cast<size_t>(j));
  }
  double factor = (1.0 / (1.0 + std::exp(-label * dot)) - 1.0) * label;
  for (int j = 0; j < dims; ++j) {
    grad[j] += LoadRaw<double>(feats + 8 * static_cast<size_t>(j)) * factor;
  }
}

}  // namespace

LrResult RunLogisticRegression(const MlParams& params) {
  spark::SparkConfig cfg = params.spark;
  ApplyMode(params.mode, &cfg);
  // SPMD seam: a no-op in-process; spawns/joins the executor daemons in
  // process mode. Must outlive the context.
  cluster::ScopedJob job(&cfg, "lr", EncodeBytes(params));
  spark::SparkContext ctx(cfg);
  LrTypes types(ctx.registry(), params.dims);
  ctx.RegisterCachedRdd(kLrRddId, &types.ops());

  bool deca = params.mode == Mode::kDeca;
  if (deca) {
    // The optimizer's verdict gates the decomposed path — exactly what the
    // paper's code transformation does for safely decomposable UDTs.
    DECA_CHECK(types.classified() == SizeType::kStaticFixed)
        << "LR LabeledPoint must classify as SFST";
  }

  LrResult result;
  result.run.mode = params.mode;
  int parts = ctx.num_partitions();
  uint64_t per_part = params.num_points / static_cast<uint64_t>(parts);
  int dims = params.dims;

  // -- load & cache the training points (paper excludes this from exec).
  // Named so it can double as the cached RDD's lineage: if an executor
  // crash-wipes, the lost partitions are reloaded by re-running this task
  // (deterministic — the generator reseeds per partition).
  auto load_task = [&types, &params, deca, dims, per_part,
                    page_bytes = cfg.deca_page_bytes](spark::TaskContext& tc) {
    Rng rng(params.seed + static_cast<uint64_t>(tc.partition()));
    CachePoints(tc, types, kLrRddId, deca, page_bytes, per_part,
                [&](double* feats) {
                  double label = rng.NextBounded(2) == 0 ? -1.0 : 1.0;
                  for (int j = 0; j < dims; ++j) {
                    feats[j] = rng.NextGaussian() + label;
                  }
                  return label;
                });
  };
  Stopwatch load_sw;
  ctx.RunStage("load", load_task);
  ctx.RegisterLineage(kLrRddId, load_task);
  result.run.load_ms = load_sw.ElapsedMillis();
  ctx.ResetMetrics();

  // -- iterate gradient descent.
  Rng wrng(params.seed * 31 + 7);
  std::vector<double> weights(static_cast<size_t>(dims));
  for (auto& w : weights) w = 2.0 * wrng.NextDouble() - 1.0;

  jvm::HeapProfiler* profiler = nullptr;
  std::unique_ptr<jvm::HeapProfiler> profiler_holder;
  // Heap profiling needs the mutating heap in this process (off in
  // process mode, where executor 0's mutator lives in a daemon).
  if (params.profile && ctx.role() == spark::DistRole::kLocal) {
    profiler_holder = std::make_unique<jvm::HeapProfiler>(
        ctx.executor(0)->heap(), types.labeled_point_cls());
    profiler = profiler_holder.get();
  }

  Stopwatch exec_sw;
  for (int iter = 0; iter < params.iterations; ++iter) {
    // A collect stage: per-partition gradient blobs, folded in partition
    // order after the barrier so float accumulation is identical in
    // parallel and distributed modes (where the barrier broadcasts the
    // same blobs to every process and the weights advance in lockstep).
    auto blobs = ctx.RunCollectStage("gradient", [&](spark::TaskContext& tc)
                                                     -> std::vector<uint8_t> {
      jvm::Heap* h = tc.heap();
      // Accumulate locally and assign the slot at task end, so a retried
      // attempt that failed mid-scan cannot double-count points.
      std::vector<double> grad(static_cast<size_t>(dims), 0.0);
      const uint32_t rec_bytes = 8 + 8 * static_cast<uint32_t>(dims);
      ForEachPointBlock(tc, kLrRddId, [&](const spark::LoadedBlock& block) {
        spark::ForEachCachedRecord(
            tc, block, types.ops(),
            [&](const uint8_t* rec) {
              DecaGradient(rec, dims, weights, grad.data());
              return rec_bytes;
            },
            // SparkSer deserializes each point into temporary objects
            // first (the SparkSer path of paper Section 6.2).
            [&](ObjRef lp) {
              ObjectGradient(h, types, lp, weights, grad.data());
            });
      });
      ByteWriter w;
      for (int j = 0; j < dims; ++j) {
        w.Write<double>(grad[static_cast<size_t>(j)]);
      }
      return w.TakeBuffer();
    });
    std::vector<double> gradient(static_cast<size_t>(dims), 0.0);
    for (int p = 0; p < parts; ++p) {
      ByteReader r(blobs[static_cast<size_t>(p)].data(),
                   blobs[static_cast<size_t>(p)].size());
      for (int j = 0; j < dims; ++j) {
        gradient[static_cast<size_t>(j)] += r.Read<double>();
      }
    }
    double n = static_cast<double>(params.num_points);
    for (int j = 0; j < dims; ++j) {
      weights[static_cast<size_t>(j)] -=
          gradient[static_cast<size_t>(j)] / n;
    }
    if (profiler != nullptr) profiler->Sample(exec_sw.ElapsedMillis());
  }
  result.run.exec_ms = exec_sw.ElapsedMillis();
  result.weights = weights;
  FinalizeResult(&ctx, &result.run);
  if (profiler != nullptr) {
    result.run.object_counts = profiler->object_counts();
    result.run.gc_series = profiler->gc_time_ms();
  }
  return result;
}

}  // namespace deca::workloads
