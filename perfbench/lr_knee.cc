// lr-knee: logistic regression over cached LabeledPoints, sized past the
// GC knee. Spark mode's old generation fills with long-lived points, so
// full collections that free nothing dominate every round; Deca scans
// pages with no GC. No shuffle, tiering or epochs: the bypass workload
// for those layers.

#include <cmath>
#include <cstring>

#include "analysis/size_type.h"
#include "common/bytes.h"
#include "common/logging.h"
#include "common/random.h"
#include "drivers.h"
#include "workloads/lr.h"

namespace perfbench {

namespace {

using deca::ByteReader;
using deca::ByteWriter;
using deca::LoadRaw;
using deca::jvm::Handle;
using deca::jvm::HandleScope;
using deca::jvm::ObjRef;
using deca::spark::LoadedBlock;
using deca::spark::TaskContext;

constexpr int kRdd = 1;
constexpr int kDims = 10;

struct LrSize {
  uint64_t points;
  size_t heap_bytes;
};

// 60k points on two 8 MB heaps: Spark mode runs several full GCs per
// round over an old generation full of live points; Deca none.
constexpr LrSize kFull{60000, 8u << 20};
constexpr LrSize kTiny{6000, 8u << 20};
constexpr LrSize kReference{4000, 8u << 20};
constexpr int kReferenceRounds = 4;

// The object-mode gradient of RunLogisticRegression, per point, with the
// temporary result vector the Scala UDF allocates.
void ObjectGradient(deca::jvm::Heap* h, const deca::workloads::LrTypes& t,
                    ObjRef lp, const std::vector<double>& w, double* grad) {
  double label = h->GetField<double>(lp, t.lp_label_off());
  ObjRef dv = h->GetRefField(lp, t.lp_features_off());
  ObjRef data = h->GetRefField(dv, t.dv_data_off());
  double dot = 0;
  for (int j = 0; j < kDims; ++j) {
    dot += w[static_cast<size_t>(j)] *
           h->GetElem<double>(data, static_cast<uint32_t>(j));
  }
  double factor = (1.0 / (1.0 + std::exp(-label * dot)) - 1.0) * label;
  HandleScope scope(h);
  Handle tmp = scope.Make(
      h->AllocateArray(h->registry()->double_array_class(), kDims));
  for (int j = 0; j < kDims; ++j) {
    h->SetElem<double>(tmp.get(), static_cast<uint32_t>(j),
                       h->GetElem<double>(data, static_cast<uint32_t>(j)) *
                           factor);
  }
  for (int j = 0; j < kDims; ++j) {
    grad[j] += h->GetElem<double>(tmp.get(), static_cast<uint32_t>(j));
  }
}

// The page-scan gradient (paper Figure 12): reads decomposed bytes, no
// object creation.
void DecaGradient(const uint8_t* rec, const std::vector<double>& w,
                  double* grad) {
  double label = LoadRaw<double>(rec);
  const uint8_t* feats = rec + 8;
  double dot = 0;
  for (int j = 0; j < kDims; ++j) {
    dot += w[static_cast<size_t>(j)] *
           LoadRaw<double>(feats + 8 * static_cast<size_t>(j));
  }
  double factor = (1.0 / (1.0 + std::exp(-label * dot)) - 1.0) * label;
  for (int j = 0; j < kDims; ++j) {
    grad[j] += LoadRaw<double>(feats + 8 * static_cast<size_t>(j)) * factor;
  }
}

class LrDriver {
 public:
  LrDriver(Mode mode, const LrSize& size, const RunOptions& opt)
      : size_(size), seed_(opt.seed), deca_(mode == Mode::kDeca) {
    cfg_ = BaseConfig(mode, size.heap_bytes, opt.spill_dir);
    // Most of the unified budget is a storage floor, so the cached
    // points stay resident and the heap, not the store, sets the knee.
    cfg_.storage_fraction = 0.9;
  }

  void Setup(ModeResult* out) {
    {
      SetupPhase p(out, "spark.stage.context_ms");
      ctx_ = std::make_unique<deca::spark::SparkContext>(cfg_);
    }
    {
      SetupPhase p(out, "analysis.classify_ms");
      types_ = std::make_unique<deca::workloads::LrTypes>(ctx_->registry(),
                                                          kDims);
      ctx_->RegisterCachedRdd(kRdd, &types_->ops());
      if (deca_) {
        DECA_CHECK(types_->classified() ==
                   deca::analysis::SizeType::kStaticFixed)
            << "LabeledPoint must classify as SFST";
      }
    }
    {
      SetupPhase p(out, "spark.store.load_ms");
      uint64_t per_part =
          size_.points / static_cast<uint64_t>(ctx_->num_partitions());
      auto load = [types = types_.get(), seed = seed_, deca = deca_,
                   per_part, page_bytes = cfg_.deca_page_bytes](
                      TaskContext& tc) {
        deca::Rng rng(seed + static_cast<uint64_t>(tc.partition()));
        deca::workloads::CachePoints(
            tc, *types, kRdd, deca, page_bytes, per_part,
            [&rng](double* feats) {
              double label = rng.NextBounded(2) == 0 ? -1.0 : 1.0;
              for (int j = 0; j < kDims; ++j) {
                feats[j] = rng.NextGaussian() + label;
              }
              return label;
            });
      };
      ctx_->RunStage("load", load);
      ctx_->RegisterLineage(kRdd, load);
    }
    deca::Rng wrng(seed_ * 31 + 7);
    weights_.assign(kDims, 0.0);
    for (double& w : weights_) w = 2.0 * wrng.NextDouble() - 1.0;
  }

  /// One gradient pass over the cached points plus the weight update.
  void Round(int /*round*/, bool /*measured*/, Tracer* tr,
             ModeResult* /*out*/) {
    auto blobs = ctx_->RunCollectStage(
        "gradient", [&](TaskContext& tc) -> std::vector<uint8_t> {
          Scoped task(tr, Layer::kStage);
          deca::jvm::Heap* h = tc.heap();
          std::vector<double> grad(kDims, 0.0);
          // ForEachPointBlock calls Get before each callback (and once
          // more for the miss that ends the scan): the time between
          // callbacks is the Get span.
          int64_t get_start = deca::NowNanos();
          double get_gc = tr->enabled() ? tr->GcNow() : 0;
          auto end_get = [&] {
            if (tr->enabled()) {
              tr->Leaf(Layer::kStoreGet, get_start, deca::NowNanos(),
                       tr->GcNow() - get_gc);
            }
          };
          deca::workloads::ForEachPointBlock(
              tc, kRdd, [&](const LoadedBlock& block) {
                end_get();
                {
                  Scoped kernel(tr, deca_ ? Layer::kCoreScan
                                          : Layer::kJvmMutator);
                  Kernel(h, block, grad.data());
                }
                get_start = deca::NowNanos();
                if (tr->enabled()) get_gc = tr->GcNow();
              });
          end_get();
          ByteWriter w;
          for (double g : grad) w.Write<double>(g);
          return w.TakeBuffer();
        });
    std::vector<double> gradient(kDims, 0.0);
    for (const auto& blob : blobs) {
      ByteReader r(blob.data(), blob.size());
      for (double& g : gradient) g += r.Read<double>();
    }
    double n = static_cast<double>(size_.points);
    for (int j = 0; j < kDims; ++j) {
      weights_[static_cast<size_t>(j)] -= gradient[static_cast<size_t>(j)] / n;
    }
  }

  uint64_t Fingerprint() const {
    uint64_t f = 0;
    for (double w : weights_) f = (f ^ Bits(w)) * 1099511628211ULL;
    return f;
  }

  const std::vector<double>& weights() const { return weights_; }
  deca::spark::SparkContext& ctx() { return *ctx_; }
  double CacheMb() const {
    return static_cast<double>(ctx_->PeakCachedMemoryBytes()) / (1 << 20);
  }

 private:
  void Kernel(deca::jvm::Heap* h, const LoadedBlock& block, double* grad) {
    HandleScope scope(h);
    if (deca_) {
      DECA_CHECK(block.level == deca::spark::StorageLevel::kDecaPages);
      const uint32_t rec = 8 + 8 * kDims;
      deca::core::PageScanner scan(block.pages.get());
      while (!scan.AtEnd()) {
        DecaGradient(scan.Cur(), weights_, grad);
        scan.Advance(rec);
      }
      return;
    }
    DECA_CHECK(block.level == deca::spark::StorageLevel::kMemoryObjects);
    Handle arr = scope.Make(block.object_array);
    for (uint32_t i = 0; i < block.count; ++i) {
      ObjRef lp = h->GetRefElem(arr.get(), i);
      ObjectGradient(h, *types_, lp, weights_, grad);
    }
  }

  LrSize size_;
  uint64_t seed_;
  bool deca_;
  deca::spark::SparkConfig cfg_;
  std::unique_ptr<deca::spark::SparkContext> ctx_;
  std::unique_ptr<deca::workloads::LrTypes> types_;
  std::vector<double> weights_;
};

/// The driver must reproduce RunLogisticRegression bit for bit.
void CheckReference(Mode mode, const RunOptions& opt,
                    std::vector<std::string>* errors) {
  deca::workloads::MlParams p;
  p.dims = kDims;
  p.num_points = kReference.points;
  p.iterations = kReferenceRounds;
  p.mode = mode;
  p.seed = opt.seed;
  LrDriver d(mode, kReference, opt);
  p.spark = BaseConfig(mode, kReference.heap_bytes, opt.spill_dir);
  p.spark.storage_fraction = 0.9;
  deca::workloads::LrResult ref = deca::workloads::RunLogisticRegression(p);

  ModeResult discard;
  discard.setup_ms.push_back(0);
  d.Setup(&discard);
  for (int r = 0; r < kReferenceRounds; ++r) {
    d.Round(r, /*measured=*/false, &discard.tracer, &discard);
  }
  for (int j = 0; j < kDims; ++j) {
    if (Bits(ref.weights[static_cast<size_t>(j)]) !=
        Bits(d.weights()[static_cast<size_t>(j)])) {
      errors->push_back(std::string("lr-knee ") +
                        deca::workloads::ModeName(mode) +
                        ": weights differ from RunLogisticRegression");
      return;
    }
  }
}

}  // namespace

void RunLrKnee(const RunOptions& opt, WorkloadResult* out) {
  const LrSize& size = opt.tiny ? kTiny : kFull;
  Pace pace = MakePace(opt, /*warmup=*/5, /*count_rounds=*/100);
  const int setup_reps = opt.tiny ? 1 : 5;
  {
    RoundMode<LrDriver, LrSize> spark(Mode::kSpark, size, opt, pace,
                                      setup_reps, &out->spark);
    RoundMode<LrDriver, LrSize> deca(Mode::kDeca, size, opt, pace,
                                     setup_reps, &out->deca);
    Interleave(spark, deca);
    out->peak_rss_mb = PeakRssMb();
  }
  CheckModesAgree("lr-knee weights", out);
  CheckReference(Mode::kSpark, opt, &out->errors);
  CheckReference(Mode::kDeca, opt, &out->errors);
}

}  // namespace perfbench
