// serve-tiers: closed-loop Zipf point queries against a cached table
// twice the size of executor memory, on the 3-tier store. Query latency
// is set by the T0/T1/T2 ladder, admission and memory-manager eviction,
// which the other two workloads barely touch. T1 is the serialized
// middle tier where GC cost and serialization cost trade against each
// other on every request.

#include <algorithm>
#include <cstring>

#include "common/bytes.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/page.h"
#include "drivers.h"
#include "workloads/lr.h"
#include "workloads/serve_entry.h"

namespace perfbench {

namespace {

using deca::ByteWriter;
using deca::LoadRaw;
using deca::StoreRaw;
using deca::jvm::Handle;
using deca::jvm::HandleScope;
using deca::jvm::ObjRef;
using deca::spark::LoadedBlock;
using deca::spark::TaskContext;
using deca::workloads::kServeSubBlockRecords;

constexpr int kRdd = 9;
constexpr int kDims = 16;

struct ServeSize {
  uint64_t records;
  int queries_per_task;
};

// 96k records x 16 doubles; the unified budget is half of each
// executor's table bytes, so the cold tail always lives below T0.
constexpr ServeSize kFull{96000, 1024};
constexpr ServeSize kTiny{16384, 128};
constexpr ServeSize kReference{16384, 128};
constexpr int kReferenceRounds = 3;

uint64_t MixBits(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

size_t VarU64Len(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Reads record `slot`'s key value and feature `j` out of a loaded block
/// without materializing anything the query does not touch, for every
/// representation GetLazy hands back (RunServeCache's read path).
void ReadRecord(deca::jvm::Heap* h, const deca::workloads::LrTypes& types,
                const LoadedBlock& b, uint32_t slot, int j, double* label,
                double* feat) {
  const size_t raw_rec = 8 + 8 * static_cast<size_t>(kDims);
  const size_t ser_rec =
      8 + VarU64Len(kDims) + 8 * static_cast<size_t>(kDims);
  auto read_ser = [&](const uint8_t* base) {
    const uint8_t* p = base + static_cast<size_t>(slot) * ser_rec;
    *label = LoadRaw<double>(p);
    *feat = LoadRaw<double>(p + (ser_rec - 8 * static_cast<size_t>(kDims)) +
                            8 * static_cast<size_t>(j));
  };
  auto read_raw = [&](const uint8_t* rec) {
    *label = LoadRaw<double>(rec);
    *feat = LoadRaw<double>(rec + 8 + 8 * static_cast<size_t>(j));
  };
  if (b.object_array != deca::jvm::kNullRef) {
    ObjRef lp = h->GetRefElem(b.object_array, slot);
    *label = h->GetField<double>(lp, types.lp_label_off());
    ObjRef dv = h->GetRefField(lp, types.lp_features_off());
    ObjRef data = h->GetRefField(dv, types.dv_data_off());
    *feat = h->GetElem<double>(data, static_cast<uint32_t>(j));
    return;
  }
  if (b.serialized != deca::jvm::kNullRef) {
    read_ser(h->ArrayData(b.serialized));
    return;
  }
  if (b.pages != nullptr) {
    // Records never span pages and Append packs them without padding,
    // so each page holds page_used / record-size records.
    const deca::core::PageGroup& pg = *b.pages;
    uint32_t page = 0;
    uint32_t rem = slot;
    for (;; ++page) {
      DECA_CHECK_LT(page, pg.page_count()) << "slot out of range";
      uint32_t n = pg.page_used(page) / static_cast<uint32_t>(raw_rec);
      if (rem < n) break;
      rem -= n;
    }
    read_raw(pg.Resolve({page, rem * static_cast<uint32_t>(raw_rec)}));
    return;
  }
  DECA_CHECK(b.packed != nullptr) << "invalid block reached ReadRecord";
  if (b.level == deca::spark::StorageLevel::kDecaPages) {
    deca::core::RawPageCursor cur(b.packed->data(), b.packed->size());
    const uint8_t* page = nullptr;
    uint32_t used = 0;
    uint32_t base = 0;
    while (cur.Next(&page, &used)) {
      uint32_t n = used / static_cast<uint32_t>(raw_rec);
      if (slot < base + n) {
        read_raw(page + static_cast<size_t>(slot - base) * raw_rec);
        return;
      }
      base += n;
    }
    DECA_CHECK(false) << "slot out of range in raw pages";
  } else {
    read_ser(b.packed->data());
  }
}

deca::spark::SparkConfig ServeConfig(Mode mode, const ServeSize& size,
                                     const RunOptions& opt) {
  deca::spark::SparkConfig cfg = BaseConfig(mode, 64u << 20, opt.spill_dir);
  cfg.storage_tiers = 3;
  uint64_t per_exec = size.records / static_cast<uint64_t>(cfg.num_executors);
  uint64_t raw_bytes = per_exec * (8 + 8 * static_cast<uint64_t>(kDims));
  cfg.executor_memory_bytes =
      static_cast<size_t>(std::max<uint64_t>(raw_bytes / 2, 256u << 10));
  return cfg;
}

class ServeDriver {
 public:
  ServeDriver(Mode mode, const ServeSize& size, const RunOptions& opt)
      : size_(size),
        seed_(opt.seed),
        deca_(mode == Mode::kDeca),
        cfg_(ServeConfig(mode, size, opt)) {}

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
    }
    SetupPhase p(out, "spark.store.load_ms");
    per_part_ = size_.records / static_cast<uint64_t>(ctx_->num_partitions());
    DECA_CHECK_LE(per_part_, 1024ull * kServeSubBlockRecords);
    auto load = [types = types_.get(), seed = seed_, deca = deca_,
                 per_part = per_part_,
                 page_bytes = cfg_.deca_page_bytes](TaskContext& tc) {
      deca::jvm::Heap* h = tc.heap();
      deca::Rng rng(seed + static_cast<uint64_t>(tc.partition()));
      std::vector<double> feats(kDims);
      auto gen = [&rng](double* f) {
        for (int j = 0; j < kDims; ++j) f[j] = rng.NextDouble(-1.0, 1.0);
        return rng.NextDouble(0.0, 1e6);
      };
      uint64_t done = 0;
      int sub = 0;
      while (done < per_part) {
        uint32_t n = static_cast<uint32_t>(
            std::min<uint64_t>(kServeSubBlockRecords, per_part - done));
        deca::spark::BlockKey key{kRdd, tc.partition() * 1024 + sub};
        if (deca) {
          auto pages = std::make_shared<deca::core::PageGroup>(h, page_bytes);
          const uint32_t rec = 8 + 8 * kDims;
          for (uint32_t i = 0; i < n; ++i) {
            double label = gen(feats.data());
            uint8_t* p = pages->Resolve(pages->Append(rec));
            StoreRaw<double>(p, label);
            std::memcpy(p + 8, feats.data(), sizeof(double) * feats.size());
          }
          tc.cache()->PutPages(key, pages, n, &tc.metrics());
        } else {
          HandleScope scope(h);
          Handle arr = scope.Make(
              h->AllocateArray(h->registry()->ref_array_class(), n));
          for (uint32_t i = 0; i < n; ++i) {
            double label = gen(feats.data());
            HandleScope inner(h);
            ObjRef lp = types->NewLabeledPoint(h, label, feats.data());
            h->SetRefElem(arr.get(), i, lp);
          }
          tc.cache()->PutObjects(key, arr.get(), n, &tc.metrics());
        }
        done += n;
        ++sub;
      }
    };
    ctx_->RunStage("load", load);
    ctx_->RegisterLineage(kRdd, load);
  }

  /// One serve stage: every partition answers queries_per_task Zipf
  /// point queries (GetLazy plus one record read each).
  void Round(int round, bool measured, Tracer* tr, ModeResult* out) {
    const bool traced = tr->enabled();
    auto blobs = ctx_->RunCollectStage(
        "serve", [&](TaskContext& tc) -> std::vector<uint8_t> {
          Scoped task(tr, Layer::kStage);
          deca::jvm::Heap* h = tc.heap();
          deca::ZipfSampler zipf(
              per_part_, 1.05,
              seed_ * 1000003ULL + static_cast<uint64_t>(round + 1) * 8191ULL +
                  static_cast<uint64_t>(tc.partition()));
          uint64_t d = 0;
          for (int q = 0; q < size_.queries_per_task; ++q) {
            uint64_t idx = zipf.Next();
            int sub = static_cast<int>(idx / kServeSubBlockRecords);
            uint32_t slot = static_cast<uint32_t>(idx % kServeSubBlockRecords);
            int64_t t0 = deca::NowNanos();
            double gc0 = traced ? tr->GcNow() : 0;
            LoadedBlock b = tc.cache()->GetLazy(
                {kRdd, tc.partition() * 1024 + sub}, &tc.metrics());
            int64_t t1 = traced ? deca::NowNanos() : 0;
            double gc1 = traced ? tr->GcNow() : 0;
            ++out->attempted;
            if (!b.valid()) {
              ++out->failed;
              continue;
            }
            double label = 0;
            double feat = 0;
            ReadRecord(h, *types_, b, slot, q % kDims, &label, &feat);
            int64_t t2 = deca::NowNanos();
            if (traced) {
              tr->Leaf(Layer::kStoreGet, t0, t1, gc1 - gc0);
              tr->Leaf(deca_ ? Layer::kCoreRead : Layer::kJvmRead, t1, t2,
                       tr->GcNow() - gc1);
            } else if (measured) {
              out->query_us.push_back(static_cast<float>(t2 - t0) / 1e3f);
            }
            d = d * 1099511628211ULL ^
                MixBits(Bits(label) + 0x9e3779b97f4a7c15ULL * Bits(feat));
          }
          ByteWriter w;
          w.WriteVarU64(d);
          return w.TakeBuffer();
        });
    for (const auto& blob : blobs) {
      deca::ByteReader r(blob.data(), blob.size());
      digest_ = digest_ * 1099511628211ULL ^ r.ReadVarU64();
    }
  }

  uint64_t Fingerprint() const { return digest_; }
  deca::spark::SparkContext& ctx() { return *ctx_; }
  double CacheMb() const {
    return static_cast<double>(ctx_->PeakCachedMemoryBytes()) / (1 << 20);
  }

 private:
  ServeSize size_;
  uint64_t seed_;
  bool deca_;
  deca::spark::SparkConfig cfg_;
  std::unique_ptr<deca::spark::SparkContext> ctx_;
  std::unique_ptr<deca::workloads::LrTypes> types_;
  uint64_t per_part_ = 0;
  uint64_t digest_ = 0;
};

/// The driver must reproduce RunServeCache's query digest bit for bit.
void CheckReference(Mode mode, const RunOptions& opt,
                    std::vector<std::string>* errors) {
  deca::workloads::ServeParams p;
  p.num_records = kReference.records;
  p.record_doubles = kDims;
  p.queries_per_task = kReference.queries_per_task;
  p.serve_stages = kReferenceRounds;
  p.mode = mode;
  p.seed = opt.seed;
  p.spark = ServeConfig(mode, kReference, opt);
  deca::workloads::ServeResult ref = deca::workloads::RunServeCache(p);

  ServeDriver d(mode, kReference, opt);
  ModeResult discard;
  discard.setup_ms.push_back(0);
  d.Setup(&discard);
  for (int r = 0; r < kReferenceRounds; ++r) {
    d.Round(r, /*measured=*/false, &discard.tracer, &discard);
  }
  if (d.Fingerprint() != ref.digest) {
    errors->push_back(std::string("serve-tiers ") +
                      deca::workloads::ModeName(mode) +
                      ": query digest differs from RunServeCache");
  }
}

}  // namespace

void RunServeTiers(const RunOptions& opt, WorkloadResult* out) {
  const ServeSize& size = opt.tiny ? kTiny : kFull;
  Pace pace = MakePace(opt, /*warmup=*/5, /*count_rounds=*/100);
  const int setup_reps = opt.tiny ? 1 : 5;
  {
    RoundMode<ServeDriver, ServeSize> spark(Mode::kSpark, size, opt, pace,
                                            setup_reps, &out->spark);
    RoundMode<ServeDriver, ServeSize> deca(Mode::kDeca, size, opt, pace,
                                           setup_reps, &out->deca);
    Interleave(spark, deca);
    out->peak_rss_mb = PeakRssMb();
  }
  CheckModesAgree("serve-tiers query digests", out);
  CheckReference(Mode::kSpark, opt, &out->errors);
  CheckReference(Mode::kDeca, opt, &out->errors);
}

}  // namespace perfbench
