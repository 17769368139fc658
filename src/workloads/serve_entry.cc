#include "workloads/serve_entry.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "cluster/scoped_job.h"
#include "common/clock.h"
#include "common/logging.h"
#include "common/random.h"
#include "spark/block_reader.h"
#include "workloads/dist_entry.h"
#include "workloads/lr.h"

namespace deca::workloads {


namespace {

constexpr int kServeRddId = 9;

uint64_t DoubleBits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

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
/// without materializing anything the query does not touch. Covers every
/// representation GetLazy can hand back: the three T0 heap forms, and the
/// packed T1/T2 payloads (Kryo run or raw page bytes) served when the
/// admission policy rejects promotion.
void ReadRecord(jvm::Heap* h, const LrTypes& types,
                const spark::LoadedBlock& b, uint32_t slot, int j,
                double* label, double* feat) {
  const spark::RecordType<LabeledPoint>& point_type = types.point();
  int dims = types.dims();
  size_t raw_rec = point_type.decomposed_bytes();
  size_t ser_rec = 8 + VarU64Len(static_cast<uint64_t>(dims)) +
                   8 * static_cast<size_t>(dims);
  auto read_ser = [&](const uint8_t* base) {
    // Fixed-stride Kryo records: double label, varint dims, dims doubles.
    const uint8_t* p = base + static_cast<size_t>(slot) * ser_rec;
    *label = LoadRaw<double>(p);
    *feat = LoadRaw<double>(p + (ser_rec - 8 * static_cast<size_t>(dims)) +
                            8 * static_cast<size_t>(j));
  };
  LabeledPoint point;
  auto read_point = [&] {
    *label = point.label;
    *feat = point.features.data[static_cast<size_t>(j)];
  };
  auto read_raw = [&](const uint8_t* rec) {
    point_type.Load(rec, &point);
    read_point();
  };
  if (b.object_array != jvm::kNullRef) {
    point_type.Read(h, h->GetRefElem(b.object_array, slot), &point);
    read_point();
    return;
  }
  if (b.serialized != jvm::kNullRef) {
    read_ser(h->ArrayData(b.serialized));
    return;
  }
  if (b.pages != nullptr) {
    // Random access into the page group: PageScanner is a sequential
    // cursor (Normalize drops the intra-page remainder at boundaries), so
    // index the page directly — records never span pages, and Append
    // packs them without padding, so page_used is a record multiple.
    const core::PageGroup& pg = *b.pages;
    uint32_t page = 0;
    uint32_t rem = slot;
    for (;; ++page) {
      DECA_CHECK_LT(page, pg.page_count())
          << "slot " << slot << " out of range in page group";
      uint32_t n = pg.page_used(page) / static_cast<uint32_t>(raw_rec);
      if (rem < n) break;
      rem -= n;
    }
    read_raw(pg.Resolve({page, rem * static_cast<uint32_t>(raw_rec)}));
    return;
  }
  DECA_CHECK(b.packed != nullptr) << "invalid block reached ReadRecord";
  if (b.level == spark::StorageLevel::kDecaPages) {
    // Raw page bytes: walk page headers, then index into the page that
    // holds `slot` (records never span pages).
    core::RawPageCursor cur(b.packed->data(), b.packed->size());
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
    DECA_CHECK(false) << "slot " << slot << " out of range in raw pages";
  } else {
    read_ser(b.packed->data());
  }
}

}  // namespace

ServeResult RunServeCache(const ServeParams& params) {
  spark::SparkConfig cfg = params.spark;
  ApplyMode(params.mode, &cfg);
  cluster::ScopedJob job(&cfg, "serve", EncodeBytes(params));
  spark::SparkContext ctx(cfg);
  LrTypes types(ctx.registry(), params.record_doubles);
  ctx.RegisterCachedRdd(kServeRddId, &types.ops());

  ServeResult result;
  result.run.mode = params.mode;
  int parts = ctx.num_partitions();
  uint64_t per_part = params.num_records / static_cast<uint64_t>(parts);
  DECA_CHECK_LE(per_part, 1024ull * kServeSubBlockRecords)
      << "partition overflows the sub-block key space";
  int dims = params.record_doubles;

  // -- build: cache the user table in kServeSubBlockRecords-record
  // sub-blocks. Registered as the RDD's lineage so a crash-wiped
  // executor's partitions reload deterministically before the next stage.
  auto load_task = [&types, &params, dims, per_part](spark::TaskContext& tc) {
    Rng rng(params.seed + static_cast<uint64_t>(tc.partition()));
    uint64_t done = 0;
    int sub = 0;
    while (done < per_part) {
      uint32_t n = static_cast<uint32_t>(
          std::min<uint64_t>(kServeSubBlockRecords, per_part - done));
      spark::CacheRecords(
          tc, {kServeRddId, tc.partition() * 1024 + sub}, types.point(), n,
          [&](LabeledPoint* point) {
            for (int j = 0; j < dims; ++j) {
              point->features.data[static_cast<size_t>(j)] =
                  rng.NextDouble(-1.0, 1.0);
            }
            point->label = rng.NextDouble(0.0, 1e6);
          });
      done += n;
      ++sub;
    }
  };
  Stopwatch load_sw;
  ctx.RunStage("load", load_task);
  ctx.RegisterLineage(kServeRddId, load_task);
  result.run.load_ms = load_sw.ElapsedMillis();
  ctx.ResetMetrics();

  // -- serve: closed-loop stages of Zipf-skewed point queries. The skew
  // gives the admission policy something to exploit — a hot head of
  // sub-blocks worth keeping in T0, a cold tail better left packed.
  Stopwatch exec_sw;
  Histogram lat;
  uint64_t digest = 0;
  for (int s = 0; s < params.serve_stages; ++s) {
    auto blobs = ctx.RunCollectStage(
        "serve", [&, s](spark::TaskContext& tc) -> std::vector<uint8_t> {
          jvm::Heap* h = tc.heap();
          ZipfSampler zipf(per_part, 1.05,
                           params.seed * 1000003ULL +
                               static_cast<uint64_t>(s + 1) * 8191ULL +
                               static_cast<uint64_t>(tc.partition()));
          uint64_t d = 0;
          std::vector<double> lats;
          lats.reserve(static_cast<size_t>(params.queries_per_task));
          for (int q = 0; q < params.queries_per_task; ++q) {
            uint64_t idx = zipf.Next();
            int sub = static_cast<int>(idx / kServeSubBlockRecords);
            uint32_t slot =
                static_cast<uint32_t>(idx % kServeSubBlockRecords);
            Stopwatch sw;
            spark::LoadedBlock b = tc.cache()->GetLazy(
                {kServeRddId, tc.partition() * 1024 + sub}, &tc.metrics());
            DECA_CHECK(b.valid()) << "lost block escaped lineage replay";
            double label = 0, feat = 0;
            ReadRecord(h, types, b, slot, q % dims, &label, &feat);
            lats.push_back(sw.ElapsedMillis());
            // Value-only fold: identical across modes, tier policies,
            // collectors, thread counts, and fault injection.
            d = d * 1099511628211ULL ^
                MixBits(DoubleBits(label) +
                        0x9e3779b97f4a7c15ULL * DoubleBits(feat));
          }
          return EncodeBytes(std::pair{d, std::move(lats)});
        });
    // Partition-order fold; latency samples merge into one distribution.
    for (const auto& blob : blobs) {
      const auto [d, lats] =
          DecodeBytes<std::pair<uint64_t, std::vector<double>>>(blob);
      digest = digest * 1099511628211ULL ^ d;
      for (double ms : lats) lat.Add(ms);
    }
  }
  result.run.exec_ms = exec_sw.ElapsedMillis();
  result.digest = digest;
  result.queries = static_cast<uint64_t>(params.serve_stages) *
                   static_cast<uint64_t>(parts) *
                   static_cast<uint64_t>(params.queries_per_task);
  result.qps = result.run.exec_ms > 0
                   ? static_cast<double>(result.queries) /
                         (result.run.exec_ms / 1000.0)
                   : 0;
  if (lat.count() > 0) {
    result.latency_p50_ms = lat.Percentile(50);
    result.latency_p99_ms = lat.Percentile(99);
  }
  FinalizeResult(&ctx, &result.run);
  return result;
}

}  // namespace deca::workloads
