#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/page.h"
#include "spark/block_reader.h"
#include "spark/keyed_shuffle.h"
#include "workloads/stream_common.h"

namespace deca::workloads {

using jvm::FieldKind;
using jvm::HandleScope;
using jvm::ObjRef;

namespace {

/// One user's visit partial for one epoch: (first_ts, last_ts, visits,
/// revenue cents). Revenue is integer cents so partial sums are exact and
/// order-independent across modes. Decomposed layout: ip (8) followed by
/// the four value longs (32) — a 40-byte SFST entry.
constexpr uint32_t kValueBytes = 32;
constexpr uint32_t kEntryBytes = 8 + kValueBytes;

struct SessTypes {
  explicit SessTypes(jvm::ClassRegistry* registry) {
    agg_cls = registry->RegisterClass("SessionAgg",
                                      {{"first", FieldKind::kLong},
                                       {"last", FieldKind::kLong},
                                       {"visits", FieldKind::kLong},
                                       {"cents", FieldKind::kLong}});
    const auto& ac = registry->Get(agg_cls);
    first_off = ac.FieldOffset("first");
    last_off = ac.FieldOffset("last");
    visits_off = ac.FieldOffset("visits");
    cents_off = ac.FieldOffset("cents");
    row_cls = registry->RegisterClass("SessionRow",
                                      {{"ip", FieldKind::kLong},
                                       {"first", FieldKind::kLong},
                                       {"last", FieldKind::kLong},
                                       {"visits", FieldKind::kLong},
                                       {"cents", FieldKind::kLong}});
    const auto& rc = registry->Get(row_cls);
    ip_off = rc.FieldOffset("ip");
    rfirst_off = rc.FieldOffset("first");
    rlast_off = rc.FieldOffset("last");
    rvisits_off = rc.FieldOffset("visits");
    rcents_off = rc.FieldOffset("cents");

    ops.key_hash = [](jvm::Heap* h, ObjRef k) -> uint64_t {
      return static_cast<uint64_t>(h->GetField<int64_t>(k, 0)) *
             0x9e3779b97f4a7c15ULL;
    };
    ops.key_equals = [](jvm::Heap* h, ObjRef a, ObjRef b) {
      return h->GetField<int64_t>(a, 0) == h->GetField<int64_t>(b, 0);
    };
    uint32_t fo = first_off, lo = last_off, vo = visits_off, co = cents_off;
    uint32_t cls = agg_cls;
    ops.combine = [cls, fo, lo, vo, co](jvm::Heap* h, ObjRef agg,
                                        ObjRef v) -> ObjRef {
      int64_t first = std::min(h->GetField<int64_t>(agg, fo),
                               h->GetField<int64_t>(v, fo));
      int64_t last = std::max(h->GetField<int64_t>(agg, lo),
                              h->GetField<int64_t>(v, lo));
      int64_t visits =
          h->GetField<int64_t>(agg, vo) + h->GetField<int64_t>(v, vo);
      int64_t cents =
          h->GetField<int64_t>(agg, co) + h->GetField<int64_t>(v, co);
      // Fresh aggregate per merge, like Spark's aggregator closures.
      ObjRef fresh = h->AllocateInstance(cls);
      h->SetField<int64_t>(fresh, fo, first);
      h->SetField<int64_t>(fresh, lo, last);
      h->SetField<int64_t>(fresh, vo, visits);
      h->SetField<int64_t>(fresh, co, cents);
      return fresh;
    };
    ops.entry_bytes = [](jvm::Heap*, ObjRef, ObjRef) -> uint64_t {
      return (jvm::kHeaderBytes + 8) + (jvm::kHeaderBytes + 32) + 8;
    };
    ops.serialize_key = [](jvm::Heap* h, ObjRef k, ByteWriter* w) {
      w->WriteVarI64(h->GetField<int64_t>(k, 0));
    };
    ops.serialize_value = [fo, lo, vo, co](jvm::Heap* h, ObjRef v,
                                           ByteWriter* w) {
      w->WriteVarI64(h->GetField<int64_t>(v, fo));
      w->WriteVarI64(h->GetField<int64_t>(v, lo));
      w->WriteVarI64(h->GetField<int64_t>(v, vo));
      w->WriteVarI64(h->GetField<int64_t>(v, co));
    };
    ops.deserialize_key = [](jvm::Heap* h, ByteReader* r) -> ObjRef {
      ObjRef k = h->AllocateInstance(h->registry()->boxed_long_class());
      h->SetField<int64_t>(k, 0, r->ReadVarI64());
      return k;
    };
    ops.deserialize_value = [cls, fo, lo, vo, co](jvm::Heap* h,
                                                  ByteReader* r) -> ObjRef {
      ObjRef v = h->AllocateInstance(cls);
      h->SetField<int64_t>(v, fo, r->ReadVarI64());
      h->SetField<int64_t>(v, lo, r->ReadVarI64());
      h->SetField<int64_t>(v, vo, r->ReadVarI64());
      h->SetField<int64_t>(v, co, r->ReadVarI64());
      return v;
    };
    ops.deca_key_bytes = 8;
    ops.deca_value_bytes = kValueBytes;
    ops.deca_key_hash = [](const uint8_t* k) -> uint64_t {
      return LoadRaw<uint64_t>(k) * 0x9e3779b97f4a7c15ULL;
    };
    ops.deca_combine = [](uint8_t* agg, const uint8_t* v) {
      StoreRaw<int64_t>(agg, std::min(LoadRaw<int64_t>(agg),
                                      LoadRaw<int64_t>(v)));
      StoreRaw<int64_t>(agg + 8, std::max(LoadRaw<int64_t>(agg + 8),
                                          LoadRaw<int64_t>(v + 8)));
      StoreRaw<int64_t>(agg + 16,
                        LoadRaw<int64_t>(agg + 16) + LoadRaw<int64_t>(v + 16));
      StoreRaw<int64_t>(agg + 24,
                        LoadRaw<int64_t>(agg + 24) + LoadRaw<int64_t>(v + 24));
    };

    uint32_t io = ip_off;
    uint32_t ro[4] = {rfirst_off, rlast_off, rvisits_off, rcents_off};
    uint32_t rcls = row_cls;
    rec_ops.managed_bytes = [](jvm::Heap*, ObjRef) -> uint64_t {
      return jvm::kHeaderBytes + 40 + 4;
    };
    rec_ops.serialize = [io, ro](jvm::Heap* h, ObjRef r, ByteWriter* w) {
      w->Write<int64_t>(h->GetField<int64_t>(r, io));
      for (int i = 0; i < 4; ++i) {
        w->Write<int64_t>(h->GetField<int64_t>(r, ro[i]));
      }
    };
    rec_ops.deserialize = [rcls, io, ro](jvm::Heap* h,
                                         ByteReader* r) -> ObjRef {
      ObjRef rec = h->AllocateInstance(rcls);
      h->SetField<int64_t>(rec, io, r->Read<int64_t>());
      for (int i = 0; i < 4; ++i) {
        h->SetField<int64_t>(rec, ro[i], r->Read<int64_t>());
      }
      return rec;
    };
  }

  uint32_t agg_cls;
  uint32_t first_off, last_off, visits_off, cents_off;
  uint32_t row_cls;
  uint32_t ip_off, rfirst_off, rlast_off, rvisits_off, rcents_off;
  spark::ShuffleOps ops;
  spark::RecordOps rec_ops;
};

/// A native visit partial (the window stitcher's working form).
struct Partial {
  int64_t ip;
  int64_t first;
  int64_t last;
  int64_t visits;
  int64_t cents;
};

}  // namespace

StreamResult RunStreamSessionize(const StreamParams& params) {
  spark::SparkConfig cfg = params.spark;
  ApplyMode(params.mode, &cfg);
  spark::SparkContext ctx(cfg);
  SessTypes types(ctx.registry());
  for (int slot = 0; slot < kStreamRddSlots; ++slot) {
    ctx.RegisterCachedRdd(kStreamRddBase + slot, &types.rec_ops);
  }

  const bool deca = params.mode == Mode::kDeca;
  const int parts = ctx.num_partitions();
  const uint64_t per_part =
      std::max<uint64_t>(1, params.records_per_epoch /
                                static_cast<uint64_t>(parts));
  DECA_CHECK_LE(params.stream.window, kStreamRddSlots);

  StreamResult result;
  result.run.mode = params.mode;
  stream::StreamContext stream(&ctx, params.stream);
  Stopwatch run_sw;

  auto per_epoch = [&](int e, stream::EpochRegion& region) {
    int sid = ctx.shuffle()->RegisterShuffle(parts);
    region.AdoptShuffle(sid);

    // -- map: per-user visit partials for this epoch. Each epoch spans
    // 1000 time units; the active-user subset rotates each epoch so users
    // naturally go quiet and reappear, splitting sessions at the gap.
    auto map_fn = [&types, &params, deca, per_part, e,
                   sid](spark::TaskContext& tc) {
      jvm::Heap* h = tc.heap();
      Rng rng(Mix64(params.seed ^ (0x5e55ULL + static_cast<uint64_t>(e))) +
              static_cast<uint64_t>(tc.partition()));
      const uint64_t keys = std::max<uint64_t>(2, params.distinct_keys);
      const uint64_t rotate = e * std::max<uint64_t>(1, keys / 8);
      auto next_visit = [&](int64_t i) -> Partial {
        Partial p;
        p.ip = static_cast<int64_t>((rotate + rng.NextBounded(keys / 2)) %
                                    keys);
        p.first = p.last =
            static_cast<int64_t>(e) * 1000 +
            (i * 1000) / static_cast<int64_t>(per_part);
        p.visits = 1;
        p.cents = static_cast<int64_t>(rng.NextBounded(10000));
        return p;
      };
      spark::KeyedShuffleWriter out(tc, sid, &types.ops,
                                    deca ? spark::ShuffleLayout::kDecomposed
                                         : spark::ShuffleLayout::kObjects);
      for (uint64_t i = 0; i < per_part; ++i) {
        Partial p = next_visit(static_cast<int64_t>(i));
        if (deca) {
          uint8_t value[kValueBytes];
          StoreRaw<int64_t>(value, p.first);
          StoreRaw<int64_t>(value + 8, p.last);
          StoreRaw<int64_t>(value + 16, p.visits);
          StoreRaw<int64_t>(value + 24, p.cents);
          out.Insert(reinterpret_cast<const uint8_t*>(&p.ip), value);
        } else {
          HandleScope scope(h);
          jvm::Handle key = scope.Make(
              h->AllocateInstance(h->registry()->boxed_long_class()));
          h->SetField<int64_t>(key.get(), 0, p.ip);
          jvm::Handle val = scope.Make(h->AllocateInstance(types.agg_cls));
          h->SetField<int64_t>(val.get(), types.first_off, p.first);
          h->SetField<int64_t>(val.get(), types.last_off, p.last);
          h->SetField<int64_t>(val.get(), types.visits_off, p.visits);
          h->SetField<int64_t>(val.get(), types.cents_off, p.cents);
          out.Insert(key.get(), val.get());
        }
      }
      out.Finish();
    };
    region.AdoptLineage(ctx.RunMapStage("sess-map", sid, map_fn));

    // -- reduce: merge partials per ip; cache as the epoch's SessionRow
    // block. An ip hashes to one reducer, so a user's whole window history
    // lives in one partition — the stitcher never needs cross-partition
    // state.
    auto reduce_fn = [&types, &stream, deca, e, sid,
                      page_bytes =
                          cfg.deca_page_bytes](spark::TaskContext& tc) {
      jvm::Heap* h = tc.heap();
      int p = tc.partition();
      spark::KeyedShuffleReader in(tc, sid, &types.ops);
      spark::BlockKey key{StreamRdd(e), p};
      // Not ForEachCombined: freeing the buffer first lowers the pool peak.
      if (deca) {
        spark::DecaHashShuffleBuffer buf(h, &types.ops, page_bytes);
        in.ForEachEntry([&](const uint8_t* k, const uint8_t* v) {
          buf.Insert(k, v);
        });
        std::vector<uint8_t> entries;
        entries.reserve(static_cast<size_t>(buf.size()) * kEntryBytes);
        buf.ForEach([&](const uint8_t* entry) {
          entries.insert(entries.end(), entry, entry + kEntryBytes);
        });
        auto pages = std::make_shared<core::PageGroup>(h, page_bytes);
        for (size_t off = 0; off < entries.size(); off += kEntryBytes) {
          core::SegPtr seg = pages->Append(kEntryBytes);
          std::memcpy(pages->Resolve(seg), entries.data() + off, kEntryBytes);
        }
        tc.cache()->PutPages(
            key, pages, static_cast<uint32_t>(entries.size() / kEntryBytes),
            &tc.metrics());
      } else {
        spark::ObjectHashShuffleBuffer buf(h, &types.ops);
        in.ForEachRecord([&](ObjRef k, ObjRef v) { buf.Insert(k, v); });
        std::vector<Partial> rows;
        rows.reserve(buf.size());
        buf.ForEach([&](ObjRef k, ObjRef v) {
          rows.push_back({h->GetField<int64_t>(k, 0),
                          h->GetField<int64_t>(v, types.first_off),
                          h->GetField<int64_t>(v, types.last_off),
                          h->GetField<int64_t>(v, types.visits_off),
                          h->GetField<int64_t>(v, types.cents_off)});
        });
        HandleScope scope(h);
        jvm::Handle arr = scope.Make(h->AllocateArray(
            h->registry()->ref_array_class(),
            static_cast<uint32_t>(rows.size())));
        for (uint32_t i = 0; i < rows.size(); ++i) {
          ObjRef rec = h->AllocateInstance(types.row_cls);
          h->SetField<int64_t>(rec, types.ip_off, rows[i].ip);
          h->SetField<int64_t>(rec, types.rfirst_off, rows[i].first);
          h->SetField<int64_t>(rec, types.rlast_off, rows[i].last);
          h->SetField<int64_t>(rec, types.rvisits_off, rows[i].visits);
          h->SetField<int64_t>(rec, types.rcents_off, rows[i].cents);
          h->SetRefElem(arr.get(), i, rec);
        }
        tc.cache()->PutObjects(key, arr.get(),
                               static_cast<uint32_t>(rows.size()),
                               &tc.metrics());
      }
      if (stream::EpochRegion* region = stream.region(e)) {
        region->AdoptBlock(tc.executor()->id(), key);
      }
    };
    ctx.RunStage("sess-reduce", reduce_fn);
    region.AdoptLineage(ctx.RegisterLineage(StreamRdd(e), reduce_fn));
  };

  uint64_t digest = 0;
  auto on_window = [&](const stream::StreamWindow& w) {
    std::vector<uint64_t> wsessions(static_cast<size_t>(parts), 0);
    std::vector<uint64_t> wvisits(static_cast<size_t>(parts), 0);
    std::vector<uint64_t> wcents(static_cast<size_t>(parts), 0);
    ctx.RunStage("sess-window", [&](spark::TaskContext& tc) {
      jvm::Heap* h = tc.heap();
      int p = tc.partition();
      uint64_t sessions = 0;
      uint64_t visits = 0;
      uint64_t cents = 0;
      // ip -> last_ts of its most recent session in this window; epochs
      // stitch in time order. Counters are per-ip independent sums, so
      // within-epoch entry order never matters.
      std::unordered_map<int64_t, int64_t> prev;
      std::vector<Partial> rows;
      for (int ep = w.start; ep < w.end; ++ep) {
        spark::LoadedBlock b =
            tc.cache()->Get({StreamRdd(ep), p}, &tc.metrics());
        if (!b.valid()) continue;
        rows.clear();
        spark::ForEachCachedRecord(
            tc, b, types.rec_ops,
            [&](const uint8_t* r) {
              rows.push_back({LoadRaw<int64_t>(r), LoadRaw<int64_t>(r + 8),
                              LoadRaw<int64_t>(r + 16),
                              LoadRaw<int64_t>(r + 24),
                              LoadRaw<int64_t>(r + 32)});
              return kEntryBytes;
            },
            [&](ObjRef rec) {
              rows.push_back({h->GetField<int64_t>(rec, types.ip_off),
                              h->GetField<int64_t>(rec, types.rfirst_off),
                              h->GetField<int64_t>(rec, types.rlast_off),
                              h->GetField<int64_t>(rec, types.rvisits_off),
                              h->GetField<int64_t>(rec, types.rcents_off)});
            });
        for (const Partial& r : rows) {
          auto it = prev.find(r.ip);
          if (it == prev.end() || r.first - it->second > params.session_gap) {
            ++sessions;
          }
          prev[r.ip] = r.last;
          visits += static_cast<uint64_t>(r.visits);
          cents += static_cast<uint64_t>(r.cents);
        }
      }
      wsessions[static_cast<size_t>(p)] = sessions;
      wvisits[static_cast<size_t>(p)] = visits;
      wcents[static_cast<size_t>(p)] = cents;
    });
    uint64_t sessions = 0;
    uint64_t visits = 0;
    uint64_t cents = 0;
    for (int p = 0; p < parts; ++p) {
      sessions += wsessions[static_cast<size_t>(p)];
      visits += wvisits[static_cast<size_t>(p)];
      cents += wcents[static_cast<size_t>(p)];
    }
    digest = FoldDigest(digest, sessions);
    digest = FoldDigest(digest, visits);
    digest = FoldDigest(digest, cents);
    result.records_processed += visits;
  };

  stream.RunEpochs(per_epoch, on_window);

  result.run.exec_ms = run_sw.ElapsedMillis();
  result.windows = static_cast<uint64_t>(stream.windows_emitted());
  result.digest = digest;
  uint64_t ingested = static_cast<uint64_t>(params.stream.epochs) * per_part *
                      static_cast<uint64_t>(parts);
  result.throughput_rps =
      result.run.exec_ms > 0
          ? static_cast<double>(ingested) / (result.run.exec_ms / 1000.0)
          : 0;
  FinalizeResult(&ctx, &result.run);
  FillStreamRun(stream, &result.run);  // after finalize: overrides slowest_task
  return result;
}

}  // namespace deca::workloads
