// stream-epochs: windowed wordcount over micro-batch epochs. Each epoch
// allocates a shuffle, combine buffers, page groups and a cached table,
// and its region reclaims them a window later: shuffle, stage dispatch,
// page churn and reclaim carry the round, and Spark mode pays for the
// per-record object churn with collections in every epoch.

#include <algorithm>
#include <cstring>

#include "common/bytes.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/page.h"
#include "drivers.h"
#include "spark/shuffle.h"
#include "stream/stream_context.h"
#include "workloads/stream.h"
#include "workloads/stream_common.h"

namespace perfbench {

namespace {

using deca::ByteReader;
using deca::ByteWriter;
using deca::LoadRaw;
using deca::StoreRaw;
using deca::jvm::FieldKind;
using deca::jvm::Handle;
using deca::jvm::HandleScope;
using deca::jvm::ObjRef;
using deca::spark::TaskContext;
using deca::workloads::FoldDigest;
using deca::workloads::Mix64;
using deca::workloads::StreamRdd;

struct StreamSize {
  uint64_t records_per_epoch;
  uint64_t distinct_keys;
  int segment_epochs;  // epochs per RunEpochs call
  size_t heap_bytes;
};

constexpr int kWindow = 4;
// 50k records per epoch over 10,240 keys; segments of 24 epochs are six
// tumbling windows, so every region is reclaimed before RunEpochs
// returns and footprint drift is sampled past its epoch-10 base. On 8 MB
// heaps Spark mode collects in every epoch (about four minor GCs, and a
// cheap full GC of the small old generation in most epochs), so no
// rare-GC mode straddles the epochs' 90th percentile: with 64 MB heaps
// it did, and round p90 moved by a third between runs.
constexpr StreamSize kFull{50000, 10240, 24, 8u << 20};
constexpr StreamSize kTiny{4000, 1024, 12, 8u << 20};
constexpr StreamSize kReference{4000, 1024, 12, 8u << 20};

/// The windowed-wordcount record classes and ops of RunStreamWordCount:
/// Tuple2 and boxed-long churn on the object path, 8+8 byte decomposed
/// entries on the page path.
struct WcTypes {
  explicit WcTypes(deca::jvm::ClassRegistry* registry) {
    tuple2_cls = registry->RegisterClass(
        "scala.Tuple2", {{"_1", FieldKind::kRef}, {"_2", FieldKind::kRef}});
    const auto& tc = registry->Get(tuple2_cls);
    t1_off = tc.FieldOffset("_1");
    t2_off = tc.FieldOffset("_2");
    pair_cls = registry->RegisterClass(
        "WcPair", {{"word", FieldKind::kLong}, {"count", FieldKind::kLong}});
    const auto& pc = registry->Get(pair_cls);
    word_off = pc.FieldOffset("word");
    count_off = pc.FieldOffset("count");

    ops.key_hash = [](deca::jvm::Heap* h, ObjRef k) -> uint64_t {
      return static_cast<uint64_t>(h->GetField<int64_t>(k, 0)) *
             0x9e3779b97f4a7c15ULL;
    };
    ops.key_equals = [](deca::jvm::Heap* h, ObjRef a, ObjRef b) {
      return h->GetField<int64_t>(a, 0) == h->GetField<int64_t>(b, 0);
    };
    ops.combine = [](deca::jvm::Heap* h, ObjRef agg, ObjRef v) -> ObjRef {
      int64_t sum = h->GetField<int64_t>(agg, 0) + h->GetField<int64_t>(v, 0);
      ObjRef fresh = h->AllocateInstance(h->registry()->boxed_long_class());
      h->SetField<int64_t>(fresh, 0, sum);
      return fresh;
    };
    ops.entry_bytes = [](deca::jvm::Heap*, ObjRef, ObjRef) -> uint64_t {
      return 3 * (deca::jvm::kHeaderBytes + 8) + 8;
    };
    ops.serialize_key = [](deca::jvm::Heap* h, ObjRef k, ByteWriter* w) {
      w->WriteVarI64(h->GetField<int64_t>(k, 0));
    };
    ops.serialize_value = ops.serialize_key;
    ops.deserialize_key = [](deca::jvm::Heap* h, ByteReader* r) -> ObjRef {
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

    uint32_t wo = word_off;
    uint32_t co = count_off;
    uint32_t cls = pair_cls;
    rec_ops.managed_bytes = [](deca::jvm::Heap*, ObjRef) -> uint64_t {
      return deca::jvm::kHeaderBytes + 16 + 4;
    };
    rec_ops.serialize = [wo, co](deca::jvm::Heap* h, ObjRef r,
                                 ByteWriter* w) {
      w->Write<int64_t>(h->GetField<int64_t>(r, wo));
      w->Write<int64_t>(h->GetField<int64_t>(r, co));
    };
    rec_ops.deserialize = [cls, wo, co](deca::jvm::Heap* h,
                                        ByteReader* r) -> ObjRef {
      ObjRef rec = h->AllocateInstance(cls);
      h->SetField<int64_t>(rec, wo, r->Read<int64_t>());
      h->SetField<int64_t>(rec, co, r->Read<int64_t>());
      return rec;
    };
  }

  uint32_t tuple2_cls;
  uint32_t t1_off;
  uint32_t t2_off;
  uint32_t pair_cls;
  uint32_t word_off;
  uint32_t count_off;
  deca::spark::ShuffleOps ops;
  deca::spark::RecordOps rec_ops;
};

/// Counts a segment accumulates at its own boundaries (the benchmark's
/// side of the map-side combine, and the shuffle bytes per epoch).
struct SegmentCounts {
  uint64_t combine_in = 0;
  uint64_t combine_out = 0;
  uint64_t shuffle_bytes = 0;
  uint64_t stages = 0;
};

class StreamDriver {
 public:
  StreamDriver(Mode mode, const StreamSize& size, const RunOptions& opt)
      : size_(size), deca_(mode == Mode::kDeca) {
    cfg_ = BaseConfig(mode, size.heap_bytes, opt.spill_dir);
  }

  void Setup(ModeResult* out) {
    {
      SetupPhase p(out, "spark.stage.context_ms");
      ctx_ = std::make_unique<deca::spark::SparkContext>(cfg_);
    }
    {
      SetupPhase p(out, "analysis.classify_ms");
      types_ = std::make_unique<WcTypes>(ctx_->registry());
      for (int slot = 0; slot < deca::workloads::kStreamRddSlots; ++slot) {
        ctx_->RegisterCachedRdd(deca::workloads::kStreamRddBase + slot,
                                &types_->rec_ops);
      }
    }
    // The stream has no input to load: its set-up ends with the first
    // segment's StreamContext.
    SetupPhase p(out, "spark.store.load_ms");
    first_ = std::make_unique<deca::stream::StreamContext>(ctx_.get(),
                                                           Options());
  }

  /// Runs one segment of epochs (the set-up's StreamContext first, then a
  /// fresh one per segment) and returns its window digest. `boundary` is
  /// called at the start of every per-epoch callback (the round
  /// boundary); the segment's last round ends when RunEpochs returns.
  uint64_t Segment(uint64_t seed, Tracer* tr, SegmentCounts* counts,
                   const std::function<void()>& boundary) {
    std::unique_ptr<deca::stream::StreamContext> owned = std::move(first_);
    if (owned == nullptr) {
      owned =
          std::make_unique<deca::stream::StreamContext>(ctx_.get(), Options());
    }
    deca::stream::StreamContext& stream = *owned;
    deca::spark::SparkContext& ctx = *ctx_;
    const WcTypes& types = *types_;
    const int parts = ctx.num_partitions();
    const uint64_t per_part = std::max<uint64_t>(
        1, size_.records_per_epoch / static_cast<uint64_t>(parts));
    const size_t shuffle_budget = cfg_.shuffle_budget_bytes();
    const uint32_t page_bytes = cfg_.deca_page_bytes;
    const bool deca = deca_;
    const uint64_t distinct = size_.distinct_keys;

    auto per_epoch = [&](int e, deca::stream::EpochRegion& region) {
      boundary();
      Scoped cb(tr, Layer::kStage);
      int sid = ctx.shuffle()->RegisterShuffle(parts);
      region.AdoptShuffle(sid);

      auto map_fn = [&, e, sid](TaskContext& tc) {
        Scoped task(tr, Layer::kStage);
        deca::jvm::Heap* h = tc.heap();
        deca::Rng rng(Mix64(seed ^ static_cast<uint64_t>(e)) +
                      static_cast<uint64_t>(tc.partition()));
        std::vector<ByteWriter> outs(static_cast<size_t>(parts));
        std::vector<deca::net::ChunkMeta> metas(static_cast<size_t>(parts));
        if (deca) {
          for (auto& meta : metas) meta.fixed_record_bytes = 16;
        }
        auto flush_deca = [&](deca::spark::DecaHashShuffleBuffer& buf) {
          counts->combine_out += buf.size();
          buf.ForEach([&](const uint8_t* entry) {
            uint64_t hash = types.ops.deca_key_hash(entry);
            outs[hash % static_cast<uint64_t>(parts)].WriteBytes(entry, 16);
          });
          buf.Clear();
        };
        auto flush_object = [&](deca::spark::ObjectHashShuffleBuffer& buf) {
          counts->combine_out += buf.size();
          buf.ForEach([&](ObjRef k, ObjRef v) {
            uint64_t hash = types.ops.key_hash(h, k);
            size_t r = hash % static_cast<uint64_t>(parts);
            ByteWriter& w = outs[r];
            size_t before = w.size();
            types.ops.serialize_key(h, k, &w);
            types.ops.serialize_value(h, v, &w);
            metas[r].record_lens.push_back(
                static_cast<uint32_t>(w.size() - before));
          });
          buf.Clear();
        };
        {
          Scoped combine(tr, Layer::kShuffleCombine);
          counts->combine_in += per_part;
          if (deca) {
            deca::spark::DecaHashShuffleBuffer buf(h, &types.ops, page_bytes);
            for (uint64_t i = 0; i < per_part; ++i) {
              int64_t word = static_cast<int64_t>(rng.NextBounded(distinct));
              int64_t one = 1;
              buf.Insert(reinterpret_cast<const uint8_t*>(&word),
                         reinterpret_cast<const uint8_t*>(&one));
              if (buf.estimated_bytes() > shuffle_budget) flush_deca(buf);
            }
            flush_deca(buf);
          } else {
            deca::spark::ObjectHashShuffleBuffer buf(h, &types.ops);
            for (uint64_t i = 0; i < per_part; ++i) {
              int64_t word = static_cast<int64_t>(rng.NextBounded(distinct));
              HandleScope scope(h);
              Handle key = scope.Make(
                  h->AllocateInstance(h->registry()->boxed_long_class()));
              h->SetField<int64_t>(key.get(), 0, word);
              Handle one = scope.Make(
                  h->AllocateInstance(h->registry()->boxed_long_class()));
              h->SetField<int64_t>(one.get(), 0, 1);
              Handle tuple = scope.Make(h->AllocateInstance(types.tuple2_cls));
              h->SetRefField(tuple.get(), types.t1_off, key.get());
              h->SetRefField(tuple.get(), types.t2_off, one.get());
              buf.Insert(h->GetRefField(tuple.get(), types.t1_off),
                         h->GetRefField(tuple.get(), types.t2_off));
              if (buf.estimated_bytes() > shuffle_budget) flush_object(buf);
            }
            flush_object(buf);
          }
        }
        Scoped put(tr, Layer::kShufflePut);
        for (int r = 0; r < parts; ++r) {
          ctx.shuffle()->PutChunk(sid, r, tc.partition(),
                                  outs[static_cast<size_t>(r)].TakeBuffer(),
                                  metas[static_cast<size_t>(r)]);
        }
      };
      {
        Scoped stage(tr, Layer::kStage);
        region.AdoptLineage(ctx.RunMapStage("stream-map", sid, map_fn));
      }
      counts->shuffle_bytes += ctx.ShuffleTotalBytes(sid);

      auto reduce_fn = [&, e, sid](TaskContext& tc) {
        Scoped task(tr, Layer::kStage);
        deca::jvm::Heap* h = tc.heap();
        int p = tc.partition();
        deca::spark::BlockKey key{StreamRdd(e), p};
        if (deca) {
          deca::spark::DecaHashShuffleBuffer buf(h, &types.ops, page_bytes);
          std::vector<uint8_t> entries;
          {
            Scoped fetch(tr, Layer::kShuffleFetch);
            const auto& chunks = ctx.shuffle()->GetChunks(sid, p);
            for (const auto& chunk : chunks) {
              for (size_t off = 0; off < chunk.size(); off += 16) {
                buf.Insert(chunk.data() + off, chunk.data() + off + 8);
              }
            }
          }
          std::shared_ptr<deca::core::PageGroup> pages;
          {
            Scoped append(tr, Layer::kCoreAppend);
            // Stage to native bytes first: page appends may GC, which
            // would invalidate the entry pointers ForEach hands out.
            entries.reserve(static_cast<size_t>(buf.size()) * 16);
            buf.ForEach([&](const uint8_t* entry) {
              entries.insert(entries.end(), entry, entry + 16);
            });
            pages = std::make_shared<deca::core::PageGroup>(h, page_bytes);
            for (size_t off = 0; off < entries.size(); off += 16) {
              deca::core::SegPtr seg = pages->Append(16);
              std::memcpy(pages->Resolve(seg), entries.data() + off, 16);
            }
          }
          Scoped put(tr, Layer::kStorePut);
          tc.cache()->PutPages(key, pages,
                               static_cast<uint32_t>(entries.size() / 16),
                               &tc.metrics());
        } else {
          deca::spark::ObjectHashShuffleBuffer buf(h, &types.ops);
          {
            Scoped fetch(tr, Layer::kShuffleFetch);
            const auto& chunks = ctx.shuffle()->GetChunks(sid, p);
            for (const auto& chunk : chunks) {
              ByteReader r(chunk.data(), chunk.size());
              while (!r.AtEnd()) {
                HandleScope scope(h);
                Handle k = scope.Make(types.ops.deserialize_key(h, &r));
                Handle v = scope.Make(types.ops.deserialize_value(h, &r));
                buf.Insert(k.get(), v.get());
              }
            }
          }
          HandleScope scope(h);
          Handle arr;
          uint32_t rows_n = 0;
          {
            Scoped build(tr, Layer::kJvmMutator);
            std::vector<std::pair<int64_t, int64_t>> rows;
            rows.reserve(buf.size());
            buf.ForEach([&](ObjRef k, ObjRef v) {
              rows.emplace_back(h->GetField<int64_t>(k, 0),
                                h->GetField<int64_t>(v, 0));
            });
            rows_n = static_cast<uint32_t>(rows.size());
            arr = scope.Make(
                h->AllocateArray(h->registry()->ref_array_class(), rows_n));
            for (uint32_t i = 0; i < rows_n; ++i) {
              ObjRef rec = h->AllocateInstance(types.pair_cls);
              h->SetField<int64_t>(rec, types.word_off, rows[i].first);
              h->SetField<int64_t>(rec, types.count_off, rows[i].second);
              h->SetRefElem(arr.get(), i, rec);
            }
          }
          Scoped put(tr, Layer::kStorePut);
          tc.cache()->PutObjects(key, arr.get(), rows_n, &tc.metrics());
        }
        if (deca::stream::EpochRegion* reg = stream.region(e)) {
          reg->AdoptBlock(tc.executor()->id(), key);
        }
      };
      {
        Scoped stage(tr, Layer::kStage);
        ctx.RunStage("stream-reduce", reduce_fn);
      }
      region.AdoptLineage(ctx.RegisterLineage(StreamRdd(e), reduce_fn));
      counts->stages += 2;
    };

    uint64_t digest = 0;
    auto on_window = [&](const deca::stream::StreamWindow& w) {
      Scoped cb(tr, Layer::kStage);
      std::vector<uint64_t> wtotal(static_cast<size_t>(parts), 0);
      std::vector<uint64_t> wdistinct(static_cast<size_t>(parts), 0);
      std::vector<uint64_t> wsum(static_cast<size_t>(parts), 0);
      {
        Scoped stage(tr, Layer::kStage);
        ctx.RunStage("stream-window", [&](TaskContext& tc) {
          Scoped task(tr, Layer::kStage);
          WindowTask(tc, w, tr, &wtotal, &wdistinct, &wsum);
        });
      }
      ++counts->stages;
      uint64_t total = 0;
      uint64_t distinct_n = 0;
      uint64_t checksum = 0;
      for (int p = 0; p < parts; ++p) {
        total += wtotal[static_cast<size_t>(p)];
        distinct_n += wdistinct[static_cast<size_t>(p)];
        checksum += wsum[static_cast<size_t>(p)];
      }
      digest = FoldDigest(digest, total);
      digest = FoldDigest(digest, distinct_n);
      digest = FoldDigest(digest, checksum);
    };

    stream.RunEpochs(per_epoch, on_window);
    reclaimed_bytes_ = stream.reclaimed_bytes();
    drift_bytes_ = static_cast<int64_t>(stream.footprint_end_bytes()) -
                   static_cast<int64_t>(stream.footprint_base_bytes());
    return digest;
  }

  deca::spark::SparkContext& ctx() { return *ctx_; }
  double CacheMb() const {
    return static_cast<double>(ctx_->PeakCachedMemoryBytes()) / (1 << 20);
  }
  uint64_t reclaimed_bytes() const { return reclaimed_bytes_; }
  int64_t drift_bytes() const { return drift_bytes_; }

 private:
  deca::stream::StreamOptions Options() const {
    deca::stream::StreamOptions so;
    so.epochs = size_.segment_epochs;
    so.window = kWindow;
    return so;
  }

  /// One partition of the window stage: merge the window's epoch tables
  /// and summarize them (total, distinct keys, key checksum).
  void WindowTask(TaskContext& tc, const deca::stream::StreamWindow& w,
                  Tracer* tr, std::vector<uint64_t>* wtotal,
                  std::vector<uint64_t>* wdistinct,
                  std::vector<uint64_t>* wsum) {
    deca::jvm::Heap* h = tc.heap();
    const WcTypes& types = *types_;
    int p = tc.partition();
    uint64_t total = 0;
    uint64_t distinct = 0;
    uint64_t checksum = 0;
    auto get = [&](int ep) {
      Scoped s(tr, Layer::kStoreGet);
      return tc.cache()->Get({StreamRdd(ep), p}, &tc.metrics());
    };
    if (deca_) {
      deca::spark::DecaHashShuffleBuffer merge(h, &types.ops,
                                               cfg_.deca_page_bytes);
      for (int ep = w.start; ep < w.end; ++ep) {
        deca::spark::LoadedBlock b = get(ep);
        if (!b.valid()) continue;
        Scoped scan_span(tr, Layer::kCoreScan);
        deca::core::PageScanner scan(b.pages.get());
        while (!scan.AtEnd()) {
          uint8_t row[16];
          std::memcpy(row, scan.Cur(), 16);
          scan.Advance(16);
          merge.Insert(row, row + 8);  // may GC; row is native
        }
      }
      Scoped fold(tr, Layer::kCoreScan);
      merge.ForEach([&](const uint8_t* entry) {
        uint64_t count = static_cast<uint64_t>(LoadRaw<int64_t>(entry + 8));
        total += count;
        ++distinct;
        checksum += Mix64(LoadRaw<uint64_t>(entry)) * count;
      });
    } else {
      deca::spark::ObjectHashShuffleBuffer merge(h, &types.ops);
      auto insert_boxed = [&](int64_t word, int64_t count) {
        HandleScope inner(h);
        Handle k = inner.Make(
            h->AllocateInstance(h->registry()->boxed_long_class()));
        h->SetField<int64_t>(k.get(), 0, word);
        Handle v = inner.Make(
            h->AllocateInstance(h->registry()->boxed_long_class()));
        h->SetField<int64_t>(v.get(), 0, count);
        merge.Insert(k.get(), v.get());
      };
      for (int ep = w.start; ep < w.end; ++ep) {
        deca::spark::LoadedBlock b = get(ep);
        if (!b.valid()) continue;
        Scoped merge_span(tr, Layer::kJvmMutator);
        HandleScope scope(h);
        DECA_CHECK(b.level == deca::spark::StorageLevel::kMemoryObjects);
        Handle arr = scope.Make(b.object_array);
        for (uint32_t i = 0; i < b.count; ++i) {
          // Read the record's fields before insert_boxed allocates.
          ObjRef rec = h->GetRefElem(arr.get(), i);
          int64_t word = h->GetField<int64_t>(rec, types.word_off);
          int64_t count = h->GetField<int64_t>(rec, types.count_off);
          insert_boxed(word, count);
        }
      }
      Scoped fold(tr, Layer::kJvmMutator);
      merge.ForEach([&](ObjRef k, ObjRef v) {
        uint64_t count = static_cast<uint64_t>(h->GetField<int64_t>(v, 0));
        total += count;
        ++distinct;
        checksum +=
            Mix64(static_cast<uint64_t>(h->GetField<int64_t>(k, 0))) * count;
      });
    }
    (*wtotal)[static_cast<size_t>(p)] = total;
    (*wdistinct)[static_cast<size_t>(p)] = distinct;
    (*wsum)[static_cast<size_t>(p)] = checksum;
  }

  StreamSize size_;
  bool deca_;
  deca::spark::SparkConfig cfg_;
  std::unique_ptr<deca::spark::SparkContext> ctx_;
  std::unique_ptr<WcTypes> types_;
  std::unique_ptr<deca::stream::StreamContext> first_;
  uint64_t reclaimed_bytes_ = 0;
  int64_t drift_bytes_ = 0;
};

/// Segment k's input seed. Segment 0 uses the run seed itself, so it is
/// exactly RunStreamWordCount's stream for that seed.
uint64_t SegmentSeed(uint64_t seed, int k) {
  return k == 0 ? seed : Mix64(seed + static_cast<uint64_t>(k));
}

/// One mode of stream-epochs. Segment 0 is warm-up, the next
/// `count_segments` segments are the count window, and segments run on
/// until the mode's time share is spent.
class StreamMode {
 public:
  StreamMode(Mode mode, const StreamSize& size, const RunOptions& opt,
             int setup_reps, int count_segments, ModeResult* out)
      : opt_(opt),
        count_segments_(count_segments),
        pace_(MakeStreamPace(size, opt, count_segments)),
        out_(out),
        loop_(pace_, opt.trace, out),
        d_(TimedSetups<StreamDriver>(mode, size, opt, setup_reps, out)) {
    out->mode = mode;
    out->tracer.Attach(&d_->ctx());
  }
  ~StreamMode() { out_->tracer.Attach(nullptr); }
  StreamMode(const StreamMode&) = delete;
  StreamMode& operator=(const StreamMode&) = delete;

  bool More() const { return loop_.More(); }

  /// Runs whole segments until `seconds` more measured epoch time is
  /// spent (at least one segment).
  void RunBlock(double seconds) {
    const double until = loop_.spent_seconds() + seconds;
    do {
      Segment();
    } while (loop_.More() && loop_.spent_seconds() < until);
  }

 private:
  static Pace MakeStreamPace(const StreamSize& size, const RunOptions& opt,
                             int count_segments) {
    Pace p;
    p.warmup = size.segment_epochs;
    p.count_rounds = count_segments * size.segment_epochs;
    p.seconds = opt.tiny ? 0 : opt.seconds / 2;
    return p;
  }

  void EndRound() {
    loop_.End();
    ++out_->attempted;
  }

  void Segment() {
    const int k = segment_++;
    auto boundary = [this] {
      if (loop_.open()) EndRound();
      if (loop_.in_count_window_start()) {
        start_ = ReadCounters(d_->ctx());
        counts_ = SegmentCounts{};
      }
      loop_.Begin(Layer::kStream);
    };
    uint64_t digest = d_->Segment(SegmentSeed(opt_.seed, k), &out_->tracer,
                                  &counts_, boundary);
    EndRound();
    out_->fingerprints.push_back(digest);
    if (k >= 1 && k <= count_segments_) {
      reclaimed_ += d_->reclaimed_bytes();
      drift_ += d_->drift_bytes();
    }
    if (!loop_.at_count_window_end()) return;
    EngineCounts(start_, ReadCounters(d_->ctx()), pace_.count_rounds,
                 &out_->counts);
    const double rounds = static_cast<double>(pace_.count_rounds);
    CountMap& c = out_->counts;
    c["spark.shuffle.mb"] =
        static_cast<double>(counts_.shuffle_bytes) / rounds / (1 << 20);
    c["spark.shuffle.combine_ratio"] =
        static_cast<double>(counts_.combine_out) /
        static_cast<double>(counts_.combine_in);
    c["spark.stage.stages"] = static_cast<double>(counts_.stages) / rounds;
    c["stream.reclaimed_mb"] =
        static_cast<double>(reclaimed_) / rounds / (1 << 20);
    c["stream.drift_kb"] =
        static_cast<double>(drift_) / count_segments_ / 1024.0;
    out_->cache_mb = d_->CacheMb();
  }

  RunOptions opt_;
  int count_segments_;
  Pace pace_;
  ModeResult* out_;
  RoundLoop loop_;
  std::unique_ptr<StreamDriver> d_;
  int segment_ = 0;
  Counters start_;
  SegmentCounts counts_;
  uint64_t reclaimed_ = 0;
  int64_t drift_ = 0;
};

void CheckReference(Mode mode, const RunOptions& opt,
                    std::vector<std::string>* errors) {
  deca::workloads::StreamParams p;
  p.stream.epochs = kReference.segment_epochs;
  p.stream.window = kWindow;
  p.records_per_epoch = kReference.records_per_epoch;
  p.distinct_keys = kReference.distinct_keys;
  p.mode = mode;
  p.seed = opt.seed;
  p.spark = BaseConfig(mode, kReference.heap_bytes, opt.spill_dir);
  deca::workloads::StreamResult ref = deca::workloads::RunStreamWordCount(p);

  StreamDriver d(mode, kReference, opt);
  ModeResult discard;
  discard.setup_ms.push_back(0);
  d.Setup(&discard);
  SegmentCounts counts;
  uint64_t digest = d.Segment(opt.seed, &discard.tracer, &counts, [] {});
  if (digest != ref.digest) {
    errors->push_back(std::string("stream-epochs ") +
                      deca::workloads::ModeName(mode) +
                      ": window digest differs from RunStreamWordCount");
  }
}

}  // namespace

void RunStreamEpochs(const RunOptions& opt, WorkloadResult* out) {
  const StreamSize& size = opt.tiny ? kTiny : kFull;
  const int setup_reps = opt.tiny ? 1 : 15;
  const int count_segments = opt.tiny ? 1 : 5;
  {
    StreamMode spark(Mode::kSpark, size, opt, setup_reps, count_segments,
                     &out->spark);
    StreamMode deca(Mode::kDeca, size, opt, setup_reps, count_segments,
                    &out->deca);
    Interleave(spark, deca);
    out->peak_rss_mb = PeakRssMb();
  }
  CheckModesAgree("stream-epochs window digests", out);
  CheckReference(Mode::kSpark, opt, &out->errors);
  CheckReference(Mode::kDeca, opt, &out->errors);
}

}  // namespace perfbench
