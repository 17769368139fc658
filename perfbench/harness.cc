#include "harness.h"

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>

#include "common/clock.h"
#include "common/logging.h"
#include "common/random.h"

namespace perfbench {

namespace {

constexpr long kTmpfsMagic = 0x01021994;

}  // namespace

const char* LayerName(Layer l) {
  switch (l) {
    case Layer::kStage:
      return "spark.stage.overhead";
    case Layer::kStoreGet:
      return "spark.store.get";
    case Layer::kStorePut:
      return "spark.store.put";
    case Layer::kShuffleCombine:
      return "spark.shuffle.combine";
    case Layer::kShufflePut:
      return "spark.shuffle.put";
    case Layer::kShuffleFetch:
      return "spark.shuffle.fetch";
    case Layer::kCoreScan:
      return "core.scan";
    case Layer::kCoreAppend:
      return "core.append";
    case Layer::kCoreRead:
      return "core.read";
    case Layer::kJvmMutator:
      return "jvm.mutator";
    case Layer::kJvmRead:
      return "jvm.read";
    case Layer::kJvmGc:
      return "jvm.gc";
    case Layer::kStream:
      return "stream.self";
    case Layer::kCount:
      break;
  }
  return "?";
}

// -- Tracer ----------------------------------------------------------------

double Tracer::GcNow() const {
  // Single-threaded driver: the context-wide GC total only moves on the
  // heap of the task in flight.
  return ctx_ != nullptr ? ctx_->TotalGcPauseMs() : 0.0;
}

void Tracer::BeginRound(int round, bool traced, Layer layer) {
  enabled_ = traced;
  if (!enabled_) return;
  round_ = round;
  spans_.clear();
  stack_.clear();
  Open(layer);
}

int Tracer::Open(Layer layer) {
  Span s;
  s.layer = layer;
  s.parent = current_parent();
  s.gc_ms = GcNow();  // start value until Close turns it into a delta
  s.start_ns = deca::NowNanos();
  spans_.push_back(s);
  int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::Close(int span) {
  Span& s = spans_[static_cast<size_t>(span)];
  s.end_ns = deca::NowNanos();
  s.gc_ms = GcNow() - s.gc_ms;
  DECA_CHECK(!stack_.empty() && stack_.back() == span)
      << "spans must close innermost first";
  stack_.pop_back();
}

void Tracer::Leaf(Layer layer, int64_t start_ns, int64_t end_ns,
                  double gc_ms) {
  Span s;
  s.layer = layer;
  s.parent = current_parent();
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.gc_ms = gc_ms;
  spans_.push_back(s);
}

void Tracer::EndRound() {
  if (!enabled_) return;
  DECA_CHECK(stack_.size() == 1) << "span left open at round end";
  Close(stack_.back());
  // Self time: a span's duration minus its children's durations, with
  // the GC pause recorded inside it (minus its children's) moved to
  // jvm.gc. Spans of one thread nest, so children never overlap.
  const size_t n = spans_.size();
  std::vector<double> child_ms(n, 0.0);
  std::vector<double> child_gc(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0) {
      child_ms[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      child_gc[static_cast<size_t>(s.parent)] += s.gc_ms;
    }
  }
  std::vector<double> layers(static_cast<size_t>(Layer::kCount), 0.0);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    double self_gc = s.gc_ms - child_gc[i];
    layers[static_cast<size_t>(s.layer)] += dur - child_ms[i] - self_gc;
    layers[static_cast<size_t>(Layer::kJvmGc)] += self_gc;
    durations_[static_cast<size_t>(s.layer)].push_back(
        static_cast<float>(dur * 1e3));
  }
  round_layers_.push_back(std::move(layers));
  if (kept_.size() < static_cast<size_t>(kKeptRounds)) {
    kept_.push_back({round_, spans_});
  }
  spans_.clear();
  enabled_ = false;
}

void Tracer::WriteKept(std::FILE* out, const char* mode) const {
  for (const KeptRound& k : kept_) {
    int64_t t0 = k.spans.empty() ? 0 : k.spans.front().start_ns;
    for (size_t i = 0; i < k.spans.size(); ++i) {
      const Span& s = k.spans[i];
      std::fprintf(out, "%s\t%d\t%zu\t%d\t%s\t%.3f\t%.3f\t%.6f\n", mode,
                   k.round, i, s.parent, LayerName(s.layer),
                   static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.end_ns - t0) / 1e3, s.gc_ms);
    }
  }
}

// -- Counters ----------------------------------------------------------------

Counters ReadCounters(deca::spark::SparkContext& ctx) {
  Counters c;
  c.gc_ms = ctx.TotalGcPauseMs();
  c.minor_gcs = ctx.TotalMinorGcs();
  c.full_gcs = ctx.TotalFullGcs();
  for (int e = 0; e < ctx.num_executors(); ++e) {
    const deca::jvm::GcStats& s = ctx.executor(e)->heap()->stats();
    c.objects_traced += s.objects_traced;
    c.objects_allocated += s.objects_allocated;
    c.bytes_allocated += s.bytes_allocated;
  }
  c.tier = ctx.TotalTierCounters();
  c.swapped_bytes = ctx.SwappedBytes();
  c.denied = ctx.TotalDeniedReservations();
  c.pressure_evictions = ctx.TotalPressureEvictions();
  c.storage_peak_bytes = ctx.TotalStoragePoolPeakBytes();
  deca::alloc::AllocStats a = ctx.TotalAllocStats();
  c.alloc_calls = a.alloc_calls;
  c.alloc_bytes = a.bytes_requested;
  return c;
}

void EngineCounts(const Counters& a, const Counters& b, int rounds,
                  CountMap* out) {
  const double r = static_cast<double>(rounds);
  const double mb = 1024.0 * 1024.0;
  auto per_round = [r](uint64_t x, uint64_t y) {
    return static_cast<double>(y - x) / r;
  };
  CountMap& m = *out;
  m["jvm.full_gcs"] = per_round(a.full_gcs, b.full_gcs);
  m["jvm.minor_gcs"] = per_round(a.minor_gcs, b.minor_gcs);
  uint64_t allocated = b.objects_allocated - a.objects_allocated;
  m["jvm.traced_per_alloc"] =
      allocated == 0 ? 0.0
                     : static_cast<double>(b.objects_traced -
                                           a.objects_traced) /
                           static_cast<double>(allocated);
  m["jvm.alloc_mb"] = per_round(a.bytes_allocated, b.bytes_allocated) / mb;
  const deca::spark::TierCounters& ta = a.tier;
  const deca::spark::TierCounters& tb = b.tier;
  uint64_t lookups = (tb.t0_hits + tb.t1_hits + tb.t2_hits + tb.misses) -
                     (ta.t0_hits + ta.t1_hits + ta.t2_hits + ta.misses);
  m["spark.store.t0_hit_ratio"] =
      lookups == 0 ? 0.0
                   : static_cast<double>(tb.t0_hits - ta.t0_hits) /
                         static_cast<double>(lookups);
  m["spark.store.t1_hits"] = per_round(ta.t1_hits, tb.t1_hits);
  m["spark.store.t2_hits"] = per_round(ta.t2_hits, tb.t2_hits);
  m["spark.store.promotes"] = per_round(ta.promotes, tb.promotes);
  m["spark.store.demotes"] =
      per_round(ta.demotes_to_t1 + ta.demotes_to_t2,
                tb.demotes_to_t1 + tb.demotes_to_t2);
  m["spark.store.admit_rejects"] =
      per_round(ta.admit_rejects, tb.admit_rejects);
  m["spark.store.swapped_mb"] = static_cast<double>(b.swapped_bytes) / mb;
  m["memory.denied"] = static_cast<double>(b.denied - a.denied);
  m["memory.pressure_evictions"] =
      static_cast<double>(b.pressure_evictions - a.pressure_evictions);
  m["memory.storage_peak_mb"] =
      static_cast<double>(b.storage_peak_bytes) / mb;
  m["alloc.calls"] = per_round(a.alloc_calls, b.alloc_calls);
  m["alloc.mb"] = per_round(a.alloc_bytes, b.alloc_bytes) / mb;
}

// -- RoundLoop ---------------------------------------------------------------

bool RoundLoop::More() const {
  return round_ < pace_.warmup + pace_.count_rounds ||
         spent_seconds() < pace_.seconds;
}

void RoundLoop::Begin(Layer root_layer) {
  DECA_CHECK(!open_) << "round " << round_ << " already open";
  open_ = true;
  // Traced and untraced rounds alternate in blocks of four, so the
  // window stage of every fourth stream epoch falls in both halves.
  traced_ = trace_ && measured() && ((round_ - pace_.warmup) / 4) % 2 == 0;
  out_->tracer.BeginRound(round_, traced_, root_layer);
  begin_ns_ = deca::NowNanos();
}

void RoundLoop::End() {
  DECA_CHECK(open_) << "no round open";
  int64_t ns = deca::NowNanos() - begin_ns_;
  out_->tracer.EndRound();
  if (measured()) {
    spent_ns_ += ns;
    (traced_ ? out_->traced_round_ms : out_->round_ms)
        .push_back(static_cast<double>(ns) / 1e6);
  }
  open_ = false;
  ++round_;
}

// -- Host diagnostics --------------------------------------------------------

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTimes t;
  in >> cpu;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest fields are
  // already included in user/nice).
  uint64_t v[8] = {};
  for (uint64_t& x : v) in >> x;
  for (uint64_t x : v) t.total += x;
  t.steal = v[7];
  return t;
}

double MemoryProbeMs() {
  // A random cyclic permutation over 32 MB: every load depends on the
  // previous one and misses the per-core caches, so the walk time tracks
  // shared-cache and memory latency under whatever else the host runs.
  constexpr size_t kSlots = (32u << 20) / sizeof(uint32_t);
  constexpr size_t kSteps = 1u << 20;
  std::vector<uint32_t> next(kSlots);
  std::iota(next.begin(), next.end(), 0u);
  deca::Rng rng(7);
  for (size_t i = kSlots - 1; i > 0; --i) {  // Sattolo: one cycle
    size_t j = static_cast<size_t>(rng.NextBounded(i));
    std::swap(next[i], next[j]);
  }
  int64_t t0 = deca::NowNanos();
  uint32_t at = 0;
  for (size_t s = 0; s < kSteps; ++s) at = next[at];
  int64_t t1 = deca::NowNanos();
  DECA_CHECK(at < kSlots);
  return static_cast<double>(t1 - t0) / 1e6;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  DECA_CHECK(false) << "VmHWM missing from /proc/self/status";
  return 0;
}

// -- SpillDir ----------------------------------------------------------------

SpillDir::SpillDir() {
  // Swap files on tmpfs: T2 reads then measure the program's I/O path
  // rather than the VM's virtual disk (round p90 spread fell from 33% to
  // 15% in probes). There is deliberately no fallback to /tmp.
  struct statfs fs {};
  DECA_CHECK(statfs("/dev/shm", &fs) == 0 &&
             static_cast<long>(fs.f_type) == kTmpfsMagic)
      << "perfbench needs /dev/shm on tmpfs for the spill directory";
  path_ = "/dev/shm/deca-perfbench-" + std::to_string(getpid());
  std::filesystem::create_directories(path_);
}

SpillDir::~SpillDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

// -- Statistics --------------------------------------------------------------

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

double TailPercentile(size_t n) {
  if (n <= 10) return 0;
  // Nearest-rank p leaves n - ceil(p n / 100) samples above it.
  double p = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return std::floor(p * 10.0) / 10.0;
}

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

deca::spark::SparkConfig BaseConfig(Mode mode, size_t heap_bytes,
                                    const std::string& spill_dir) {
  deca::spark::SparkConfig cfg;
  deca::workloads::ApplyMode(mode, &cfg);
  cfg.heap.heap_bytes = heap_bytes;
  cfg.spill_dir = spill_dir;
  return cfg;
}

}  // namespace perfbench
