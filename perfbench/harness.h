// Shared measurement plumbing of the benchmark client: round timing,
// per-layer spans, engine counter snapshots, host diagnostics and the
// tmpfs spill directory. Everything here observes the engine from the
// outside, through its public getters; nothing under src/ is changed.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "alloc/arena.h"
#include "spark/context.h"
#include "spark/metrics.h"
#include "workloads/common.h"

namespace perfbench {

using deca::workloads::Mode;

/// Layers a span's self time is charged to. Names are the per-layer
/// metric prefixes printed by the traced run.
enum class Layer : uint8_t {
  kStage,           // stage dispatch, task glue, driver-side folds
  kStoreGet,        // CacheManager::Get / GetLazy
  kStorePut,        // CacheManager::PutPages / PutObjects
  kShuffleCombine,  // map-side combine-buffer inserts and drain
  kShufflePut,      // ShuffleService::PutChunk
  kShuffleFetch,    // GetChunks plus the reduce-side merge
  kCoreScan,        // page-scan kernels (Deca)
  kCoreAppend,      // PageGroup::Append loops building epoch tables
  kCoreRead,        // one record read out of a page block (Deca)
  kJvmMutator,      // object kernels and table builds (Spark)
  kJvmRead,         // one record read out of an object block (Spark)
  kJvmGc,           // GC pause time, moved out of the span it hit
  kStream,          // StreamContext's own time between callbacks
  kCount,
};

const char* LayerName(Layer l);

/// One measured span: benchmark code only, closed before its parent.
struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double gc_ms = 0;  // GC pause time the engine recorded inside the span
  int32_t parent = -1;
  Layer layer = Layer::kStage;
};

/// Per-round span recorder of the traced run. Spans are buffered for the
/// round in flight and folded into per-layer self times when the round
/// ends (between rounds, outside every round's timing); the raw spans of
/// the first kKeptRounds traced rounds per mode stay in memory and are
/// written out when the run ends. When disabled every call is a branch.
class Tracer {
 public:
  static constexpr int kKeptRounds = 8;

  /// GC time source for span attribution (the mode's live context).
  void Attach(deca::spark::SparkContext* ctx) { ctx_ = ctx; }
  bool enabled() const { return enabled_; }

  /// Opens the root span of round `round` (tracing on for this round
  /// iff `traced`); `layer` receives the root's self time.
  void BeginRound(int round, bool traced, Layer layer);
  /// Closes the root span and folds the round into the per-layer totals.
  void EndRound();

  int Open(Layer layer);
  void Close(int span);

  /// Adds a completed leaf span measured by the caller (hot loops that
  /// already hold both timestamps).
  void Leaf(Layer layer, int64_t start_ns, int64_t end_ns, double gc_ms);

  /// Per traced round: self time per layer (ms).
  const std::vector<std::vector<double>>& round_layers() const {
    return round_layers_;
  }
  /// Durations (us) of every span of `layer` over all traced rounds.
  const std::vector<float>& durations_us(Layer layer) const {
    return durations_[static_cast<size_t>(layer)];
  }
  /// Writes the kept raw spans as TSV (one line per span).
  void WriteKept(std::FILE* out, const char* mode) const;

  int current_parent() const { return stack_.empty() ? -1 : stack_.back(); }
  /// Cumulative GC pause time of the attached context (ms).
  double GcNow() const;

 private:
  deca::spark::SparkContext* ctx_ = nullptr;
  bool enabled_ = false;
  int round_ = -1;
  std::vector<Span> spans_;  // round in flight
  std::vector<int> stack_;
  std::vector<std::vector<double>> round_layers_;
  std::vector<std::vector<float>> durations_ =
      std::vector<std::vector<float>>(static_cast<size_t>(Layer::kCount));
  struct KeptRound {
    int round;
    std::vector<Span> spans;
  };
  std::vector<KeptRound> kept_;
};

/// RAII span; a no-op when the tracer is disabled.
class Scoped {
 public:
  Scoped(Tracer* t, Layer layer)
      : t_(t), id_(t->enabled() ? t->Open(layer) : -1) {}
  ~Scoped() {
    if (id_ >= 0) t_->Close(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* t_;
  int id_;
};

/// Cumulative engine counters at one round boundary, summed over
/// executors. Deltas between two snapshots give per-window counts.
struct Counters {
  double gc_ms = 0;
  uint64_t minor_gcs = 0;
  uint64_t full_gcs = 0;
  uint64_t objects_traced = 0;
  uint64_t objects_allocated = 0;
  uint64_t bytes_allocated = 0;
  deca::spark::TierCounters tier;
  uint64_t swapped_bytes = 0;
  uint64_t denied = 0;
  uint64_t pressure_evictions = 0;
  uint64_t storage_peak_bytes = 0;
  uint64_t alloc_calls = 0;
  uint64_t alloc_bytes = 0;
};

Counters ReadCounters(deca::spark::SparkContext& ctx);

/// Exact counts of one mode over its count window (a fixed run of rounds
/// after warm-up, so they repeat bit for bit for one seed), keyed by the
/// per-layer metric name without its mode suffix.
using CountMap = std::map<std::string, double>;

/// Fills the engine-plane counts shared by all workloads from the
/// snapshots bracketing `rounds` count-window rounds.
void EngineCounts(const Counters& a, const Counters& b, int rounds,
                  CountMap* out);

/// What one mode of a workload measured.
struct ModeResult {
  Mode mode = Mode::kSpark;
  std::vector<double> setup_ms;      // per set-up repetition
  std::map<std::string, std::vector<double>> setup_layers;  // ms per rep
  std::vector<double> round_ms;      // untraced measured rounds
  std::vector<double> traced_round_ms;  // traced rounds (traced run)
  std::vector<float> query_us;       // untraced queries (serve-tiers)
  double cache_mb = 0;
  CountMap counts;
  Tracer tracer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Cross-mode check material: one fingerprint per round (or per
  /// segment), compared over the prefix both modes completed.
  std::vector<uint64_t> fingerprints;
};

/// Round-loop pacing: warm-up rounds, then measured rounds until the
/// mode's time share is spent and the count window is complete.
struct Pace {
  int warmup = 5;
  int count_rounds = 100;
  double seconds = 10;  // measured round time per mode
};

/// Closed-loop round clock shared by every driver. Round r < warmup is
/// warm-up; the traced run traces half of the measured rounds so the
/// untraced ones in between give the tracing overhead.
class RoundLoop {
 public:
  RoundLoop(const Pace& pace, bool trace, ModeResult* out)
      : pace_(pace), trace_(trace), out_(out) {}

  /// True while another round should run.
  bool More() const;
  /// Wall time of the measured rounds so far.
  double spent_seconds() const { return static_cast<double>(spent_ns_) / 1e9; }
  /// Starts round `round()`; its root span's self time goes to
  /// `root_layer`.
  void Begin(Layer root_layer);
  /// Ends the round in flight (records its wall time).
  void End();

  int round() const { return round_; }
  bool open() const { return open_; }
  bool in_count_window_start() const { return round_ == pace_.warmup; }
  /// True when the round about to begin is the first after the count
  /// window (the closing snapshot boundary).
  bool at_count_window_end() const {
    return round_ == pace_.warmup + pace_.count_rounds;
  }
  bool measured() const { return round_ >= pace_.warmup; }

 private:
  Pace pace_;
  bool trace_;
  ModeResult* out_;
  int round_ = 0;
  bool open_ = false;
  bool traced_ = false;
  int64_t begin_ns_ = 0;
  int64_t spent_ns_ = 0;
};

/// /proc/stat CPU jiffies (total and steal) for the host.steal_pct
/// diagnostic.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTimes ReadCpuTimes();

/// Fixed memory-latency probe (dependent loads over 32 MB, far beyond
/// the per-core caches): host drift shows here and not in the engine.
double MemoryProbeMs();

/// Process peak resident set (VmHWM) in MB.
double PeakRssMb();

/// A private spill/swap directory on tmpfs, removed on destruction.
/// Aborts when /dev/shm is not a tmpfs: T2 reads must measure the
/// program's I/O path, not a virtual disk.
class SpillDir {
 public:
  SpillDir();
  ~SpillDir();
  SpillDir(const SpillDir&) = delete;
  SpillDir& operator=(const SpillDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Nearest-rank percentile of `v` (copied and sorted), p in [0, 100].
double Percentile(std::vector<double> v, double p);
double Median(const std::vector<double>& v);
/// The highest percentile that leaves at least ten samples beyond it.
double TailPercentile(size_t n);

/// Bit pattern of a double, for exact fingerprints.
uint64_t Bits(double v);

/// Engine setup shared by every workload: 2 executors x 2 partitions,
/// sequential driver, local shuffle, every other knob at its default.
deca::spark::SparkConfig BaseConfig(Mode mode, size_t heap_bytes,
                                    const std::string& spill_dir);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
