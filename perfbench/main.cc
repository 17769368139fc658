// perfbench: the repo benchmark's client binary. Runs one workload in
// Spark mode and Deca mode inside this single-threaded process, times
// every round from outside the engine, checks the results, and prints
// the metrics named in BENCHMARK.json as the last stdout line.
//
//   perfbench --workload lr-knee|stream-epochs|serve-tiers --seed N
//             --seconds S --trace 0|1 [--size full|tiny]
//             [--spans-out FILE]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// metrics. Exit status is nonzero when a reference check fails.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "drivers.h"
#include "harness.h"

namespace perfbench {

Pace MakePace(const RunOptions& opt, int warmup, int count_rounds) {
  Pace p;
  p.warmup = opt.tiny ? 1 : warmup;
  p.count_rounds = opt.tiny ? 4 : count_rounds;
  p.seconds = opt.tiny ? 0 : opt.seconds / 2;
  return p;
}

void CheckModesAgree(const char* what, WorkloadResult* r) {
  const auto& a = r->spark.fingerprints;
  const auto& b = r->deca.fingerprints;
  size_t n = std::min(a.size(), b.size());
  if (n == 0) {
    r->errors.push_back(std::string(what) + ": no rounds to compare");
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) {
      r->errors.push_back(std::string(what) + " differ between modes at " +
                          std::to_string(i));
      return;
    }
  }
}

namespace {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

const char* Suffix(Mode m) { return m == Mode::kDeca ? "deca" : "spark"; }

double PercentileF(const std::vector<float>& v, double p) {
  return Percentile(std::vector<double>(v.begin(), v.end()), p);
}

void PrintRounds(const ModeResult& m) {
  const std::vector<double>& r = m.round_ms;
  double tail = TailPercentile(r.size());
  std::printf(
      "%-5s rounds=%zu p50=%.3fms p90=%.3fms p%.1f=%.3fms setup=%.1fms "
      "cache=%.2fMB\n",
      Suffix(m.mode), r.size(), Percentile(r, 50), Percentile(r, 90), tail,
      Percentile(r, tail), Median(m.setup_ms), m.cache_mb);
  if (!m.query_us.empty()) {
    std::printf("%-5s queries=%zu p50=%.3fus p99=%.3fus p99.9=%.3fus\n",
                Suffix(m.mode), m.query_us.size(), PercentileF(m.query_us, 50),
                PercentileF(m.query_us, 99), PercentileF(m.query_us, 99.9));
  }
}

void EndToEnd(const WorkloadResult& r, std::vector<Metric>* out) {
  out->push_back({"setup_s",
                  (Median(r.spark.setup_ms) + Median(r.deca.setup_ms)) / 1e3,
                  "s"});
  for (const ModeResult* m : {&r.deca, &r.spark}) {
    out->push_back({std::string("round_p90_ms.") + Suffix(m->mode),
                    Percentile(m->round_ms, 90), "ms"});
  }
  for (const ModeResult* m : {&r.deca, &r.spark}) {
    out->push_back(
        {std::string("cache_mb.") + Suffix(m->mode), m->cache_mb, "MB"});
  }
  out->push_back({"peak_rss_mb", r.peak_rss_mb, "MB"});
}

// Count names every workload prints (zero where a layer is bypassed).
const char* const kCountNames[] = {
    "jvm.full_gcs",          "jvm.minor_gcs",
    "jvm.traced_per_alloc",  "jvm.alloc_mb",
    "spark.store.t0_hit_ratio", "spark.store.t1_hits",
    "spark.store.t2_hits",   "spark.store.promotes",
    "spark.store.demotes",   "spark.store.admit_rejects",
    "spark.store.swapped_mb", "spark.shuffle.mb",
    "spark.shuffle.combine_ratio", "spark.stage.stages",
    "stream.reclaimed_mb",   "stream.drift_kb",
    "memory.denied",         "memory.pressure_evictions",
    "memory.storage_peak_mb", "alloc.calls",
    "alloc.mb",
};
const char* const kCountUnits[] = {
    "count", "count", "ratio", "MB",    "ratio", "count", "count",
    "count", "count", "count", "MB",    "MB",    "ratio", "count",
    "MB",    "KB",    "count", "count", "MB",    "count", "MB",
};
const char* const kSetupNames[] = {"spark.stage.context_ms",
                                   "analysis.classify_ms",
                                   "spark.store.load_ms"};

void PerLayer(const WorkloadResult& r, double steal_pct, double probe_ms,
              std::vector<Metric>* out) {
  for (const ModeResult* m : {&r.deca, &r.spark}) {
    const std::string sfx = std::string(".") + Suffix(m->mode);
    const Tracer& t = m->tracer;
    for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
      std::vector<double> per_round;
      for (const auto& layers : t.round_layers()) {
        per_round.push_back(layers[static_cast<size_t>(l)]);
      }
      std::string base = std::string(LayerName(static_cast<Layer>(l))) + "_ms";
      out->push_back({base + ".p50" + sfx, Percentile(per_round, 50), "ms"});
      out->push_back({base + ".p90" + sfx, Percentile(per_round, 90), "ms"});
    }
    out->push_back({"spark.store.get_us_p99" + sfx,
                    PercentileF(t.durations_us(Layer::kStoreGet), 99), "us"});
    if (m->mode == Mode::kDeca) {
      out->push_back({"core.read_us_p99" + sfx,
                      PercentileF(t.durations_us(Layer::kCoreRead), 99), "us"});
    } else {
      out->push_back({"jvm.read_us_p99" + sfx,
                      PercentileF(t.durations_us(Layer::kJvmRead), 99), "us"});
    }
    out->push_back({"query_p99_us" + sfx, PercentileF(m->query_us, 99), "us"});
    for (size_t i = 0; i < std::size(kCountNames); ++i) {
      auto it = m->counts.find(kCountNames[i]);
      out->push_back({kCountNames[i] + sfx,
                      it == m->counts.end() ? 0.0 : it->second,
                      kCountUnits[i]});
    }
    for (const char* name : kSetupNames) {
      auto it = m->setup_layers.find(name);
      out->push_back({name + sfx,
                      it == m->setup_layers.end() ? 0.0 : Median(it->second),
                      "ms"});
    }
    double untraced = Percentile(m->round_ms, 90);
    double traced = Percentile(m->traced_round_ms, 90);
    out->push_back({"obs.overhead_pct" + sfx,
                    untraced > 0 ? 100.0 * (traced - untraced) / untraced : 0,
                    "%"});
  }
  out->push_back({"host.steal_pct", steal_pct, "%"});
  out->push_back({"host.probe_ms", probe_ms, "ms"});
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload lr-knee|stream-epochs|"
               "serve-tiers --seed N --seconds S --trace 0|1 "
               "[--size full|tiny] [--spans-out FILE]\n");
  return 2;
}

}  // namespace

int Main(int argc, char** argv) {
  RunOptions opt;
  std::string workload;
  std::string spans_out;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    std::string val = argv[++i];
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(val.c_str());
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return Usage();
      opt.trace = val == "1";
    } else if (arg == "--size") {
      if (val != "full" && val != "tiny") return Usage();
      opt.tiny = val == "tiny";
    } else if (arg == "--spans-out") {
      spans_out = val;
    } else {
      return Usage();
    }
  }
  void (*run)(const RunOptions&, WorkloadResult*) = nullptr;
  if (workload == "lr-knee") {
    run = RunLrKnee;
  } else if (workload == "stream-epochs") {
    run = RunStreamEpochs;
  } else if (workload == "serve-tiers") {
    run = RunServeTiers;
  }
  if (run == nullptr || !have_seed || opt.seconds <= 0) return Usage();

  CpuTimes cpu0 = ReadCpuTimes();
  double probe0 = MemoryProbeMs();
  SpillDir spill;
  opt.spill_dir = spill.path();
  WorkloadResult r;
  run(opt, &r);

  double probe1 = MemoryProbeMs();
  CpuTimes cpu1 = ReadCpuTimes();
  uint64_t total = cpu1.total - cpu0.total;
  double steal_pct =
      total == 0 ? 0
                 : 100.0 * static_cast<double>(cpu1.steal - cpu0.steal) /
                       static_cast<double>(total);
  double probe_ms = (probe0 + probe1) / 2;

  std::printf("workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0);
  PrintRounds(r.spark);
  PrintRounds(r.deca);
  std::printf("peak_rss=%.1fMB host.steal_pct=%.2f host.probe_ms=%.2f/%.2f\n",
              r.peak_rss_mb, steal_pct, probe0, probe1);
  for (const std::string& e : r.errors) {
    std::printf("MISMATCH: %s\n", e.c_str());
  }

  if (opt.trace && !spans_out.empty()) {
    std::FILE* f = std::fopen(spans_out.c_str(), "w");
    DECA_CHECK(f != nullptr) << "cannot write " << spans_out;
    std::fprintf(f, "mode\tround\tspan\tparent\tlayer\tstart_us\tend_us\t"
                    "gc_ms\n");
    r.spark.tracer.WriteKept(f, "spark");
    r.deca.tracer.WriteKept(f, "deca");
    std::fclose(f);
  }

  std::vector<Metric> metrics;
  if (opt.trace) {
    PerLayer(r, steal_pct, probe_ms, &metrics);
  } else {
    EndToEnd(r, &metrics);
  }
  uint64_t attempted = r.spark.attempted + r.deca.attempted;
  uint64_t failed = r.spark.failed + r.deca.failed;
  bool correct = r.errors.empty() && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
