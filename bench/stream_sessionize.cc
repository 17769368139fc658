// Sliding-window web-log sessionization: the epoch-pinning stress case.
// Windows of 6 epochs fire every 2, so each epoch stays pinned by up to
// three not-yet-closed windows before its region reclaims. Deca epoch
// regions vs the three GC collectors over a long steady state; the
// overlap means live data per boundary is ~3x the tumbling case, which
// is exactly where collector pause tails grow and region reclaim stays a
// (near-)constant-cost release.

#include <cstdlib>

#include "bench_util.h"
#include "workloads/stream.h"

using namespace deca;
using namespace deca::bench;
using namespace deca::workloads;

namespace {

struct Variant {
  const char* name;
  Mode mode;
  jvm::GcAlgorithm algo;
};

std::string DriftKb(const RunResult& r) {
  double kb = (static_cast<double>(r.footprint_end_bytes) -
               static_cast<double>(r.footprint_base_bytes)) /
              1024.0;
  return TablePrinter::Num(kb, 1);
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("stream_sessionize", argc, argv);
  PrintHeader("Streaming sessionization: sliding-window pinning",
              "Sec. 3.4/4 lifetimes; UserVisit-shaped rows (Sec. 6 SQL)",
              "240 epochs, window 6 sliding by 2; DECA_STREAM_* overrides");
  StreamParams p;
  p.stream = DefaultStreamOptions(/*epochs_def=*/240, /*window_def=*/6,
                                  /*slide_def=*/2);
  p.records_per_epoch = Scaled(16'000);
  p.distinct_keys = Scaled(2'048);
  p.spark = DefaultSpark();

  const Variant variants[] = {
      {"Deca", Mode::kDeca, jvm::GcAlgorithm::kParallelScavenge},
      {"Spark-PS", Mode::kSpark, jvm::GcAlgorithm::kParallelScavenge},
      {"Spark-CMS", Mode::kSpark, jvm::GcAlgorithm::kConcurrentMarkSweep},
      {"Spark-G1", Mode::kSpark, jvm::GcAlgorithm::kG1},
  };

  FaultTotals faults;
  TablePrinter t({"variant", "krec/s", "pause p50(ms)", "pause p99(ms)",
                  "reclaim p99(ms)", "gc(ms)", "full GCs", "drift(KB)"});
  uint64_t digest = 0;
  bool digests_agree = true;
  RunResult last;
  for (const Variant& v : variants) {
    p.mode = v.mode;
    p.spark.heap.algorithm = v.algo;
    StreamResult r = RunStreamSessionize(p);
    faults.Add(r.run);
    last = r.run;
    if (digest == 0) digest = r.digest;
    digests_agree = digests_agree && r.digest == digest;
    report.AddRun(std::string("stream-sess/") + v.name, r.run);
    // 64-bit session digest in exact halves, mirroring stream_wordcount,
    // so reports from different configurations can be digest-compared.
    report.AddMetric("stream.digest_lo",
                     static_cast<double>(static_cast<uint32_t>(r.digest)),
                     /*exact=*/true);
    report.AddMetric("stream.digest_hi",
                     static_cast<double>(static_cast<uint32_t>(r.digest >> 32)),
                     /*exact=*/true);
    t.AddRow({v.name, TablePrinter::Num(r.throughput_rps / 1000.0, 1),
              Ms(r.run.epoch_pause_p50_ms), Ms(r.run.epoch_pause_p99_ms),
              Ms(r.run.epoch_reclaim_p99_ms), Ms(r.run.totals.gc_pause_ms),
              std::to_string(r.run.totals.full_gcs), DriftKb(r.run)});
  }
  t.Print();
  PrintExecutorMemory(last);
  faults.PrintIfAny();
  std::printf("\nwindow digests agree across variants: %s\n",
              digests_agree ? "yes" : "NO — BUG");
  std::printf(
      "\nExpected shape: identical session counts/digests everywhere;\n"
      "overlapping windows pin ~3x the tumbling live set, widening the\n"
      "collectors' pause tails while region reclaim stays flat; the data\n"
      "plane still drains to empty once the last window retires.\n");
  return digests_agree ? 0 : 1;
}
