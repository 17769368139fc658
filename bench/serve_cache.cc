// Closed-loop query serving against a cached user table larger than
// executor memory (ROADMAP open item 3). Grid: {legacy 2-tier store,
// 3-tier store} x {Spark-PS, Spark-G1, Deca pages}. The working set is
// sized to ~2x the unified executor budget, so the cold tail always
// lives below T0: the 2-tier store thrashes it to disk, the 3-tier
// store compacts it into serialized off-heap buffers first and re-admits
// hot blocks under the admission policy. Every variant must read the
// same record values — the query digest is cross-checked and a mismatch
// fails the run.

#include <string>

#include "bench_util.h"
#include "workloads/serve_entry.h"

using namespace deca;
using namespace deca::bench;
using namespace deca::workloads;

int main(int argc, char** argv) {
  BenchReport report("serve_cache", argc, argv);
  PrintHeader("Serve-cache: tiered block store under point queries",
              "\"GC or Serialization?\" middle tier x paper Section 6 modes",
              "Zipf(1.05) point queries, working set ~2x executor memory");

  const uint64_t records = Scaled(96'000);
  const int dims = 16;

  TablePrinter t({"variant", "exec(ms)", "qps", "p50(ms)", "p99(ms)",
                  "t0/t1/t2 hit%", "t1 res(MB)", "swap(MB)", "gc(ms)"});

  uint64_t digest = 0;
  bool first = true;
  bool digest_ok = true;

  auto run = [&](Mode mode, jvm::GcAlgorithm algo, int tiers,
                 const std::string& label) {
    ServeParams p;
    p.num_records = records;
    p.record_doubles = dims;
    p.queries_per_task = static_cast<int>(Scaled(512));
    p.serve_stages = 6;
    p.mode = mode;
    p.seed = 42;
    p.spark = DefaultSpark();
    p.spark.heap.algorithm = algo;
    p.spark.storage_tiers = tiers;
    // Working set >= 2x memory at any DECA_SCALE: the unified budget is
    // half the raw table bytes each executor holds (overrides
    // DECA_EXECUTOR_MEMORY — the ratio is the experiment).
    uint64_t per_exec =
        records / static_cast<uint64_t>(p.spark.num_executors);
    uint64_t raw_bytes = per_exec * (8 + 8 * static_cast<uint64_t>(dims));
    p.spark.executor_memory_bytes = static_cast<size_t>(
        std::max<uint64_t>(raw_bytes / 2, 256u << 10));

    ServeResult r = RunServeCache(p);
    report.AddRun(label, r.run);
    report.AddMetric("serve.queries", static_cast<double>(r.queries), true);
    // The 64-bit digest split in exact halves (a double carries 53 bits).
    report.AddMetric("serve.digest_lo",
                     static_cast<double>(static_cast<uint32_t>(r.digest)),
                     true);
    report.AddMetric(
        "serve.digest_hi",
        static_cast<double>(static_cast<uint32_t>(r.digest >> 32)), true);
    report.AddMetric("serve.latency_p50_ms", r.latency_p50_ms, false);
    report.AddMetric("serve.latency_p99_ms", r.latency_p99_ms, false);

    const spark::TierCounters& tc = r.run.totals.tier;
    uint64_t lookups = tc.t0_hits + tc.t1_hits + tc.t2_hits + tc.misses;
    auto rate = [lookups](uint64_t h) {
      return lookups > 0
                 ? TablePrinter::Num(100.0 * static_cast<double>(h) /
                                         static_cast<double>(lookups),
                                     0)
                 : std::string("0");
    };
    t.AddRow({label, Ms(r.run.exec_ms), TablePrinter::Num(r.qps, 0),
              TablePrinter::Num(r.latency_p50_ms, 3),
              TablePrinter::Num(r.latency_p99_ms, 3),
              rate(tc.t0_hits) + "/" + rate(tc.t1_hits) + "/" +
                  rate(tc.t2_hits),
              Mb(ToMb(tc.t1_resident_bytes)),
              Mb(ToMb(r.run.totals.swapped_bytes)),
              Ms(r.run.totals.gc_pause_ms)});

    if (first) {
      digest = r.digest;
      first = false;
    } else if (r.digest != digest) {
      digest_ok = false;
      std::fprintf(stderr,
                   "DIGEST MISMATCH: %s read %016llx, expected %016llx\n",
                   label.c_str(),
                   static_cast<unsigned long long>(r.digest),
                   static_cast<unsigned long long>(digest));
    }
  };

  for (int tiers : {2, 3}) {
    std::string suffix = "/T" + std::to_string(tiers);
    run(Mode::kSpark, jvm::GcAlgorithm::kParallelScavenge, tiers,
        "Spark-PS" + suffix);
    run(Mode::kSpark, jvm::GcAlgorithm::kG1, tiers, "Spark-G1" + suffix);
    run(Mode::kDeca, jvm::GcAlgorithm::kParallelScavenge, tiers,
        "Deca" + suffix);
  }

  t.Print();
  std::printf(
      "\nExpected shape: with the 3-tier store (T3 rows) the cold tail\n"
      "sits in serialized off-heap buffers instead of swap files — disk\n"
      "traffic and tail latency drop, and the GC-managed variants also\n"
      "trace fewer live objects. Deca pages serve raw-byte reads in every\n"
      "tier, so they keep the flattest latency profile. The digest is\n"
      "identical across all six variants by construction.\n");

  if (!digest_ok) {
    std::fprintf(stderr, "serve_cache: digest mismatch across variants\n");
    return 1;
  }
  return 0;
}
