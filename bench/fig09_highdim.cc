// Reproduces Figure 9(d): LR and KMeans on a high-dimensional dataset (the
// paper uses 4096-dim features extracted from the Amazon image dataset; we
// generate synthetic 4096-dim vectors — the memory-management behaviour
// depends only on dimensionality and point count). With such wide vectors
// the per-object header overhead is negligible, so Spark's and Deca's
// cached sizes are nearly identical and the speedups are modest (paper:
// 1.2x - 5.3x).

#include "bench_util.h"
#include "workloads/kmeans.h"
#include "workloads/lr.h"

using namespace deca;
using namespace deca::bench;
using namespace deca::workloads;

int main(int argc, char** argv) {
  BenchReport report("fig09_highdim", argc, argv);
  PrintHeader("Figure 9(d): high-dimensional (4096-d) LR and KMeans",
              "Fig. 9(d) — Amazon image dataset {40,80}GB",
              "Scaled: synthetic 4096-dim vectors, {1200, 2400} points");
  TablePrinter t({"app", "points", "mode", "exec(ms)", "gc(ms)",
                  "cached(MB)", "swapped(MB)", "vs Spark"});
  for (uint64_t pts : {1200ull, 2400ull}) {
    double spark_ms = 0;
    for (Mode mode : {Mode::kSpark, Mode::kSparkSer, Mode::kDeca}) {
      MlParams p;
      p.dims = 4096;
      p.num_points = pts;
      p.iterations = 10;
      p.mode = mode;
      p.spark = DefaultSpark();
      p.spark.storage_fraction = 0.9;
      p.spark.deca_page_bytes = 256u << 10;  // fit 32KB records comfortably
      LrResult r = RunLogisticRegression(p);
      if (mode == Mode::kSpark) spark_ms = r.run.exec_ms;
      report.AddRun("LR/" + std::to_string(pts) + "pts/" + ModeName(mode),
                    r.run);
      const spark::ExecutorSnapshot& s = r.run.totals;
      t.AddRow({"LR", std::to_string(pts), ModeName(mode), Ms(r.run.exec_ms),
                Ms(s.gc_pause_ms), Mb(ToMb(s.peak_cached_bytes)),
                Mb(ToMb(s.swapped_bytes)), Speedup(spark_ms, r.run.exec_ms)});
    }
  }
  for (uint64_t pts : {1200ull, 2400ull}) {
    double spark_ms = 0;
    for (Mode mode : {Mode::kSpark, Mode::kSparkSer, Mode::kDeca}) {
      MlParams p;
      p.dims = 4096;
      p.clusters = 4;
      p.num_points = pts;
      p.iterations = 5;
      p.mode = mode;
      p.spark = DefaultSpark();
      p.spark.storage_fraction = 0.9;
      p.spark.deca_page_bytes = 256u << 10;
      KMeansResult r = RunKMeans(p);
      if (mode == Mode::kSpark) spark_ms = r.run.exec_ms;
      report.AddRun("KMeans/" + std::to_string(pts) + "pts/" +
                        ModeName(mode),
                    r.run);
      const spark::ExecutorSnapshot& s = r.run.totals;
      t.AddRow({"KMeans", std::to_string(pts), ModeName(mode),
                Ms(r.run.exec_ms), Ms(s.gc_pause_ms),
                Mb(ToMb(s.peak_cached_bytes)), Mb(ToMb(s.swapped_bytes)),
                Speedup(spark_ms, r.run.exec_ms)});
    }
  }
  t.Print();
  std::printf(
      "\nExpected shape: cached sizes nearly identical across modes (header\n"
      "overhead is negligible at 4096 dims); Deca speedups modest.\n");
  return 0;
}
