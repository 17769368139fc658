// Reproduces Figure 8(a): lifetimes of shuffle-buffer objects in WordCount.
// The paper plots the number of live Tuple2 objects and cumulative GC time
// over the run for Spark and Deca; Spark's count fluctuates with the
// eagerly-combined hash buffer and GCs fire repeatedly, while Deca keeps
// the combined values in reused page segments (no Tuple2s at all).

#include "bench_util.h"
#include "workloads/wordcount.h"

using namespace deca;
using namespace deca::bench;
using namespace deca::workloads;

int main(int argc, char** argv) {
  BenchReport report("fig08_wc_lifetime", argc, argv);
  PrintHeader("Figure 8(a): WordCount shuffle-object lifetimes",
              "Fig. 8(a) — live Tuple2 count + GC time over run time",
              "Scaled: 3M words, 200k distinct keys, 2 executors x 64MB");
  WordCountParams p;
  p.total_words = 3'000'000;
  p.distinct_keys = 200'000;
  p.spark = DefaultSpark();
  p.profile = true;
  p.profile_every = 100'000;

  for (Mode mode : {Mode::kSpark, Mode::kDeca}) {
    p.mode = mode;
    WordCountResult r = RunWordCount(p);
    report.AddRun(ModeName(mode), r.run);
    std::printf("\n--- %s: exec=%.0fms gc=%.1fms (minor=%llu full=%llu)\n",
                ModeName(mode), r.run.exec_ms, r.run.totals.gc_pause_ms,
                static_cast<unsigned long long>(r.run.totals.minor_gcs),
                static_cast<unsigned long long>(r.run.totals.full_gcs));
    PrintSeries(std::string(ModeName(mode)) + "-Tuple2 live objects",
                r.run.object_counts);
    PrintSeries(std::string(ModeName(mode)) + "-cumulative GC ms",
                r.run.gc_series);
  }
  std::printf(
      "\nExpected shape: Spark's Tuple2 count stays in the hundreds of\n"
      "thousands and its GC time climbs steadily; Deca holds zero Tuple2\n"
      "objects and (near-)zero GC time.\n");
  return 0;
}
