// WordCount example: the paper's motivating shuffle workload (Section 6.1).
//
// Demonstrates the two map-side shuffle buffers side by side:
//   - Spark mode: an AppendOnlyMap of managed Tuple2/boxed objects, where
//     every eager combine allocates a fresh aggregate (GC churn);
//   - Deca mode: decomposed (key, count) segments in memory pages with
//     in-place combining — nothing for the collector to trace.
//
// Run: ./build/examples/wordcount [total_words] [distinct_keys]

#include <cstdio>
#include <cstdlib>

#include "workloads/wordcount.h"

using namespace deca::workloads;

int main(int argc, char** argv) {
  WordCountParams params;
  params.total_words = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                : 2'000'000;
  params.distinct_keys =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 100'000;
  params.zipf_s = 1.0;  // skewed word popularity, like real text
  params.spark.num_executors = 2;
  params.spark.partitions_per_executor = 2;
  params.spark.heap.heap_bytes = 64u << 20;
  params.spark.spill_dir = "/tmp/deca_example_wc";

  std::printf("WordCount: %llu words, %llu distinct keys (zipf)\n\n",
              static_cast<unsigned long long>(params.total_words),
              static_cast<unsigned long long>(params.distinct_keys));
  for (Mode mode : {Mode::kSpark, Mode::kDeca}) {
    params.mode = mode;
    WordCountResult r = RunWordCount(params);
    std::printf(
        "%-6s exec=%8.1fms gc=%7.1fms (minor=%llu full=%llu) "
        "distinct=%llu shuffled=%.1fMB\n",
        ModeName(mode), r.run.exec_ms, r.run.totals.gc_pause_ms,
        static_cast<unsigned long long>(r.run.totals.minor_gcs),
        static_cast<unsigned long long>(r.run.totals.full_gcs),
        static_cast<unsigned long long>(r.distinct_found),
        static_cast<double>(r.shuffle_bytes) / (1 << 20));
  }
  return 0;
}
