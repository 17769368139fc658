// decabench: command-line driver to run any of the paper's workloads with
// chosen mode, sizes and GC algorithm — the knob-turning tool for
// exploring the reproduction beyond the fixed bench configurations.
//
// Usage:
//   decabench <wc|lr|kmeans|pr|cc|sql> [options]
// Options:
//   --mode=spark|sparkser|deca     (default spark; sql: spark|sparksql|deca)
//   --size=N          items: words (wc), points (lr/kmeans), edges (pr/cc),
//                     uservisits rows (sql). Default per workload.
//   --heap-mb=N       per-executor heap (default 64)
//   --executors=N     (default 2)    --iters=N (default 10)
//   --threads=N       worker threads for the parallel task runtime
//                     (default 0 = sequential; results are bit-identical)
//   --gc=ps|cms|g1    collector (default ps)
//   --dims=N          vector dims (lr/kmeans, default 10)
//   --keys=N          distinct keys (wc, default 100000)
//   --storage=F       storage fraction (default 0.9)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads/graph.h"
#include "workloads/kmeans.h"
#include "workloads/lr.h"
#include "workloads/sql.h"
#include "workloads/wordcount.h"

using namespace deca;
using namespace deca::workloads;

namespace {

struct Options {
  std::string workload;
  std::string mode = "spark";
  uint64_t size = 0;
  size_t heap_mb = 64;
  int executors = 2;
  int threads = 0;
  int iters = 10;
  std::string gc = "ps";
  int dims = 10;
  uint64_t keys = 100000;
  double storage = 0.9;
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *out = arg + prefix.size();
  return true;
}

void PrintResult(const char* name, const RunResult& r) {
  std::printf(
      "%s [%s]: exec=%.1fms load=%.1fms gc=%.1fms (minor=%llu full=%llu, "
      "concurrent=%.1fms)\n  cached=%.1fMB swapped=%.1fMB compute=%.1fms "
      "ser=%.1fms deser=%.1fms shuffle r/w=%.1f/%.1fms disk=%.1fms\n",
      name, ModeName(r.mode), r.exec_ms, r.load_ms, r.totals.gc_pause_ms,
      static_cast<unsigned long long>(r.totals.minor_gcs),
      static_cast<unsigned long long>(r.totals.full_gcs),
      r.totals.concurrent_gc_ms, ToMb(r.totals.peak_cached_bytes),
      ToMb(r.totals.swapped_bytes), r.compute_ms, r.ser_ms, r.deser_ms,
      r.shuffle_read_ms, r.shuffle_write_ms, r.spill_ms);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: decabench <wc|lr|kmeans|pr|cc|sql> [--mode=...] "
                 "[--size=N] [--heap-mb=N] [--executors=N] [--threads=N] "
                 "[--iters=N] [--gc=ps|cms|g1] [--dims=N] [--keys=N] "
                 "[--storage=F]\n");
    return 2;
  }
  Options opt;
  opt.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "mode", &v)) {
      opt.mode = v;
    } else if (ParseFlag(argv[i], "size", &v)) {
      opt.size = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "heap-mb", &v)) {
      opt.heap_mb = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "executors", &v)) {
      opt.executors = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "threads", &v)) {
      opt.threads = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "iters", &v)) {
      opt.iters = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "gc", &v)) {
      opt.gc = v;
    } else if (ParseFlag(argv[i], "dims", &v)) {
      opt.dims = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "keys", &v)) {
      opt.keys = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "storage", &v)) {
      opt.storage = std::atof(v.c_str());
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  spark::SparkConfig cfg;
  cfg.num_executors = opt.executors;
  cfg.num_worker_threads = opt.threads;
  cfg.partitions_per_executor = 2;
  cfg.heap.heap_bytes = opt.heap_mb << 20;
  cfg.storage_fraction = opt.storage;
  cfg.spill_dir = "/tmp/decabench_spill";
  if (opt.gc == "cms") {
    cfg.heap.algorithm = jvm::GcAlgorithm::kConcurrentMarkSweep;
  } else if (opt.gc == "g1") {
    cfg.heap.algorithm = jvm::GcAlgorithm::kG1;
  }

  Mode mode = opt.mode == "deca"
                  ? Mode::kDeca
                  : (opt.mode == "sparkser" ? Mode::kSparkSer : Mode::kSpark);

  if (opt.workload == "wc") {
    WordCountParams p;
    p.total_words = opt.size != 0 ? opt.size : 2'000'000;
    p.distinct_keys = opt.keys;
    p.mode = mode;
    p.spark = cfg;
    WordCountResult r = RunWordCount(p);
    PrintResult("wordcount", r.run);
    std::printf("  total=%llu distinct=%llu shuffled=%.1fMB\n",
                static_cast<unsigned long long>(r.total_count),
                static_cast<unsigned long long>(r.distinct_found),
                static_cast<double>(r.shuffle_bytes) / (1 << 20));
  } else if (opt.workload == "lr") {
    MlParams p;
    p.dims = opt.dims;
    p.num_points = opt.size != 0 ? opt.size : 200'000;
    p.iterations = opt.iters;
    p.mode = mode;
    p.spark = cfg;
    LrResult r = RunLogisticRegression(p);
    PrintResult("logistic-regression", r.run);
  } else if (opt.workload == "kmeans") {
    MlParams p;
    p.dims = opt.dims;
    p.num_points = opt.size != 0 ? opt.size : 200'000;
    p.iterations = opt.iters;
    p.mode = mode;
    p.spark = cfg;
    KMeansResult r = RunKMeans(p);
    PrintResult("kmeans", r.run);
  } else if (opt.workload == "pr" || opt.workload == "cc") {
    GraphParams p;
    p.num_edges = opt.size != 0 ? opt.size : (1u << 20);
    p.num_vertices = p.num_edges / 8;
    p.iterations = opt.iters;
    p.mode = mode;
    p.spark = cfg;
    p.spark.storage_fraction = std::min(opt.storage, 0.5);
    if (opt.workload == "pr") {
      PageRankResult r = RunPageRank(p);
      PrintResult("pagerank", r.run);
      std::printf("  rank_sum=%.2f vertices=%llu\n", r.rank_sum,
                  static_cast<unsigned long long>(r.vertices_ranked));
    } else {
      ConnectedComponentsResult r = RunConnectedComponents(p);
      PrintResult("connected-components", r.run);
      std::printf("  components=%llu\n",
                  static_cast<unsigned long long>(r.components));
    }
  } else if (opt.workload == "sql") {
    SqlParams p;
    p.uservisits_rows = opt.size != 0 ? opt.size : 600'000;
    p.rankings_rows = p.uservisits_rows / 3;
    p.engine = opt.mode == "deca"
                   ? SqlEngine::kDeca
                   : (opt.mode == "sparksql" ? SqlEngine::kSparkSql
                                             : SqlEngine::kSparkRdd);
    p.spark = cfg;
    SqlResult r = RunSqlQueries(p);
    std::printf("sql [%s]: q1=%.1fms (gc %.1f) q2=%.1fms (gc %.1f) "
                "cache=%.1fMB q1_rows=%llu q2_groups=%llu\n",
                SqlEngineName(p.engine), r.q1_exec_ms, r.q1_gc_ms,
                r.q2_exec_ms, r.q2_gc_ms, r.cached_mb,
                static_cast<unsigned long long>(r.q1_matches),
                static_cast<unsigned long long>(r.q2_groups));
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", opt.workload.c_str());
    return 2;
  }
  return 0;
}
