// Graph analytics example: PageRank + ConnectedComponents over an RMAT
// graph, showing the paper's mixed caching-and-shuffling scenario
// (Section 6.3) and the partially decomposable pattern (Figure 7b): the
// groupByKey buffer that builds the adjacency lists stays in object form
// even under Deca, but the long-living cached copy is decomposed.
//
// Run: ./build/examples/pagerank_graph [log2_vertices] [log2_edges]

#include <cstdio>
#include <cstdlib>

#include "workloads/graph.h"

using namespace deca::workloads;

int main(int argc, char** argv) {
  int log_v = argc > 1 ? std::atoi(argv[1]) : 16;
  int log_e = argc > 2 ? std::atoi(argv[2]) : 20;
  GraphParams params;
  params.num_vertices = 1ull << log_v;
  params.num_edges = 1ull << log_e;
  params.iterations = 5;
  params.spark.num_executors = 2;
  params.spark.partitions_per_executor = 2;
  params.spark.heap.heap_bytes = 64u << 20;
  params.spark.storage_fraction = 0.4;
  params.spark.spill_dir = "/tmp/deca_example_graph";

  std::printf("RMAT graph: 2^%d vertices, 2^%d edges\n\n", log_v, log_e);
  for (Mode mode : {Mode::kSpark, Mode::kSparkSer, Mode::kDeca}) {
    params.mode = mode;
    PageRankResult pr = RunPageRank(params);
    std::printf("PageRank %-9s exec=%8.1fms gc=%7.1fms cached=%5.1fMB "
                "(rank mass %.1f over %llu vertices)\n",
                ModeName(mode), pr.run.exec_ms, pr.run.totals.gc_pause_ms,
                ToMb(pr.run.totals.peak_cached_bytes), pr.rank_sum,
                static_cast<unsigned long long>(pr.vertices_ranked));
  }
  std::printf("\n");
  for (Mode mode : {Mode::kSpark, Mode::kDeca}) {
    params.mode = mode;
    ConnectedComponentsResult cc = RunConnectedComponents(params);
    std::printf("CC       %-9s exec=%8.1fms gc=%7.1fms components=%llu\n",
                ModeName(mode), cc.run.exec_ms, cc.run.totals.gc_pause_ms,
                static_cast<unsigned long long>(cc.components));
  }
  return 0;
}
