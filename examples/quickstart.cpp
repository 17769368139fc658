// Quickstart: the smallest end-to-end tour of the library.
//
// It walks the full Deca pipeline on the paper's running example
// (LabeledPoint / DenseVector, Figures 1-3):
//   1. model the UDT and the stage's code shape,
//   2. run the local + global classification analyses (Algorithms 1-4),
//   3. synthesize the decomposed byte layout (Figure 2),
//   4. run Logistic Regression under Spark and under Deca and compare.
//
// Build:  cmake -B build -G Ninja && cmake --build build
// Run:    ./build/examples/quickstart

#include <cstdio>

#include "analysis/global_classifier.h"
#include "analysis/local_classifier.h"
#include "workloads/lr.h"

using namespace deca;

int main() {
  std::printf("== Deca quickstart ==\n\n");

  // -- 1+2: UDT model and classification (LrTypes bundles the paper's
  //          LabeledPoint example: annotated types + the LR map UDF's
  //          call graph).
  jvm::ClassRegistry registry;
  workloads::LrTypes types(&registry, /*dims=*/10);
  std::printf("LabeledPoint classifies as: %s\n",
              analysis::SizeTypeName(types.classified()));
  std::printf("  (the local classifier alone says VST — Section 3.2; the\n"
              "   global classifier proves the feature arrays are\n"
              "   fixed-length and refines it to SFST — Section 3.3)\n\n");

  // -- 3: the synthesized byte layout (paper Figure 2).
  const core::SudtLayout& layout = types.layout();
  std::printf("Decomposed record: %u bytes\n", layout.static_size());
  for (const auto& f : layout.fixed_fields()) {
    std::printf("  offset %3u: %-16s x%u (%s)\n", f.offset, f.path.c_str(),
                f.count, jvm::FieldKindName(f.kind));
  }

  // -- 4: run LR both ways on the same data and compare.
  workloads::MlParams params;
  params.dims = 10;
  params.num_points = 200'000;
  params.iterations = 10;
  params.spark.num_executors = 2;
  params.spark.partitions_per_executor = 2;
  params.spark.heap.heap_bytes = 64u << 20;
  params.spark.storage_fraction = 0.9;
  params.spark.spill_dir = "/tmp/deca_quickstart";

  params.mode = workloads::Mode::kSpark;
  workloads::LrResult spark = RunLogisticRegression(params);
  params.mode = workloads::Mode::kDeca;
  workloads::LrResult deca = RunLogisticRegression(params);

  std::printf("\n%-8s exec=%8.1fms  gc=%7.1fms  cached=%6.1fMB\n", "Spark",
              spark.run.exec_ms, spark.run.totals.gc_pause_ms,
              workloads::ToMb(spark.run.totals.peak_cached_bytes));
  std::printf("%-8s exec=%8.1fms  gc=%7.1fms  cached=%6.1fMB\n", "Deca",
              deca.run.exec_ms, deca.run.totals.gc_pause_ms,
              workloads::ToMb(deca.run.totals.peak_cached_bytes));
  std::printf("speedup: %.2fx; identical weights: %s\n",
              spark.run.exec_ms / deca.run.exec_ms,
              spark.weights == deca.weights ? "yes" : "no");
  return 0;
}
