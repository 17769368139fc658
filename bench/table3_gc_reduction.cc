// Reproduces Table 3: GC time, its share of execution time, and Deca's GC
// reduction for the five applications, each at its largest configuration
// without data swapping/spilling (as in the paper).

#include <optional>
#include <string>

#include "bench_util.h"
#include "fault/task_failure.h"
#include "workloads/graph.h"
#include "workloads/kmeans.h"
#include "workloads/lr.h"
#include "workloads/wordcount.h"

using namespace deca;
using namespace deca::bench;
using namespace deca::workloads;

namespace {

// One mode's run of a row: its result, or why it has none. A mode whose
// task exhausts its attempts (an OOM, once DECA_HEAP_MB is too small for
// the row's data) fails typed; the table records it and moves on.
struct ModeRun {
  std::optional<RunResult> run;
  std::string failure;
};

template <typename Run>
ModeRun Attempt(Run run) {
  try {
    return {run(), ""};
  } catch (const fault::TaskOomFailure& e) {
    return {std::nullopt, "OOM (stage " + std::to_string(e.stage()) + ")"};
  } catch (const fault::TaskFailure& e) {
    return {std::nullopt, "failed (stage " + std::to_string(e.stage()) + ")"};
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("table3_gc_reduction", argc, argv);
  PrintHeader("Table 3: GC time reduction",
              "Table 3 — Spark exec/gc/ratio vs Deca gc + reduction",
              "Largest non-spilling configuration per application");
  TablePrinter t({"app", "Spark exec(ms)", "Spark gc(ms)", "gc ratio",
                  "Deca exec(ms)", "Deca gc(ms)", "gc reduction"});

  // Runs `p` in Spark and then Deca mode and adds the row. A failed mode
  // stays out of the report and its cells name the failure.
  auto add_row = [&](const char* app, auto p, auto run_workload) {
    p.mode = Mode::kSpark;
    const ModeRun spark = Attempt([&] { return run_workload(p).run; });
    p.mode = Mode::kDeca;
    const ModeRun deca = Attempt([&] { return run_workload(p).run; });
    auto cell = [](const ModeRun& m, auto format) {
      return m.run ? format(*m.run) : m.failure;
    };
    auto exec = [](const RunResult& r) { return Ms(r.exec_ms); };
    auto gc = [](const RunResult& r) { return Ms(r.totals.gc_pause_ms); };
    auto ratio = [](const RunResult& r) {
      return Pct(100.0 * r.totals.gc_pause_ms / r.exec_ms);
    };
    std::string reduction = "-";
    if (spark.run && deca.run) {
      const double spark_gc = spark.run->totals.gc_pause_ms;
      const double deca_gc = deca.run->totals.gc_pause_ms;
      reduction = Pct(
          spark_gc > 0 ? 100.0 * (spark_gc - deca_gc) / spark_gc : 0.0);
    }
    if (spark.run) report.AddRun(std::string(app) + "/Spark", *spark.run);
    if (deca.run) report.AddRun(std::string(app) + "/Deca", *deca.run);
    t.AddRow({app, cell(spark, exec), cell(spark, gc), cell(spark, ratio),
              cell(deca, exec), cell(deca, gc), reduction});
  };

  {
    WordCountParams p;
    p.total_words = 3'000'000;
    p.distinct_keys = 200'000;
    p.spark = DefaultSpark();
    add_row("WC: 3M/200k", p, RunWordCount);
  }
  {
    MlParams p;
    p.num_points = 640'000;
    p.iterations = 10;
    p.spark = DefaultSpark();
    p.spark.storage_fraction = 0.9;
    add_row("LR: 640k", p, RunLogisticRegression);
  }
  {
    MlParams p;
    p.num_points = 480'000;
    p.iterations = 8;
    p.spark = DefaultSpark();
    p.spark.storage_fraction = 0.8;
    add_row("KMeans: 480k", p, RunKMeans);
  }
  {
    GraphParams p;
    p.num_vertices = 1u << 17;
    p.num_edges = 1u << 20;
    p.iterations = 5;
    p.spark = DefaultSpark();
    p.spark.partitions_per_executor = 4;
    p.spark.storage_fraction = 0.4;
    add_row("PR: 1M edges", p, RunPageRank);
  }
  {
    GraphParams p;
    p.num_vertices = 1u << 17;
    p.num_edges = 1u << 20;
    p.iterations = 6;
    p.spark = DefaultSpark();
    p.spark.partitions_per_executor = 4;
    p.spark.storage_fraction = 0.4;
    add_row("CC: 1M edges", p, RunConnectedComponents);
  }
  t.Print();
  std::printf(
      "\nExpected shape (paper): GC ratios 40-79%% for Spark; Deca removes\n"
      ">=97%% of GC time in every application.\n");
  return 0;
}
