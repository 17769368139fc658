#include "workloads/common.h"

#include "common/logging.h"

namespace deca::workloads {

const char* ModeName(Mode m) {
  switch (m) {
    case Mode::kSpark:
      return "Spark";
    case Mode::kSparkSer:
      return "SparkSer";
    case Mode::kDeca:
      return "Deca";
  }
  return "?";
}

void ApplyMode(Mode mode, spark::SparkConfig* config) {
  switch (mode) {
    case Mode::kSpark:
      config->cache_level = spark::StorageLevel::kMemoryObjects;
      config->deca_shuffle = false;
      break;
    case Mode::kSparkSer:
      config->cache_level = spark::StorageLevel::kMemorySerialized;
      config->deca_shuffle = false;
      break;
    case Mode::kDeca:
      config->cache_level = spark::StorageLevel::kDecaPages;
      config->deca_shuffle = true;
      break;
  }
}

void RejectCrashWipe(const spark::SparkConfig& config, const char* workload,
                     const char* reason) {
  DECA_CHECK(config.fault.crash_wipe_stage < 0 ||
             config.fault.crash_wipe_executor < 0)
      << workload << " cannot recover from a crash-wipe: " << reason;
}

void FinalizeResult(spark::SparkContext* ctx, RunResult* result) {
  const spark::JobMetrics& m = ctx->metrics();
  result->shuffle_read_ms = m.tasks.shuffle_read_ms;
  result->shuffle_write_ms = m.tasks.shuffle_write_ms;
  result->ser_ms = m.tasks.ser_ms;
  result->deser_ms = m.tasks.deser_ms;
  result->spill_ms = m.tasks.spill_ms;
  result->compute_ms = m.tasks.compute_ms();
  result->slowest_task = m.slowest_task;
  result->task_retries = m.task_retries;
  result->injected_faults = m.injected_faults;
  result->executor_wipes = m.executor_wipes;
  result->recomputed_blocks = m.recomputed_blocks;
  result->executors = ctx->ExecutorSnapshots();
  result->totals = ctx->Totals();
  const bool driver = ctx->role() == spark::DistRole::kDriver;
  result->net_active = driver || ctx->net_stats() != nullptr;
  result->tier_active = ctx->config().t1_enabled();
  if (driver) {
    result->dist_active = true;
    result->cluster = ctx->cluster_counters();
  }
  result->trace = ctx->TakeTraceLog();
}

}  // namespace deca::workloads
