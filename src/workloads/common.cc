#include "workloads/common.h"

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

void FinalizeResult(spark::SparkContext* ctx, RunResult* result) {
  result->gc_ms = ctx->TotalGcPauseMs();
  result->concurrent_gc_ms = ctx->TotalConcurrentGcMs();
  result->minor_gcs = ctx->TotalMinorGcs();
  result->full_gcs = ctx->TotalFullGcs();
  result->cached_mb =
      static_cast<double>(ctx->PeakCachedMemoryBytes()) / (1 << 20);
  result->swapped_mb = static_cast<double>(ctx->SwappedBytes()) / (1 << 20);
  const spark::TaskMetrics& t = ctx->metrics().tasks;
  result->shuffle_read_ms = t.shuffle_read_ms;
  result->shuffle_write_ms = t.shuffle_write_ms;
  result->ser_ms = t.ser_ms;
  result->deser_ms = t.deser_ms;
  result->spill_ms = t.spill_ms;
  result->compute_ms = t.compute_ms();
  result->slowest_task = ctx->metrics().slowest_task;
  result->task_retries = ctx->metrics().task_retries;
  result->injected_faults = ctx->metrics().injected_faults;
  result->executor_wipes = ctx->metrics().executor_wipes;
  result->recomputed_blocks = ctx->metrics().recomputed_blocks;
  result->pressure_evictions = ctx->TotalPressureEvictions();
  result->oom_recoveries = ctx->TotalOomRecoveries();
  result->denied_reservations = ctx->TotalDeniedReservations();
  result->executor_memory = ctx->ExecutorMemorySnapshots();
  result->tier_active = ctx->config().t1_enabled();
  result->tier = ctx->TotalTierCounters();
  result->alloc = ctx->TotalAllocStats();
  result->alloc_active = result->alloc.alloc_calls > 0;
  result->pauses = ctx->TotalGcPauses();
  if (ctx->net_stats() != nullptr) {
    result->net_active = true;
    result->net = ctx->net_stats()->Snapshot();
  }
  if (ctx->role() == spark::DistRole::kDriver) {
    result->dist_active = true;
    result->cluster = ctx->cluster_counters();
  }
  result->trace = ctx->TakeTraceLog();
}

}  // namespace deca::workloads
