#include "spark/executor.h"

namespace deca::spark {

Executor::Executor(int id, const SparkConfig& config,
                   jvm::ClassRegistry* registry)
    : id_(id) {
  // The memory manager is built first: the heap registers its capacity
  // with it, and every page group / cache block charges it from then on.
  memory_ = std::make_unique<memory::ExecutorMemoryManager>(
      config.executor_memory(), config.storage_fraction);
  jvm::HeapConfig heap_config = config.heap;
  heap_config.alloc_counter = &alloc_counter_;
  heap_ = std::make_unique<jvm::Heap>(heap_config, registry);
  heap_->SetMemoryManager(memory_.get());
  cache_ = std::make_unique<CacheManager>(heap_.get(), &config, id);
  // Storage eviction is the manager's lever: execution-pool borrowing
  // sheds blocks down to the storage floor; the heap's OOM ladder digs
  // without floor protection (and counts as a pressure eviction). Both
  // run the two-stage ladder: demote T0 heap blocks into the serialized
  // off-heap tier first (a no-op with storage_tiers=2), spill to disk
  // for whatever demotion could not shed.
  memory_->SetStorageEvictor(
      [this](uint64_t need, memory::ExecutorMemoryManager::EvictStage stage,
             bool for_oom) {
        if (stage == memory::ExecutorMemoryManager::EvictStage::kDemote) {
          return cache_->DemoteUnderPressure(need, for_oom);
        }
        return for_oom ? cache_->EvictUnderPressure(need)
                       : cache_->EvictForExecution(need);
      });
  // OOM degradation: a failed allocation asks the manager for relief
  // (which evicts cached blocks to disk), then surfaces as a retryable
  // exception instead of aborting the process.
  heap_->set_oom_throws(true);
  heap_->SetOomHandler(
      [this](size_t need) { return memory_->EvictStorageForOom(need) > 0; });
}

void Executor::Wipe() {
  // Simulated crash: the cache (memory + swap files) and the entire heap
  // are lost. Root providers other than the cache survive (the driver
  // re-materializes their contents from lineage). Dropping the blocks
  // releases their reservations and page charges back to the pools.
  cache_->DropAllForWipe();
  heap_->Reset();
}

void Executor::VerifyMemoryAccounting() {
  heap_->ReportOccupancyNow();
  memory_->VerifyAccounting(heap_->capacity_bytes());
  cache_->VerifyAccounting();
}

}  // namespace deca::spark
