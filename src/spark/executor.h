#ifndef DECA_SPARK_EXECUTOR_H_
#define DECA_SPARK_EXECUTOR_H_

#include <memory>

#include "alloc/arena.h"
#include "jvm/class_registry.h"
#include "jvm/heap.h"
#include "memory/memory_manager.h"
#include "spark/block_store.h"
#include "spark/config.h"

namespace deca::spark {

/// One simulated executor: a unified memory manager, a managed heap and a
/// cache manager, all charging the same per-executor byte budget. Tasks
/// assigned to this executor allocate from its heap; GC pauses incurred
/// while a task runs are attributed to that task.
class Executor {
 public:
  Executor(int id, const SparkConfig& config, jvm::ClassRegistry* registry);

  int id() const { return id_; }
  jvm::Heap* heap() { return heap_.get(); }
  const jvm::Heap* heap() const { return heap_.get(); }
  CacheManager* cache() { return cache_.get(); }
  const CacheManager* cache() const { return cache_.get(); }
  memory::ExecutorMemoryManager* memory() { return memory_.get(); }
  const memory::ExecutorMemoryManager* memory() const {
    return memory_.get();
  }
  const alloc::AllocCounter& alloc_counter() const { return alloc_counter_; }

  /// Simulated executor crash: drops all cached blocks and resets the
  /// heap to its freshly-constructed state (registered root providers are
  /// kept). Must run on the thread that owns the heap.
  void Wipe();

  /// Accounting identity check (stage barriers, tests): asserts the
  /// manager's view matches the live heap capacity and the summed
  /// footprint of every live page group.
  void VerifyMemoryAccounting();

 private:
  int id_;
  std::unique_ptr<memory::ExecutorMemoryManager> memory_;
  // Declared before the heap/cache so every counted buffer (heap backing,
  // T1 payloads, spill scratch) is freed before its counter.
  alloc::AllocCounter alloc_counter_;
  std::unique_ptr<jvm::Heap> heap_;
  std::unique_ptr<CacheManager> cache_;
};

}  // namespace deca::spark

#endif  // DECA_SPARK_EXECUTOR_H_
