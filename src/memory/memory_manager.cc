#include "memory/memory_manager.h"

#include <algorithm>

#include "obs/trace.h"

namespace deca::memory {

namespace {

/// Every denial is an instant on the denying task's trace lane; the byte
/// amount and pool are deterministic simulation state.
void RecordDenial(Pool pool, uint64_t bytes) {
  obs::Instant(obs::Cat::kMemory, "deny", static_cast<double>(bytes),
               pool == Pool::kExecution ? 0.0 : 1.0);
}

}  // namespace

const char* PoolName(Pool p) {
  switch (p) {
    case Pool::kExecution:
      return "execution";
    case Pool::kStorage:
      return "storage";
  }
  return "?";
}

void MemoryReservation::Release() {
  if (mgr_ != nullptr && bytes_ > 0) {
    mgr_->ReleaseReservation(pool_, bytes_);
  }
  mgr_ = nullptr;
  bytes_ = 0;
}

ExecutorMemoryManager::ExecutorMemoryManager(uint64_t total_bytes,
                                             double storage_fraction)
    : total_(total_bytes),
      floor_(static_cast<uint64_t>(static_cast<double>(total_bytes) *
                                   storage_fraction)) {
  DECA_CHECK_GE(storage_fraction, 0.0);
  DECA_CHECK_LE(storage_fraction, 1.0);
}

uint64_t ExecutorMemoryManager::EvictStorageForOom(uint64_t need_bytes) {
  if (!evictor_) return 0;
  // Stage 1: demote heap blocks into the serialized off-heap tier. That
  // alone unpins managed memory (the data leaves the heap), so the OOM
  // ladder's follow-up collection can already make progress; the ladder
  // calls back in if the retry still fails, and only once nothing is
  // left to demote does stage 2 swap blocks out to disk.
  uint64_t demoted = evictor_(need_bytes, EvictStage::kDemote,
                              /*for_oom=*/true);
  if (demoted > 0) return demoted;
  return evictor_(need_bytes, EvictStage::kSpill, /*for_oom=*/true);
}

bool ExecutorMemoryManager::EnsureExecutionRoom(uint64_t bytes) {
  uint64_t s = storage_used();
  uint64_t committed = exec_used() + s;
  uint64_t free = committed < total_ ? total_ - committed : 0;
  if (bytes <= free) return true;
  // Borrowed storage memory can be reclaimed down to the floor: ask the
  // evictor to shed the shortfall (what the request needs beyond the
  // currently free bytes). A request the floor cannot accommodate fails
  // without evicting anything.
  uint64_t evictable = s > floor_ ? s - floor_ : 0;
  uint64_t shortfall = bytes - free;
  if (shortfall > evictable || !evictor_) return false;
  // Stage 1 (demote) shrinks the pool by the heap-vs-serialized size
  // delta while keeping blocks resident; stage 2 (spill) sheds whatever
  // is still short after compaction. With the off-heap tier disabled the
  // demote call is a no-op and this is the old single-stage path.
  evictor_(shortfall, EvictStage::kDemote, /*for_oom=*/false);
  uint64_t committed_now = exec_used() + storage_used();
  uint64_t free_now = committed_now < total_ ? total_ - committed_now : 0;
  if (bytes > free_now) {
    evictor_(bytes - free_now, EvictStage::kSpill, /*for_oom=*/false);
  }
  uint64_t now = exec_used() + storage_used();
  return now < total_ && bytes <= total_ - now;
}

MemoryReservation ExecutorMemoryManager::TryReserve(Pool pool,
                                                    uint64_t bytes) {
  bool fits = pool == Pool::kExecution
                  ? EnsureExecutionRoom(bytes)
                  : storage_used() + bytes <= storage_limit();
  if (!fits) {
    denied_.fetch_add(1, std::memory_order_relaxed);
    RecordDenial(pool, bytes);
    return {};
  }
  AddUsed(pool, bytes, /*reserved=*/true);
  return MemoryReservation(this, pool, bytes);
}

MemoryReservation ExecutorMemoryManager::Reserve(Pool pool, uint64_t bytes) {
  bool fits = pool == Pool::kExecution
                  ? EnsureExecutionRoom(bytes)
                  : storage_used() + bytes <= storage_limit();
  if (!fits) {
    denied_.fetch_add(1, std::memory_order_relaxed);
    RecordDenial(pool, bytes);
  }
  AddUsed(pool, bytes, /*reserved=*/true);
  return MemoryReservation(this, pool, bytes);
}

bool ExecutorMemoryManager::TryExecutionRoom(uint64_t bytes) {
  if (EnsureExecutionRoom(bytes)) return true;
  denied_.fetch_add(1, std::memory_order_relaxed);
  RecordDenial(Pool::kExecution, bytes);
  return false;
}

void ExecutorMemoryManager::ChargePages(Pool pool, uint64_t bytes) {
  if (pool == Pool::kExecution && !EnsureExecutionRoom(bytes)) {
    denied_.fetch_add(1, std::memory_order_relaxed);
    RecordDenial(pool, bytes);
  }
  AddUsed(pool, bytes, /*reserved=*/false);
}

void ExecutorMemoryManager::UnchargePages(Pool pool, uint64_t bytes) {
  SubUsed(pool, bytes, /*reserved=*/false);
}

void ExecutorMemoryManager::TransferPages(Pool from, Pool to,
                                          uint64_t bytes) {
  if (from == to || bytes == 0) return;
  SubUsed(from, bytes, /*reserved=*/false);
  AddUsed(to, bytes, /*reserved=*/false);
}

void ExecutorMemoryManager::RegisterPageSource(
    const PageFootprintSource* source) {
  sources_.push_back(source);
}

void ExecutorMemoryManager::UnregisterPageSource(
    const PageFootprintSource* source) {
  auto it = std::find(sources_.begin(), sources_.end(), source);
  DECA_CHECK(it != sources_.end());
  sources_.erase(it);
}

void ExecutorMemoryManager::AddUsed(Pool pool, uint64_t bytes,
                                    bool reserved) {
  std::atomic<uint64_t>& counter =
      pool == Pool::kExecution
          ? (reserved ? exec_reserved_ : exec_pages_)
          : (reserved ? storage_reserved_ : storage_pages_);
  counter.fetch_add(bytes, std::memory_order_relaxed);
  UpdatePeaks();
}

void ExecutorMemoryManager::SubUsed(Pool pool, uint64_t bytes,
                                    bool reserved) {
  std::atomic<uint64_t>& counter =
      pool == Pool::kExecution
          ? (reserved ? exec_reserved_ : exec_pages_)
          : (reserved ? storage_reserved_ : storage_pages_);
  DECA_CHECK_GE(counter.load(std::memory_order_relaxed), bytes)
      << "uncharging more " << PoolName(pool) << " bytes than charged";
  counter.fetch_sub(bytes, std::memory_order_relaxed);
}

void ExecutorMemoryManager::UpdatePeaks() {
  uint64_t e = exec_used();
  uint64_t s = storage_used();
  if (e > exec_peak_.load(std::memory_order_relaxed)) {
    exec_peak_.store(e, std::memory_order_relaxed);
  }
  if (s > storage_peak_.load(std::memory_order_relaxed)) {
    storage_peak_.store(s, std::memory_order_relaxed);
  }
  // Bytes currently held across the pool split: execution reaching into
  // the storage region plus storage reaching into the execution region.
  uint64_t exec_region = total_ - floor_;
  uint64_t borrowed =
      (e > exec_region ? e - exec_region : 0) + (s > floor_ ? s - floor_ : 0);
  if (borrowed > borrowed_peak_.load(std::memory_order_relaxed)) {
    borrowed_peak_.store(borrowed, std::memory_order_relaxed);
  }
}

MemoryStats ExecutorMemoryManager::Snapshot() const {
  MemoryStats s;
  s.total_bytes = total_;
  s.storage_floor_bytes = floor_;
  s.exec_used = exec_used();
  s.exec_peak = exec_peak();
  s.storage_used = storage_used();
  s.storage_peak = storage_peak();
  s.borrowed_peak = borrowed_peak();
  s.denied_reservations = denied_reservations();
  s.page_bytes = page_bytes();
  s.heap_capacity = heap_capacity_.load(std::memory_order_relaxed);
  return s;
}

void ExecutorMemoryManager::VerifyAccounting(
    uint64_t heap_capacity_bytes) const {
  DECA_CHECK_EQ(heap_capacity_.load(std::memory_order_relaxed),
                heap_capacity_bytes)
      << "registered heap capacity diverged from the live heap";
  uint64_t summed = 0;
  for (const auto* s : sources_) summed += s->footprint_bytes();
  DECA_CHECK_EQ(page_bytes(), summed)
      << "incremental page charges diverged from live page-group footprints";
  DECA_CHECK_GE(exec_peak(), exec_used());
  DECA_CHECK_GE(storage_peak(), storage_used());
}

}  // namespace deca::memory
