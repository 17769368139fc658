#ifndef DECA_JVM_HEAP_H_
#define DECA_JVM_HEAP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "jvm/class_registry.h"
#include "jvm/collector.h"
#include "jvm/gc_stats.h"
#include "jvm/heap_config.h"
#include "jvm/object_model.h"
#include "memory/memory_manager.h"

namespace deca::jvm {

class AllocationSiteProfiler;
class Heap;
class IncrementalMarker;

/// Thrown (instead of aborting) when a heap with `oom_throws` enabled
/// cannot satisfy an allocation even after its degradation ladder. The
/// engine's task-retry layer converts it into a retryable TaskOomFailure.
class OutOfMemoryError : public std::runtime_error {
 public:
  OutOfMemoryError(uint32_t bytes_requested, const std::string& class_name,
                   std::string heap_dump, bool injected)
      : std::runtime_error("managed heap OOM allocating " +
                           std::to_string(bytes_requested) + " bytes of " +
                           class_name + (injected ? " (injected)" : "")),
        bytes_requested_(bytes_requested),
        injected_(injected),
        heap_dump_(std::move(heap_dump)) {}

  uint32_t bytes_requested() const { return bytes_requested_; }
  /// True when the failure was forced by fault injection rather than a
  /// genuinely exhausted heap.
  bool injected() const { return injected_; }
  /// Collector state dump captured at the failure point.
  const std::string& heap_dump() const { return heap_dump_; }

 private:
  uint32_t bytes_requested_;
  bool injected_;
  std::string heap_dump_;
};

/// Supplies additional GC roots (e.g. a cache manager's block references).
/// Providers are visited at every collection; they must call `fn` with the
/// address of every live reference slot they own so moving collectors can
/// update it in place.
class RootProvider {
 public:
  virtual ~RootProvider() = default;
  virtual void VisitRoots(const std::function<void(ObjRef*)>& fn) = 0;
};

/// A RootProvider backed by a plain vector of references. Containers that
/// pin managed objects (cache blocks, page groups) embed one of these.
class VectorRootProvider : public RootProvider {
 public:
  void VisitRoots(const std::function<void(ObjRef*)>& fn) override {
    for (auto& r : refs_) {
      if (r != kNullRef) fn(&r);
    }
  }
  std::vector<ObjRef>& refs() { return refs_; }
  const std::vector<ObjRef>& refs() const { return refs_; }

 private:
  std::vector<ObjRef> refs_;
};

/// A GC-safe reference to a managed object. The referenced slot lives in
/// the heap's handle stack and is updated by moving collectors; the Handle
/// itself is a trivially copyable (heap, slot index) pair. Handles are only
/// valid while their enclosing HandleScope is alive.
class Handle {
 public:
  Handle() : heap_(nullptr), index_(0) {}
  Handle(Heap* heap, uint32_t index) : heap_(heap), index_(index) {}

  inline ObjRef get() const;
  inline void set(ObjRef value);
  inline ObjRef operator*() const;
  bool valid() const { return heap_ != nullptr; }

 private:
  Heap* heap_;
  uint32_t index_;
};

/// One simulated JVM heap (one executor). Single-mutator: allocation,
/// field access, and collections all happen on the owning thread. The
/// owner is the constructing thread until the execution runtime
/// (src/exec) hands the heap to an executor thread for a stage and
/// returns it to the driver at the stage barrier (SetMutatorThread).
/// Debug builds assert the invariant on every allocation, field access
/// and collection so a cross-thread touch fails fast instead of
/// corrupting the simulation.
///
/// Usage discipline (mirrors JNI local references): any raw ObjRef held in
/// a C++ local across a potential allocation must be wrapped in a Handle
/// inside an active HandleScope, because every allocation may trigger a
/// moving collection.
class Heap {
 public:
  Heap(const HeapConfig& config, ClassRegistry* registry);
  ~Heap();

  Heap(const Heap&) = delete;
  Heap& operator=(const Heap&) = delete;

  // -- Allocation ---------------------------------------------------------

  /// Allocates an instance of `class_id` with zeroed payload; aborts on OOM.
  ObjRef AllocateInstance(uint32_t class_id);
  /// Allocates an array with zeroed elements; aborts on OOM.
  ObjRef AllocateArray(uint32_t class_id, uint32_t length);
  /// Like the above but returns kNullRef instead of aborting on OOM.
  ObjRef TryAllocateInstance(uint32_t class_id);
  ObjRef TryAllocateArray(uint32_t class_id, uint32_t length);

  // -- Object access ------------------------------------------------------

  uint8_t* Addr(ObjRef ref) const {
    DECA_DCHECK(ref != kNullRef);
    return base_ + static_cast<uint64_t>(ref) * kWordSize;
  }
  ObjRef RefOf(const uint8_t* p) const {
    return static_cast<ObjRef>((p - base_) / kWordSize);
  }

  uint32_t& MetaOf(ObjRef ref) const {
    return *reinterpret_cast<uint32_t*>(Addr(ref));
  }
  uint32_t& LengthOf(ObjRef ref) const {
    return *reinterpret_cast<uint32_t*>(Addr(ref) + 4);
  }
  uint64_t& GcWordOf(ObjRef ref) const {
    return *reinterpret_cast<uint64_t*>(Addr(ref) + 8);
  }
  uint32_t ClassIdOf(ObjRef ref) const { return MetaClassId(MetaOf(ref)); }
  const ClassInfo& ClassOf(ObjRef ref) const {
    return registry_->Get(ClassIdOf(ref));
  }
  uint32_t ArrayLength(ObjRef ref) const { return LengthOf(ref); }

  /// Object size in bytes (header included).
  uint32_t ObjectBytes(ObjRef ref) const {
    return ClassOf(ref).ObjectBytes(LengthOf(ref));
  }
  /// Size used for address-order heap walking: object size plus any
  /// allocator slack recorded in the header.
  uint32_t WalkBytes(ObjRef ref) const {
    return ObjectBytes(ref) + ((MetaOf(ref) & kSlack8Bit) != 0 ? 8 : 0);
  }

  template <typename T>
  T GetField(ObjRef obj, uint32_t offset) const {
    AssertMutator();
    DECA_DCHECK_LE(offset + sizeof(T), ClassOf(obj).payload_bytes());
    return LoadRaw<T>(Addr(obj) + kHeaderBytes + offset);
  }
  template <typename T>
  void SetField(ObjRef obj, uint32_t offset, T value) {
    AssertMutator();
    DECA_DCHECK_LE(offset + sizeof(T), ClassOf(obj).payload_bytes());
    StoreRaw(Addr(obj) + kHeaderBytes + offset, value);
  }

  ObjRef GetRefField(ObjRef obj, uint32_t offset) const {
    AssertMutator();
    DECA_DCHECK_LE(offset + sizeof(ObjRef), ClassOf(obj).payload_bytes());
    return LoadRaw<ObjRef>(Addr(obj) + kHeaderBytes + offset);
  }
  void SetRefField(ObjRef obj, uint32_t offset, ObjRef value) {
    AssertMutator();
    DECA_DCHECK_LE(offset + sizeof(ObjRef), ClassOf(obj).payload_bytes());
    uint8_t* slot = Addr(obj) + kHeaderBytes + offset;
    if (active_marker_ != nullptr) SatbLogOverwrite(LoadRaw<ObjRef>(slot));
    StoreRaw(slot, value);
    if (value != kNullRef) collector_->WriteBarrier(obj, value);
  }

  template <typename T>
  T GetElem(ObjRef arr, uint32_t i) const {
    AssertMutator();
    DECA_DCHECK(i < LengthOf(arr));
    return LoadRaw<T>(Addr(arr) + kHeaderBytes + i * sizeof(T));
  }
  template <typename T>
  void SetElem(ObjRef arr, uint32_t i, T value) {
    AssertMutator();
    DECA_DCHECK(i < LengthOf(arr));
    StoreRaw(Addr(arr) + kHeaderBytes + i * sizeof(T), value);
  }
  ObjRef GetRefElem(ObjRef arr, uint32_t i) const {
    return GetElem<ObjRef>(arr, i);
  }
  void SetRefElem(ObjRef arr, uint32_t i, ObjRef value) {
    if (active_marker_ != nullptr) SatbLogOverwrite(GetElem<ObjRef>(arr, i));
    SetElem<ObjRef>(arr, i, value);
    if (value != kNullRef) collector_->WriteBarrier(arr, value);
  }

  /// Raw payload pointer of an array (valid until the next allocation).
  uint8_t* ArrayData(ObjRef arr) const { return Addr(arr) + kHeaderBytes; }

  // -- Handles & roots ----------------------------------------------------

  /// Pushes a new handle slot holding `ref`; released by the enclosing
  /// HandleScope.
  Handle NewHandle(ObjRef ref) {
    AssertMutator();
    if (handle_top_ == handle_slots_.size()) {
      handle_slots_.push_back(ref);
    } else {
      handle_slots_[handle_top_] = ref;
    }
    return Handle(this, static_cast<uint32_t>(handle_top_++));
  }

  void AddRootProvider(RootProvider* provider);
  void RemoveRootProvider(RootProvider* provider);

  /// Calls `fn` for every non-null root slot (handles + providers).
  template <typename F>
  void VisitRoots(F&& fn) {
    for (size_t i = 0; i < handle_top_; ++i) {
      if (handle_slots_[i] != kNullRef) fn(&handle_slots_[i]);
    }
    std::function<void(ObjRef*)> wrapped = [&fn](ObjRef* slot) {
      if (*slot != kNullRef) fn(slot);
    };
    for (auto* p : root_providers_) p->VisitRoots(wrapped);
  }

  /// Calls `fn(ObjRef* slot)` for every reference slot inside `obj`.
  template <typename F>
  void VisitRefSlots(ObjRef obj, F&& fn) const {
    const ClassInfo& ci = ClassOf(obj);
    uint8_t* payload = Addr(obj) + kHeaderBytes;
    if (ci.is_array()) {
      if (ci.elem_kind() == FieldKind::kRef) {
        uint32_t n = LengthOf(obj);
        ObjRef* elems = reinterpret_cast<ObjRef*>(payload);
        for (uint32_t i = 0; i < n; ++i) fn(&elems[i]);
      }
    } else {
      for (uint32_t off : ci.ref_offsets()) {
        fn(reinterpret_cast<ObjRef*>(payload + off));
      }
    }
  }

  // -- Collection & introspection ------------------------------------------

  void CollectMinor() {
    AssertMutator();
    collector_->CollectMinor();
    MaybeReportOccupancy();
  }
  void CollectFull() {
    AssertMutator();
    collector_->CollectFull();
    MaybeReportOccupancy();
  }

  const GcStats& stats() const { return stats_; }
  GcStats& mutable_stats() { return stats_; }

  // -- Pause accounting -----------------------------------------------------

  /// Records one mutator-visible stop-the-world pause sample. Collectors
  /// call this for every minor/full/mixed pause and for standalone mark
  /// slices, so percentiles exist at any pause budget.
  void RecordPauseMs(double ms) { pause_hist_.Add(ms); }

  /// Records one executed mark slice: bumps the exact slice counter, adds
  /// the duration to the slice histogram, and emits a "mark_slice" trace
  /// span. `standalone` marks a mutator-visible pause (a slice run between
  /// mutator work, not inside an enclosing collection pause): it is also
  /// charged to full_pause_ms and the pause histogram.
  void RecordMarkSlice(double ms, bool standalone);

  /// Every stop-the-world pause (one sample per pause event).
  const Histogram& pause_hist() const { return pause_hist_; }
  /// Mark-slice durations (monolithic marks count as one slice).
  const Histogram& mark_slice_hist() const { return slice_hist_; }

  // -- Incremental marking --------------------------------------------------

  /// Registered by IncrementalMarker::Begin; while non-null the ref-store
  /// paths SATB-log overwritten values and new objects allocate black.
  void set_active_marker(IncrementalMarker* m) { active_marker_ = m; }
  IncrementalMarker* active_marker() const { return active_marker_; }

  // -- Allocation profiling -------------------------------------------------

  /// Attaches (or detaches, with nullptr) a sampling allocation profiler.
  /// Not owned; the caller must detach it before destroying it.
  void SetAllocProfiler(AllocationSiteProfiler* p) { alloc_profiler_ = p; }
  AllocationSiteProfiler* alloc_profiler() const { return alloc_profiler_; }

  // -- OOM policy & fault tolerance ----------------------------------------

  /// Last-resort memory-pressure valve, invoked on the mutator thread when
  /// a collection cannot satisfy an allocation. `need_bytes` is the failed
  /// request; the handler sheds external pinned memory (e.g. evicts cached
  /// blocks to disk) and returns true if it freed anything — the heap then
  /// runs one full collection and retries the allocation once. The handler
  /// must not allocate from this heap.
  using OomHandler = std::function<bool(size_t need_bytes)>;
  void SetOomHandler(OomHandler handler) { oom_handler_ = std::move(handler); }

  /// When enabled, an unrecovered OOM on the aborting allocation path
  /// throws OutOfMemoryError instead of terminating the process. The
  /// engine enables this on executor heaps so the task-retry layer can
  /// degrade gracefully; standalone heaps keep the fail-fast abort.
  void set_oom_throws(bool value) { oom_throws_ = value; }
  bool oom_throws() const { return oom_throws_; }

  /// Arms `n` forced allocation failures (fault injection): each of the
  /// next `n` allocations fails immediately, bypassing the degradation
  /// ladder so the heap state is not perturbed. Pass 0 to disarm.
  void ForceAllocationFailures(uint32_t n) {
    AssertMutator();
    forced_alloc_failures_ = n;
  }

  /// Wipes the heap back to its just-constructed state: all objects and
  /// handles are gone, the collector is rebuilt, stats and GC epochs
  /// restart from zero. Simulates replacing a crashed executor process.
  /// Root providers stay registered — callers must have dropped their
  /// stale references first (wipe listeners), exactly as a replacement
  /// process starts with empty containers.
  void Reset();

  /// Multi-line diagnostics dump (occupancy, GC counters, collector
  /// internals) for OOM post-mortems.
  std::string DumpState() const;

  // -- Memory accounting ---------------------------------------------------

  /// Attaches the executor's unified memory manager: the heap registers
  /// its committed capacity immediately and reports live/old occupancy to
  /// it after every collection. Page groups on this heap pick the manager
  /// up from here to charge their footprint.
  void SetMemoryManager(memory::ExecutorMemoryManager* mm);
  memory::ExecutorMemoryManager* memory_manager() const { return mm_; }

  /// Pushes the current occupancy to the manager unconditionally (stage
  /// barriers sync accounting before verification).
  void ReportOccupancyNow();

  ClassRegistry* registry() const { return registry_; }
  const HeapConfig& config() const { return config_; }
  Collector* collector() const { return collector_.get(); }

  size_t used_bytes() const { return collector_->used_bytes(); }
  size_t old_used_bytes() const { return collector_->old_used_bytes(); }
  size_t capacity_bytes() const { return collector_->capacity_bytes(); }

  /// Walks every allocated object (see Collector::ForEachObject).
  void ForEachObject(const std::function<void(ObjRef)>& fn) const {
    collector_->ForEachObject(fn);
  }

  /// Counts allocated instances of one class (heap-profiler style).
  uint64_t CountInstances(uint32_t class_id) const;

  /// Counts allocated instances per class id.
  std::unordered_map<uint32_t, uint64_t> CountAllInstances() const;

  /// Consistency check: every object has a valid class and every reference
  /// slot points to an object start (or is null). Aborts on violation.
  /// O(heap); intended for tests.
  void Verify() const;

  // -- Thread ownership ----------------------------------------------------

  /// Hands the heap to a new mutator thread. Called by the execution
  /// runtime when a stage starts (driver -> executor thread) and at the
  /// stage barrier (executor thread -> driver); callers must guarantee
  /// the previous mutator is quiescent.
  void SetMutatorThread(std::thread::id id) {
    mutator_.store(id, std::memory_order_release);
  }
  std::thread::id mutator_thread() const {
    return mutator_.load(std::memory_order_acquire);
  }

  /// Debug-mode single-mutator check: allocation, field access and
  /// collection must happen on the owning thread. No-op under NDEBUG.
  void AssertMutator() const {
#ifndef NDEBUG
    DECA_CHECK(mutator_.load(std::memory_order_relaxed) ==
               std::this_thread::get_id())
        << "heap touched off its mutator thread";
#endif
  }

  // -- Collector-internal facilities ---------------------------------------

  uint8_t* base() const { return base_; }
  size_t buffer_bytes() const { return buffer_bytes_; }
  /// The executor's native-buffer counter (null for standalone heaps).
  /// Spill and tier paths charge their staging buffers to it.
  alloc::AllocCounter* alloc_counter() const { return config_.alloc_counter; }
  /// Advances and returns the mark epoch for a new collection cycle.
  uint64_t NextGcEpoch() { return ++gc_epoch_; }
  uint64_t gc_epoch() const { return gc_epoch_; }
  size_t handle_top() const { return handle_top_; }

 private:
  friend class HandleScope;
  friend class Handle;

  ObjRef AllocateImpl(uint32_t class_id, uint32_t length, bool die_on_oom);
  std::unique_ptr<Collector> MakeCollector();

  /// Out-of-line marker/profiler hooks (keep heap.h free of their
  /// definitions; the null checks stay inline at the call sites).
  void SatbLogOverwrite(ObjRef old_value);
  void MarkerOnAllocate(ObjRef r);
  void ProfilerOnAllocate(ObjRef r, uint32_t bytes);
  void MaybeIncrementalTick(uint32_t bytes);

  /// Reports occupancy to the memory manager when a collection has run
  /// since the last report (one counter compare on the allocation path).
  void MaybeReportOccupancy() {
    if (mm_ != nullptr &&
        stats_.minor_count + stats_.full_count != last_reported_gc_) {
      ReportOccupancyNow();
    }
  }

  HeapConfig config_;
  ClassRegistry* registry_;
  std::unique_ptr<uint8_t[]> buffer_;
  uint8_t* base_ = nullptr;
  size_t buffer_bytes_ = 0;
  std::unique_ptr<Collector> collector_;
  GcStats stats_;
  uint64_t gc_epoch_ = 0;
  Histogram pause_hist_;
  Histogram slice_hist_;
  IncrementalMarker* active_marker_ = nullptr;  // owned by the collector
  AllocationSiteProfiler* alloc_profiler_ = nullptr;  // externally owned
  uint32_t tick_bytes_ = 0;  // allocated bytes since the last mark tick

  std::vector<ObjRef> handle_slots_;
  size_t handle_top_ = 0;
  std::vector<RootProvider*> root_providers_;
  std::atomic<std::thread::id> mutator_{std::this_thread::get_id()};

  OomHandler oom_handler_;
  bool oom_throws_ = false;
  bool in_oom_handler_ = false;
  uint32_t forced_alloc_failures_ = 0;

  memory::ExecutorMemoryManager* mm_ = nullptr;
  uint64_t last_reported_gc_ = 0;  // minor+full count at the last report
};

/// RAII scope for handles: releases every handle created after its
/// construction. Scopes must nest properly.
class HandleScope {
 public:
  explicit HandleScope(Heap* heap) : heap_(heap), mark_(heap->handle_top_) {}
  ~HandleScope() { heap_->handle_top_ = mark_; }

  HandleScope(const HandleScope&) = delete;
  HandleScope& operator=(const HandleScope&) = delete;

  /// Creates a handle in this scope (delegates to the heap).
  Handle Make(ObjRef ref) { return heap_->NewHandle(ref); }

 private:
  Heap* heap_;
  size_t mark_;
};

inline ObjRef Handle::get() const { return heap_->handle_slots_[index_]; }
inline void Handle::set(ObjRef value) { heap_->handle_slots_[index_] = value; }
inline ObjRef Handle::operator*() const { return get(); }

/// Marks every object reachable from the heap's roots with `epoch` and
/// returns the total live bytes. `stack` is caller-provided scratch.
/// `on_mark` (optional) is invoked once per newly marked object — G1 uses
/// it to attribute live bytes to regions.
size_t MarkAllReachable(Heap* heap, uint64_t epoch, std::vector<ObjRef>* stack,
                        const std::function<void(ObjRef)>& on_mark = nullptr);

}  // namespace deca::jvm

#endif  // DECA_JVM_HEAP_H_
