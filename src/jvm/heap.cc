#include "jvm/heap.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <unordered_set>

#include "alloc/arena.h"
#include "jvm/g1_collector.h"
#include "jvm/gen_collector.h"
#include "jvm/incremental_mark.h"
#include "obs/trace.h"

namespace deca::jvm {

namespace {
// Allocation bytes between incremental-mark ticks while a cycle is active:
// small enough that a cycle makes steady progress under allocation
// pressure, large enough that the tick check stays off the fast path's
// critical cost (one add + compare per allocation).
constexpr uint32_t kIncrementalTickBytes = 64u << 10;
}  // namespace

const char* GcAlgorithmName(GcAlgorithm a) {
  switch (a) {
    case GcAlgorithm::kParallelScavenge:
      return "PS";
    case GcAlgorithm::kConcurrentMarkSweep:
      return "CMS";
    case GcAlgorithm::kG1:
      return "G1";
  }
  return "?";
}

Heap::Heap(const HeapConfig& config, ClassRegistry* registry)
    : config_(config), registry_(registry) {
  DECA_CHECK(registry != nullptr);
  // Reserve two leading words so ObjRef 0 and 1 are never valid objects,
  // plus one trailing word of guard slack.
  buffer_bytes_ = config.heap_bytes + 4 * kWordSize;
  buffer_ = std::make_unique<uint8_t[]>(buffer_bytes_);
  base_ = buffer_.get();
  if (config_.alloc_counter != nullptr) {
    config_.alloc_counter->CountAlloc(buffer_bytes_);
  }
  DECA_CHECK_EQ(reinterpret_cast<uintptr_t>(base_) % alignof(uint64_t), 0u);
  collector_ = MakeCollector();
}

Heap::~Heap() {
  if (config_.alloc_counter != nullptr) config_.alloc_counter->CountFree();
}

std::unique_ptr<Collector> Heap::MakeCollector() {
  switch (config_.algorithm) {
    case GcAlgorithm::kParallelScavenge:
      return std::make_unique<PsCollector>(this, config_);
    case GcAlgorithm::kConcurrentMarkSweep:
      return std::make_unique<CmsCollector>(this, config_);
    case GcAlgorithm::kG1:
      return std::make_unique<G1Collector>(this, config_);
  }
  DECA_LOG(Fatal) << "unknown GC algorithm";
  return nullptr;
}

void Heap::Reset() {
  AssertMutator();
  // An in-flight incremental mark cycle dies with the process: drop the
  // registration before the collector (which owns the marker) is torn
  // down.
  if (active_marker_ != nullptr) active_marker_->Abandon();
  active_marker_ = nullptr;
  tick_bytes_ = 0;
  collector_.reset();
  // Zero the buffer so a replayed allocation history observes exactly the
  // bytes a freshly constructed heap would (make_unique value-initializes).
  std::memset(base_, 0, buffer_bytes_);
  collector_ = MakeCollector();
  stats_ = GcStats();
  pause_hist_ = Histogram();
  slice_hist_ = Histogram();
  gc_epoch_ = 0;
  handle_slots_.clear();
  handle_top_ = 0;
  forced_alloc_failures_ = 0;
}

void Heap::SetMemoryManager(memory::ExecutorMemoryManager* mm) {
  mm_ = mm;
  if (mm_ != nullptr) mm_->RegisterHeapCapacity(capacity_bytes());
}

std::string Heap::DumpState() const {
  std::ostringstream os;
  os << collector_->name() << " heap: used " << used_bytes() << "/"
     << capacity_bytes() << " bytes (old gen " << old_used_bytes()
     << "), minor GCs " << stats_.minor_count << ", full GCs "
     << stats_.full_count << ", allocated " << stats_.bytes_allocated
     << " bytes / " << stats_.objects_allocated << " objects, promoted "
     << stats_.objects_promoted << ", oom recoveries "
     << stats_.oom_recoveries << "; " << collector_->DebugString();
  return os.str();
}

void Heap::SatbLogOverwrite(ObjRef old_value) {
  if (old_value != kNullRef) active_marker_->OnRefOverwrite(old_value);
}

void Heap::MarkerOnAllocate(ObjRef r) { active_marker_->OnAllocate(r); }

void Heap::MaybeIncrementalTick(uint32_t bytes) {
  tick_bytes_ += bytes;
  if (tick_bytes_ < kIncrementalTickBytes) return;
  tick_bytes_ = 0;
  collector_->IncrementalMarkTick();
}

void Heap::RecordMarkSlice(double ms, bool standalone) {
  stats_.mark_slices += 1;
  slice_hist_.Add(ms);
  if (standalone) {
    stats_.full_pause_ms += ms;
    pause_hist_.Add(ms);
  }
  if (auto* rec = obs::Current()) {
    rec->CompleteSpanMs(obs::Cat::kGc, "mark_slice", ms,
                        static_cast<double>(stats_.mark_slices),
                        standalone ? 1.0 : 0.0);
  }
}

ObjRef Heap::AllocateImpl(uint32_t class_id, uint32_t length,
                          bool die_on_oom) {
  AssertMutator();
  const ClassInfo& ci = registry_->Get(class_id);
  uint32_t total = ci.ObjectBytes(length);
  // Advance an active incremental mark cycle before touching the
  // allocator: a tick may complete the cycle, whose consuming collection
  // (sweep or evacuation) must never run while a just-allocated object is
  // held as a raw ref.
  if (active_marker_ != nullptr) MaybeIncrementalTick(total);
  bool large = total >= config_.large_object_bytes;
  bool forced = false;
  uint8_t* p = nullptr;
  if (forced_alloc_failures_ > 0) {
    // Injected failure: surfaces directly, bypassing the degradation
    // ladder, so a retried attempt replays an unperturbed heap history
    // (no extra collections, no evictions).
    --forced_alloc_failures_;
    forced = true;
  } else {
    p = collector_->AllocateRaw(total, large);
  }
  if (p == nullptr && !forced && oom_handler_ && !in_oom_handler_) {
    // Graceful degradation: let the owner shed externally pinned memory
    // (cache eviction under pressure), then run one full collection to
    // reclaim the unpinned objects and retry the allocation once.
    obs::Instant(obs::Cat::kGc, "oom_degrade", static_cast<double>(total));
    in_oom_handler_ = true;
    bool shed = oom_handler_(total);
    in_oom_handler_ = false;
    if (shed) {
      collector_->CollectFull();
      p = collector_->AllocateRaw(total, large);
      if (p != nullptr) {
        ++stats_.oom_recoveries;
        obs::Instant(obs::Cat::kGc, "oom_recovered",
                     static_cast<double>(total));
      }
    }
  }
  if (p == nullptr) {
    if (die_on_oom) {
      std::string dump = DumpState();
      if (oom_throws_) {
        throw OutOfMemoryError(total, ci.name(), std::move(dump), forced);
      }
      DECA_LOG(Fatal) << "managed heap OOM allocating " << total
                      << " bytes of " << ci.name() << "; " << dump;
    }
    return kNullRef;
  }
  std::memset(p, 0, total);
  ObjRef r = RefOf(p);
  MetaOf(r) = class_id | (collector_->TakeAllocSlack() ? kSlack8Bit : 0);
  LengthOf(r) = length;
  // The tick above may have completed the cycle, so re-check before
  // allocating black.
  if (active_marker_ != nullptr) MarkerOnAllocate(r);
  stats_.objects_allocated += 1;
  stats_.bytes_allocated += total;
  return r;
}

ObjRef Heap::AllocateInstance(uint32_t class_id) {
  return AllocateImpl(class_id, 0, /*die_on_oom=*/true);
}

ObjRef Heap::AllocateArray(uint32_t class_id, uint32_t length) {
  return AllocateImpl(class_id, length, /*die_on_oom=*/true);
}

ObjRef Heap::TryAllocateInstance(uint32_t class_id) {
  return AllocateImpl(class_id, 0, /*die_on_oom=*/false);
}

ObjRef Heap::TryAllocateArray(uint32_t class_id, uint32_t length) {
  return AllocateImpl(class_id, length, /*die_on_oom=*/false);
}

void Heap::AddRootProvider(RootProvider* provider) {
  root_providers_.push_back(provider);
}

void Heap::RemoveRootProvider(RootProvider* provider) {
  auto it =
      std::find(root_providers_.begin(), root_providers_.end(), provider);
  DECA_CHECK(it != root_providers_.end());
  root_providers_.erase(it);
}

uint64_t Heap::CountInstances(uint32_t class_id) const {
  uint64_t n = 0;
  ForEachObject([&](ObjRef r) {
    if (ClassIdOf(r) == class_id) ++n;
  });
  return n;
}

std::unordered_map<uint32_t, uint64_t> Heap::CountAllInstances() const {
  std::unordered_map<uint32_t, uint64_t> counts;
  ForEachObject([&](ObjRef r) { counts[ClassIdOf(r)] += 1; });
  return counts;
}

void Heap::Verify() const {
  // Collect all valid object starts, then check that every reachable
  // object's reference slots land on one of them.
  std::unordered_set<ObjRef> starts;
  ForEachObject([&](ObjRef r) {
    DECA_CHECK_LT(ClassIdOf(r), registry_->size());
    starts.insert(r);
  });
  // Reachability pass (non-destructive: uses a local visited set).
  std::unordered_set<ObjRef> visited;
  std::vector<ObjRef> stack;
  auto push = [&](ObjRef r) {
    DECA_CHECK(starts.count(r) != 0)
        << "dangling reference to " << r << " (not an object start)";
    if (visited.insert(r).second) stack.push_back(r);
  };
  // Verify only reads through the root slots, but VisitRoots hands out
  // ObjRef* for the collectors to rewrite, so it cannot be const.
  // NOLINTNEXTLINE(cppcoreguidelines-pro-type-const-cast)
  const_cast<Heap*>(this)->VisitRoots([&](ObjRef* s) { push(*s); });
  while (!stack.empty()) {
    ObjRef r = stack.back();
    stack.pop_back();
    VisitRefSlots(r, [&](ObjRef* s) {
      if (*s != kNullRef) push(*s);
    });
  }
}

size_t MarkAllReachable(Heap* heap, uint64_t epoch, std::vector<ObjRef>* stack,
                        const std::function<void(ObjRef)>& on_mark) {
  stack->clear();
  size_t live_bytes = 0;
  uint64_t count = 0;
  auto try_mark = [&](ObjRef r) {
    uint64_t& gw = heap->GcWordOf(r);
    if (GcIsMarkedIn(gw, epoch)) return;
    gw = GcMakeMark(epoch);
    live_bytes += heap->ObjectBytes(r);
    ++count;
    if (on_mark) on_mark(r);
    stack->push_back(r);
  };
  heap->VisitRoots([&](ObjRef* s) { try_mark(*s); });
  while (!stack->empty()) {
    ObjRef r = stack->back();
    stack->pop_back();
    heap->VisitRefSlots(r, [&](ObjRef* s) {
      if (*s != kNullRef) try_mark(*s);
    });
  }
  heap->mutable_stats().objects_traced += count;
  return live_bytes;
}

}  // namespace deca::jvm
