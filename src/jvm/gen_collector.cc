#include "jvm/gen_collector.h"

#include <algorithm>
#include <cstring>

#include "common/clock.h"
#include "common/logging.h"
#include "jvm/heap.h"
#include "obs/trace.h"

namespace deca::jvm {

namespace {
// Collections are attempted at most this many times per allocation before
// the request is reported as OOM.
constexpr int kMaxAllocAttempts = 3;
}  // namespace

GenCollectorBase::GenCollectorBase(Heap* heap, const HeapConfig& config)
    : heap_(heap), cfg_(config), marker_(heap) {
  uint8_t* start = heap->base() + 2 * kWordSize;  // word 0/1 reserved (null)
  size_t usable = config.heap_bytes;
  size_t young = AlignUp(static_cast<size_t>(
                             static_cast<double>(usable) *
                             kYoungFraction),
                         kWordSize);
  size_t survivor = AlignUp(static_cast<size_t>(static_cast<double>(young) *
                                                kSurvivorFraction),
                            kWordSize);
  size_t eden = young - 2 * survivor;
  size_t old = usable - young;
  DECA_CHECK_GT(eden, 4 * kWordSize);
  DECA_CHECK_GT(survivor, 4 * kWordSize);

  old_begin_ = start;
  old_end_ = old_begin_ + old;
  eden_begin_ = old_end_;
  eden_end_ = eden_begin_ + eden;
  sur_begin_[0] = eden_end_;
  sur_end_[0] = sur_begin_[0] + survivor;
  sur_begin_[1] = sur_end_[0];
  sur_end_[1] = sur_begin_[1] + survivor;

  old_top_ = old_begin_;
  eden_alloc_begin_ = eden_begin_;
  eden_top_ = eden_begin_;
  sur_top_[0] = sur_begin_[0];
  sur_top_[1] = sur_begin_[1];
}

uint8_t* GenCollectorBase::AllocateRaw(size_t bytes, bool large) {
  DECA_DCHECK(bytes % kWordSize == 0);
  pending_slack8_ = false;
  if (large) {
    bool slack = false;
    uint8_t* p = AllocateOldRaw(bytes, &slack);
    if (p == nullptr) {
      CollectFull();
      p = AllocateOldRaw(bytes, &slack);
    }
    if (p == nullptr && OnAllocationFailureAfterFull()) {
      p = AllocateOldRaw(bytes, &slack);
    }
    pending_slack8_ = slack;
    return p;
  }
  for (int attempt = 0; attempt <= kMaxAllocAttempts; ++attempt) {
    if (eden_top_ + bytes <= eden_end_) {
      uint8_t* p = eden_top_;
      eden_top_ += bytes;
      return p;
    }
    if (attempt == 0) {
      CollectMinor();
    } else if (attempt == 1) {
      CollectFull();
    } else if (attempt == 2) {
      if (!OnAllocationFailureAfterFull()) break;
    }
  }
  // The object does not fit in eden (or the heap is nearly full): fall back
  // to a direct old-generation allocation.
  bool slack = false;
  uint8_t* p = AllocateOldRaw(bytes, &slack);
  if (p == nullptr && OnAllocationFailureAfterFull()) {
    p = AllocateOldRaw(bytes, &slack);
  }
  pending_slack8_ = slack;
  return p;
}

void GenCollectorBase::WriteBarrier(ObjRef holder, ObjRef value) {
  const uint8_t* hp = heap_->Addr(holder);
  if (InYoungPtr(hp)) return;
  if (!InYoungPtr(heap_->Addr(value))) return;
  uint32_t& meta = heap_->MetaOf(holder);
  if ((meta & kInRemsetBit) != 0) return;
  meta |= kInRemsetBit;
  remset_.push_back(holder);
}

bool GenCollectorBase::IsYoung(ObjRef obj) const {
  return InYoungPtr(heap_->Addr(obj));
}

size_t GenCollectorBase::young_used_bytes() const {
  return static_cast<size_t>(eden_top_ - eden_alloc_begin_) +
         static_cast<size_t>(sur_top_[from_] - sur_begin_[from_]);
}

size_t GenCollectorBase::used_bytes() const {
  return old_used_bytes() + young_used_bytes();
}

size_t GenCollectorBase::capacity_bytes() const {
  return static_cast<size_t>(sur_end_[1] - old_begin_);
}

bool GenCollectorBase::PromotionGuaranteeHolds() const {
  return OldFreeBytes() >= young_used_bytes();
}

void GenCollectorBase::WalkRange(
    uint8_t* begin, uint8_t* top,
    const std::function<void(ObjRef)>& fn) const {
  uint8_t* p = begin;
  while (p < top) {
    ObjRef r = heap_->RefOf(p);
    uint32_t walk = heap_->WalkBytes(r);
    if (heap_->ClassIdOf(r) != 0) fn(r);
    p += walk;
  }
}

void GenCollectorBase::ForEachObject(
    const std::function<void(ObjRef)>& fn) const {
  WalkRange(old_begin_, old_top_, fn);
  WalkRange(eden_alloc_begin_, eden_top_, fn);
  WalkRange(sur_begin_[0], sur_top_[0], fn);
  WalkRange(sur_begin_[1], sur_top_[1], fn);
}

// -- minor collection -------------------------------------------------------

struct GenCollectorBase::EvacuationState {
  int to;
};

void GenCollectorBase::CollectMinor() {
  if (young_used_bytes() == 0) return;
  if (!PromotionGuaranteeHolds()) {
    // Worst-case promotion guarantee failed: a full collection both
    // reclaims the young generation and makes room in the old one. This is
    // exactly the "minor GCs escalate into frequent full GCs" behaviour
    // the paper reports for caching-heavy Spark executors.
    CollectFull();
    return;
  }
  minor_promo_failed_ = false;
  MinorGcImpl();
  if (minor_promo_failed_) {
    minor_promo_failed_ = false;
    CollectFull();
    return;
  }
  PostMinor();
}

void GenCollectorBase::MinorGcImpl() {
  Stopwatch sw;
  GcStats& st = heap_->mutable_stats();
  EvacuationState es{1 - from_};
  sur_top_[es.to] = sur_begin_[es.to];
  worklist_.clear();
  promoted_bytes_cur_minor_ = 0;

  heap_->VisitRoots([&](ObjRef* slot) { EvacuateSlot(slot, &es); });

  std::vector<ObjRef> old_remset;
  old_remset.swap(remset_);
  for (ObjRef o : old_remset) heap_->MetaOf(o) &= ~kInRemsetBit;
  for (ObjRef o : old_remset) ScanObject(o, &es);

  while (!worklist_.empty()) {
    ObjRef o = worklist_.back();
    worklist_.pop_back();
    ScanObject(o, &es);
  }

  if (!minor_promo_failed_) {
    eden_top_ = eden_alloc_begin_;
    sur_top_[from_] = sur_begin_[from_];
    from_ = es.to;
  }
  // On promotion failure the from-space still holds self-forwarded live
  // objects; spaces are left as-is and the caller escalates to a full
  // collection, whose fresh mark epoch invalidates the stale forwards.
  promoted_bytes_last_minor_ = promoted_bytes_cur_minor_;

  st.minor_count += 1;
  double pause_ms = sw.ElapsedMillis();
  st.minor_pause_ms += pause_ms;
  heap_->RecordPauseMs(pause_ms);
  if (auto* rec = obs::Current()) {
    rec->CompleteSpanMs(obs::Cat::kGc, "minor_pause", pause_ms,
                        static_cast<double>(st.minor_count),
                        static_cast<double>(promoted_bytes_last_minor_));
  }
}

void GenCollectorBase::EvacuateSlot(ObjRef* slot, EvacuationState* es) {
  ObjRef r = *slot;
  uint8_t* p = heap_->Addr(r);
  if (!InYoungPtr(p)) return;
  uint64_t gw = heap_->GcWordOf(r);
  if (GcIsForwarded(gw)) {
    *slot = GcForwardRef(gw);
    return;
  }
  GcStats& st = heap_->mutable_stats();
  uint32_t size = heap_->ObjectBytes(r);
  uint32_t meta = heap_->MetaOf(r);
  uint32_t age = MetaAge(meta) + 1;
  uint8_t* dst = nullptr;
  bool promoted = false;
  bool slack8 = false;
  if (age < cfg_.tenure_threshold &&
      sur_top_[es->to] + size <= sur_end_[es->to]) {
    dst = sur_top_[es->to];
    sur_top_[es->to] += size;
  } else {
    dst = AllocateOldRaw(size, &slack8);
    if (dst != nullptr) {
      promoted = true;
    } else if (sur_top_[es->to] + size <= sur_end_[es->to]) {
      // Promotion failed (old-gen fragmentation): keep in survivor.
      dst = sur_top_[es->to];
      sur_top_[es->to] += size;
    } else {
      // Promotion failure: self-forward in place (Hotspot's handling); the
      // caller follows up with a full collection.
      heap_->GcWordOf(r) = GcMakeForward(r, /*keep_mark=*/false);
      minor_promo_failed_ = true;
      *slot = r;
      worklist_.push_back(r);
      st.objects_traced += 1;
      return;
    }
  }
  std::memcpy(dst, p, size);
  ObjRef nr = heap_->RefOf(dst);
  uint32_t nmeta =
      MetaWithAge(meta & ~(kInRemsetBit | kSlack8Bit), promoted ? 0 : age);
  if (slack8) nmeta |= kSlack8Bit;
  heap_->MetaOf(nr) = nmeta;
  heap_->GcWordOf(nr) = 0;
  heap_->GcWordOf(r) = GcMakeForward(nr, /*keep_mark=*/false);
  *slot = nr;
  worklist_.push_back(nr);

  st.objects_traced += 1;
  st.bytes_copied += size;
  if (promoted) {
    st.objects_promoted += 1;
    promoted_bytes_cur_minor_ += size;
  }
}

void GenCollectorBase::ScanObject(ObjRef owner, EvacuationState* es) {
  bool has_young = false;
  heap_->VisitRefSlots(owner, [&](ObjRef* s) {
    if (*s == kNullRef) return;
    EvacuateSlot(s, es);
    if (InYoungPtr(heap_->Addr(*s))) has_young = true;
  });
  if (has_young && !InYoungPtr(heap_->Addr(owner))) {
    uint32_t& m = heap_->MetaOf(owner);
    if ((m & kInRemsetBit) == 0) {
      m |= kInRemsetBit;
      remset_.push_back(owner);
    }
  }
}

// -- full collection machinery ----------------------------------------------

size_t GenCollectorBase::MarkAll(uint64_t epoch) {
  if (cfg_.pause_budget_ms > 0) {
    // Budgeted mode: run the identical transitive mark as back-to-back
    // bounded slices so every slice lands in the pause histogram.
    marker_.Begin(epoch);
    return marker_.FinishAll(cfg_.pause_budget_ms);
  }
  Stopwatch sw;
  size_t live = MarkAllReachable(heap_, epoch, &mark_stack_);
  heap_->RecordMarkSlice(sw.ElapsedMillis(), /*standalone=*/false);
  return live;
}

void GenCollectorBase::CompactAll(uint64_t epoch) {
  GcStats& st = heap_->mutable_stats();
  auto walk_all = [&](const std::function<void(ObjRef)>& fn) {
    WalkRange(old_begin_, old_top_, fn);
    WalkRange(eden_alloc_begin_, eden_top_, fn);
    WalkRange(sur_begin_[0], sur_top_[0], fn);
    WalkRange(sur_begin_[1], sur_top_[1], fn);
  };

  // Pass 1: compute forwarding addresses (slide towards old_begin_).
  uint8_t* target = old_begin_;
  walk_all([&](ObjRef r) {
    uint64_t& gw = heap_->GcWordOf(r);
    if (!GcIsMarkedIn(gw, epoch)) return;
    uint32_t size = heap_->ObjectBytes(r);
    gw = GcMakeForwardMarked(heap_->RefOf(target), epoch);
    target += size;
  });
  DECA_CHECK_LE(static_cast<const void*>(target),
                static_cast<const void*>(sur_begin_[0]))
      << "live data exceeds heap capacity during full GC";

  // Pass 2: update all reference slots (roots + live objects).
  heap_->VisitRoots(
      [&](ObjRef* s) { *s = GcForwardRef(heap_->GcWordOf(*s)); });
  walk_all([&](ObjRef r) {
    if (!GcIsMarkedIn(heap_->GcWordOf(r), epoch)) return;
    heap_->VisitRefSlots(r, [&](ObjRef* s) {
      if (*s != kNullRef) *s = GcForwardRef(heap_->GcWordOf(*s));
    });
  });

  // Pass 3: slide objects to their new locations (ascending addresses, so
  // every destination is at or below its source).
  size_t moved = 0;
  walk_all([&](ObjRef r) {
    uint64_t gw = heap_->GcWordOf(r);
    if (!GcIsMarkedIn(gw, epoch)) return;
    uint32_t size = heap_->ObjectBytes(r);
    uint8_t* src = heap_->Addr(r);
    uint8_t* dst = heap_->Addr(GcForwardRef(gw));
    if (dst != src) std::memmove(dst, src, size);
    ObjRef nr = heap_->RefOf(dst);
    heap_->GcWordOf(nr) = 0;
    heap_->MetaOf(nr) &= ~(kInRemsetBit | kSlack8Bit);
    moved += size;
  });
  st.bytes_copied += moved;

  old_top_ = target;
  PostCompact();
  RecomputeEdenAfterCompact();
  sur_top_[0] = sur_begin_[0];
  sur_top_[1] = sur_begin_[1];
  from_ = 0;
  remset_.clear();
}

void GenCollectorBase::RecomputeEdenAfterCompact() {
  uint8_t* p = old_top_;
  if (p < eden_begin_) p = eden_begin_;
  if (p > eden_end_) p = eden_end_;
  eden_alloc_begin_ = p;
  eden_top_ = p;
}

// -- ParallelScavenge ---------------------------------------------------------

PsCollector::PsCollector(Heap* heap, const HeapConfig& config)
    : GenCollectorBase(heap, config) {}

uint8_t* PsCollector::AllocateOldRaw(size_t bytes, bool* slack8) {
  *slack8 = false;
  if (old_top_ + bytes > old_end_) return nullptr;
  uint8_t* p = old_top_;
  old_top_ += bytes;
  return p;
}

size_t PsCollector::OldFreeBytes() const {
  return old_top_ >= old_end_ ? 0
                              : static_cast<size_t>(old_end_ - old_top_);
}

size_t PsCollector::old_used_bytes() const {
  return static_cast<size_t>(old_top_ - old_begin_);
}

void PsCollector::CollectFull() {
  Stopwatch sw;
  uint64_t epoch = heap_->NextGcEpoch();
  MarkAll(epoch);
  CompactAll(epoch);
  GcStats& st = heap_->mutable_stats();
  st.full_count += 1;
  double pause_ms = sw.ElapsedMillis();
  st.full_pause_ms += pause_ms;
  heap_->RecordPauseMs(pause_ms);
  if (auto* rec = obs::Current()) {
    rec->CompleteSpanMs(obs::Cat::kGc, "full_pause", pause_ms,
                        static_cast<double>(st.full_count),
                        static_cast<double>(old_used_bytes()));
  }
}

// -- CMS ----------------------------------------------------------------------

CmsCollector::CmsCollector(Heap* heap, const HeapConfig& config)
    : GenCollectorBase(heap, config) {
  size_t old_bytes = static_cast<size_t>(old_end_ - old_begin_);
  WriteFreeChunk(old_begin_, old_bytes);
  free_list_.push_back({old_begin_, old_bytes});
  // CMS keeps the old space parsable end to end: old_top_ is the walk limit.
  old_top_ = old_end_;
}

void CmsCollector::WriteFreeChunk(uint8_t* begin, size_t bytes) {
  DECA_DCHECK(bytes >= kHeaderBytes);
  ObjRef r = heap_->RefOf(begin);
  heap_->MetaOf(r) = 0;  // free-chunk pseudo class
  heap_->LengthOf(r) = static_cast<uint32_t>(bytes - kHeaderBytes);
  heap_->GcWordOf(r) = 0;
}

uint8_t* CmsCollector::AllocateOldRaw(size_t bytes, bool* slack8) {
  *slack8 = false;
  for (size_t i = 0; i < free_list_.size(); ++i) {
    FreeChunk& c = free_list_[i];
    if (c.bytes < bytes) continue;
    size_t remainder = c.bytes - bytes;
    uint8_t* p = c.begin;
    if (remainder == 0) {
      free_list_.erase(free_list_.begin() + static_cast<long>(i));
    } else if (remainder == kWordSize) {
      // Too small for a filler header: grant the slack to the object.
      *slack8 = true;
      free_list_.erase(free_list_.begin() + static_cast<long>(i));
    } else {
      c.begin += bytes;
      c.bytes = remainder;
      WriteFreeChunk(c.begin, remainder);
    }
    return p;
  }
  return nullptr;
}

bool CmsCollector::PromotionGuaranteeHolds() const {
  // Promotion-rate estimate only: with a cache-saturated old generation
  // (the paper's scenario) CMS keeps scavenging — occasional promotion
  // failures degrade to a concurrent-mode-failure compaction instead of
  // stopping the world on every eden fill the way PS's worst-case
  // guarantee does.
  size_t need = std::max<size_t>(64u << 10, 4 * promoted_bytes_last_minor_);
  return OldFreeBytes() >= std::min(need, young_used_bytes());
}

size_t CmsCollector::FreeListBytes() const {
  size_t total = 0;
  for (const auto& c : free_list_) total += c.bytes;
  return total;
}

size_t CmsCollector::OldFreeBytes() const { return FreeListBytes(); }

size_t CmsCollector::old_used_bytes() const {
  return static_cast<size_t>(old_top_ - old_begin_) - FreeListBytes();
}

void CmsCollector::SweepOld(uint64_t epoch) {
  free_list_.clear();
  uint8_t* p = old_begin_;
  uint8_t* end = old_top_;
  uint8_t* run_begin = nullptr;
  while (p < end) {
    ObjRef r = heap_->RefOf(p);
    uint32_t walk = heap_->WalkBytes(r);
    bool live = heap_->ClassIdOf(r) != 0 &&
                GcIsMarkedIn(heap_->GcWordOf(r), epoch);
    if (live) {
      if (run_begin != nullptr) {
        size_t bytes = static_cast<size_t>(p - run_begin);
        WriteFreeChunk(run_begin, bytes);
        free_list_.push_back({run_begin, bytes});
        run_begin = nullptr;
      }
    } else if (run_begin == nullptr) {
      run_begin = p;
    }
    p += walk;
  }
  if (run_begin != nullptr) {
    size_t bytes = static_cast<size_t>(end - run_begin);
    WriteFreeChunk(run_begin, bytes);
    free_list_.push_back({run_begin, bytes});
  }
}

void CmsCollector::CollectMinor() {
  // Evacuation moves objects and overwrites their gcwords, which would
  // corrupt an in-flight incremental mark: force-complete the cycle first.
  if (marker_.active()) CompleteActiveCycle();
  GenCollectorBase::CollectMinor();
}

void CmsCollector::CollectFull() {
  if (in_full_gc_) return;
  if (marker_.active()) CompleteActiveCycle();
  in_full_gc_ = true;
  // Empty the young generation first when the promotion guarantee already
  // holds, so the sweep's survivors are stable.
  bool minor_done = false;
  if (young_used_bytes() > 0 && PromotionGuaranteeHolds()) {
    minor_promo_failed_ = false;
    MinorGcImpl();
    minor_done = true;
  }

  Stopwatch sw;
  uint64_t epoch = heap_->NextGcEpoch();
  MarkAll(epoch);
  SweepOld(epoch);
  // Drop remembered-set entries that died in this cycle.
  std::vector<ObjRef> survivors;
  survivors.reserve(remset_.size());
  for (ObjRef o : remset_) {
    if (GcIsMarkedIn(heap_->GcWordOf(o), epoch)) {
      survivors.push_back(o);
    }
  }
  remset_.swap(survivors);

  double total = sw.ElapsedMillis();
  GcStats& st = heap_->mutable_stats();
  st.full_count += 1;
  st.full_pause_ms += total * kConcurrentPauseShare;
  st.concurrent_ms += total * (1.0 - kConcurrentPauseShare);
  heap_->RecordPauseMs(total * kConcurrentPauseShare);
  if (auto* rec = obs::Current()) {
    rec->CompleteSpanMs(obs::Cat::kGc, "full_pause",
                        total * kConcurrentPauseShare,
                        static_cast<double>(st.full_count),
                        static_cast<double>(old_used_bytes()));
    rec->CompleteSpanMs(obs::Cat::kGc, "concurrent_sweep",
                        total * (1.0 - kConcurrentPauseShare),
                        static_cast<double>(st.full_count));
  }

  // If the guarantee failed on entry, the sweep may have freed enough old
  // space to make the minor collection possible now — without this, the
  // young generation stays full and the caller escalates to a
  // stop-the-world compaction (concurrent mode failure) unnecessarily.
  if (!minor_done && young_used_bytes() > 0 && PromotionGuaranteeHolds()) {
    minor_promo_failed_ = false;
    MinorGcImpl();
  }
  // A promotion failure inside this cycle leaves young unswept; the
  // allocation path's compaction fallback recovers (concurrent mode
  // failure). Clear the flag so CollectMinor does not double-escalate.
  minor_promo_failed_ = false;
  in_full_gc_ = false;
}

bool CmsCollector::OnAllocationFailureAfterFull() {
  // Concurrent mode failure: stop the world and compact everything.
  if (marker_.active()) CompleteActiveCycle();
  Stopwatch sw;
  uint64_t epoch = heap_->NextGcEpoch();
  MarkAll(epoch);
  CompactAll(epoch);
  GcStats& st = heap_->mutable_stats();
  st.full_count += 1;
  double pause_ms = sw.ElapsedMillis();
  st.full_pause_ms += pause_ms;
  heap_->RecordPauseMs(pause_ms);
  if (auto* rec = obs::Current()) {
    rec->CompleteSpanMs(obs::Cat::kGc, "concurrent_mode_failure", pause_ms,
                        static_cast<double>(st.full_count),
                        static_cast<double>(old_used_bytes()));
  }
  return true;
}

void CmsCollector::PostMinor() {
  // CMSInitiatingOccupancyFraction analogue: kick off a (mostly
  // concurrent) mark-sweep cycle once the old generation is 70% full.
  // One cycle per several minor collections — a concurrent collector's
  // cycle spans many scavenges; re-marking after every minor would burn
  // the whole mutator budget.
  ++minors_since_cycle_;
  size_t old_capacity = static_cast<size_t>(old_end_ - old_begin_);
  if (old_used_bytes() * 10 > old_capacity * 7 &&
      minors_since_cycle_ >= kMinorsPerCmsCycle) {
    minors_since_cycle_ = 0;
    if (cfg_.pause_budget_ms > 0) {
      // Budgeted mode: snapshot the roots now (the young generation was
      // just emptied) and let allocation ticks drain the mark in bounded
      // slices; the sweep runs when the cycle completes.
      marker_.Begin(heap_->NextGcEpoch());
    } else {
      CollectFull();
    }
  }
}

void CmsCollector::IncrementalMarkTick() {
  if (!marker_.active()) return;
  if (marker_.Step(cfg_.pause_budget_ms, /*standalone=*/true)) {
    FinishIncrementalCycle();
  }
}

void CmsCollector::CompleteActiveCycle() {
  marker_.FinishAll(cfg_.pause_budget_ms);
  FinishIncrementalCycle();
}

void CmsCollector::FinishIncrementalCycle() {
  DECA_CHECK(!marker_.active());
  Stopwatch sw;
  uint64_t epoch = marker_.epoch();
  SweepOld(epoch);
  // Drop remembered-set entries that died in this cycle (mirrors the
  // monolithic CollectFull).
  std::vector<ObjRef> survivors;
  survivors.reserve(remset_.size());
  for (ObjRef o : remset_) {
    if (GcIsMarkedIn(heap_->GcWordOf(o), epoch)) {
      survivors.push_back(o);
    }
  }
  remset_.swap(survivors);

  double total = sw.ElapsedMillis();
  GcStats& st = heap_->mutable_stats();
  st.full_count += 1;
  st.full_pause_ms += total * kConcurrentPauseShare;
  st.concurrent_ms += total * (1.0 - kConcurrentPauseShare);
  heap_->RecordPauseMs(total * kConcurrentPauseShare);
  if (auto* rec = obs::Current()) {
    rec->CompleteSpanMs(obs::Cat::kGc, "full_pause",
                        total * kConcurrentPauseShare,
                        static_cast<double>(st.full_count),
                        static_cast<double>(old_used_bytes()));
    rec->CompleteSpanMs(obs::Cat::kGc, "concurrent_sweep",
                        total * (1.0 - kConcurrentPauseShare),
                        static_cast<double>(st.full_count));
  }
}

void CmsCollector::PostCompact() {
  free_list_.clear();
  if (old_top_ < old_end_) {
    size_t tail = static_cast<size_t>(old_end_ - old_top_);
    if (tail >= kHeaderBytes) {
      WriteFreeChunk(old_top_, tail);
      free_list_.push_back({old_top_, tail});
      old_top_ = old_end_;
    }
    // An 8-byte tail cannot hold a filler header; leave old_top_ at the
    // dense prefix so the walk limit excludes the hole.
  }
}

}  // namespace deca::jvm
