// Correctness of the resumable SATB mark cycle (jvm/incremental_mark.h).
//
// The central property: a sliced mark with mutator progress between the
// slices — reference overwrites and fresh allocations — must produce the
// same live set a monolithic mark would have produced from the snapshot
// at Begin, plus exactly the objects allocated during the cycle
// (allocate-black). Garbage that was unreachable at Begin must stay
// unmarked. Every test asserts no collection ran while raw ObjRefs were
// held, so the refs tracked by the test never move.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "jvm/class_registry.h"
#include "jvm/heap.h"
#include "jvm/incremental_mark.h"

namespace deca::jvm {
namespace {

// Field offsets in the Node class below: double at 0, ref at 8.
constexpr uint32_t kNodeNextOff = 8;
constexpr uint32_t kPairAOff = 0;
constexpr uint32_t kPairBOff = 4;

struct Classes {
  uint32_t node;
  uint32_t pair;
  uint32_t ref_array;
};

Classes RegisterClasses(ClassRegistry* registry) {
  Classes c;
  c.node = registry->RegisterClass(
      "Node", {{"value", FieldKind::kDouble}, {"next", FieldKind::kRef}});
  c.pair = registry->RegisterClass(
      "Pair", {{"a", FieldKind::kRef}, {"b", FieldKind::kRef}});
  c.ref_array = registry->RegisterArrayClass("Node[]", FieldKind::kRef);
  return c;
}

/// A randomly wired object graph whose refs stay valid because no
/// collection runs while the test holds them (asserted by the caller).
struct Graph {
  std::vector<ObjRef> live;     // nodes/pairs/arrays wired together
  std::vector<ObjRef> garbage;  // allocated before the cycle, unreachable
  VectorRootProvider roots;     // retains a subset of `live`
};

/// Builds `n_live` randomly connected objects (a third of them rooted)
/// plus `n_garbage` unreachable ones. Allocation volume stays far below
/// the young generation so no collection triggers mid-build.
void BuildGraph(Heap* heap, const Classes& cls, Rng* rng, size_t n_live,
                size_t n_garbage, Graph* g) {
  for (size_t i = 0; i < n_live; ++i) {
    uint64_t kind = rng->NextBounded(4);
    ObjRef r;
    if (kind == 0) {
      r = heap->AllocateArray(cls.ref_array,
                              1 + static_cast<uint32_t>(rng->NextBounded(6)));
    } else if (kind == 1) {
      r = heap->AllocateInstance(cls.pair);
    } else {
      r = heap->AllocateInstance(cls.node);
      heap->SetField<double>(r, 0, static_cast<double>(i));
    }
    g->live.push_back(r);
  }
  // Wire random edges between live objects (every slot type accepted).
  for (ObjRef r : g->live) {
    auto pick = [&]() { return g->live[rng->NextBounded(g->live.size())]; };
    uint32_t cid = heap->ClassIdOf(r);
    if (cid == cls.node) {
      heap->SetRefField(r, kNodeNextOff, pick());
    } else if (cid == cls.pair) {
      heap->SetRefField(r, kPairAOff, pick());
      heap->SetRefField(r, kPairBOff, pick());
    } else {
      for (uint32_t i = 0; i < heap->ArrayLength(r); ++i) {
        heap->SetRefElem(r, i, pick());
      }
    }
  }
  for (size_t i = 0; i < g->live.size(); i += 3) {
    g->roots.refs().push_back(g->live[i]);
  }
  heap->AddRootProvider(&g->roots);
  for (size_t i = 0; i < n_garbage; ++i) {
    g->garbage.push_back(heap->AllocateInstance(cls.node));
  }
}

/// The test's own transitive closure from the heap's roots — the set a
/// monolithic mark must reproduce exactly.
std::set<ObjRef> ReachableSet(Heap* heap) {
  std::set<ObjRef> seen;
  std::vector<ObjRef> stack;
  heap->VisitRoots([&](ObjRef* s) {
    if (seen.insert(*s).second) stack.push_back(*s);
  });
  while (!stack.empty()) {
    ObjRef r = stack.back();
    stack.pop_back();
    heap->VisitRefSlots(r, [&](ObjRef* s) {
      if (*s != kNullRef && seen.insert(*s).second) stack.push_back(*s);
    });
  }
  return seen;
}

std::unique_ptr<Heap> MakeHeap(ClassRegistry* registry,
                               GcAlgorithm algo = GcAlgorithm::kParallelScavenge,
                               size_t bytes = 16u << 20) {
  HeapConfig cfg;
  cfg.heap_bytes = bytes;
  cfg.algorithm = algo;
  return std::make_unique<Heap>(cfg, registry);
}

/// Runs the sliced-vs-monolithic equivalence for one (seed, algorithm)
/// combination on its own heap. Uses EXPECT so it can run off-thread.
void RunSlicedVsMonolithic(uint64_t seed, GcAlgorithm algo) {
  ClassRegistry registry;
  Classes cls = RegisterClasses(&registry);
  auto heap = MakeHeap(&registry, algo);
  Rng rng(seed);
  Graph g;
  BuildGraph(heap.get(), cls, &rng, /*n_live=*/600, /*n_garbage=*/300, &g);

  std::set<ObjRef> reachable = ReachableSet(heap.get());
  EXPECT_GT(reachable.size(), g.live.size() / 3);  // roots alone

  // Phase 1: monolithic mark (budget 0 — a single Step drains fully, no
  // mutator progress). The marked set must be exactly the reachable set.
  const uint64_t epoch_mono = 1000 + seed;
  IncrementalMarker mono(heap.get());
  mono.Begin(epoch_mono);
  EXPECT_TRUE(mono.Step(/*budget_ms=*/0.0, /*standalone=*/false));
  for (ObjRef r : g.live) {
    EXPECT_EQ(GcIsMarkedIn(heap->GcWordOf(r), epoch_mono),
              reachable.count(r) != 0)
        << "monolithic mark disagrees with reachability for ref " << r;
  }
  for (ObjRef r : g.garbage) {
    EXPECT_FALSE(GcIsMarkedIn(heap->GcWordOf(r), epoch_mono));
  }

  // Phase 2: sliced mark over the same snapshot (the graph is unchanged),
  // with edge overwrites and fresh allocations between slices. SATB says
  // the marked set must still equal the snapshot's reachable set, plus
  // exactly the objects allocated during the cycle. Mutations rewire
  // edges only between snapshot-reachable objects: linking a
  // snapshot-unreachable object mid-cycle may legitimately mark it (the
  // scan of an unvisited gray object sees the new edge), which would
  // break the exact-equality assertion without being a marker bug.
  const uint64_t epoch_inc = epoch_mono + 1;
  std::vector<ObjRef> reach_vec(reachable.begin(), reachable.end());
  IncrementalMarker inc(heap.get());
  inc.Begin(epoch_inc);
  std::vector<ObjRef> fresh;
  bool done = false;
  int rounds = 0;
  while (!done) {
    done = inc.Step(/*budget_ms=*/1e-9, /*standalone=*/true);
    ++rounds;
    if (done) break;
    // Mutator progress: rewire a few live edges (the SATB log must keep
    // the overwritten targets marked) and allocate black.
    for (int i = 0; i < 8; ++i) {
      ObjRef victim = reach_vec[rng.NextBounded(reach_vec.size())];
      ObjRef target = reach_vec[rng.NextBounded(reach_vec.size())];
      uint32_t cid = heap->ClassIdOf(victim);
      if (cid == cls.node) {
        heap->SetRefField(victim, kNodeNextOff, target);
      } else if (cid == cls.pair) {
        heap->SetRefField(victim, kPairAOff, target);
      } else if (heap->ArrayLength(victim) > 0) {
        heap->SetRefElem(victim, 0, target);
      }
    }
    ObjRef baby = heap->AllocateInstance(cls.node);
    EXPECT_TRUE(GcIsMarkedIn(heap->GcWordOf(baby), epoch_inc))
        << "objects allocated mid-cycle must be marked black";
    fresh.push_back(baby);
  }
  EXPECT_GT(rounds, 1) << "tiny budget must force more than one slice";

  for (ObjRef r : g.live) {
    EXPECT_EQ(GcIsMarkedIn(heap->GcWordOf(r), epoch_inc),
              reachable.count(r) != 0)
        << "sliced mark disagrees with the monolithic live set for " << r;
  }
  for (ObjRef r : fresh) {
    EXPECT_TRUE(GcIsMarkedIn(heap->GcWordOf(r), epoch_inc));
  }
  for (ObjRef r : g.garbage) {
    EXPECT_FALSE(GcIsMarkedIn(heap->GcWordOf(r), epoch_inc));
  }

  // After the cycle completes the marker must be deregistered: new
  // allocations are no longer marked into its epoch.
  ObjRef late = heap->AllocateInstance(cls.node);
  EXPECT_FALSE(GcIsMarkedIn(heap->GcWordOf(late), epoch_inc));

  // No collection may have run — the raw refs above would have moved.
  EXPECT_EQ(heap->stats().minor_count, 0u);
  EXPECT_EQ(heap->stats().full_count, 0u);
  heap->RemoveRootProvider(&g.roots);
}

TEST(IncrementalMarkTest, SlicedMatchesMonolithicAcrossSeeds) {
  for (uint64_t seed : {1u, 7u, 23u, 99u}) {
    RunSlicedVsMonolithic(seed, GcAlgorithm::kParallelScavenge);
  }
}

TEST(IncrementalMarkTest, SlicedMatchesMonolithicAcrossCollectors) {
  for (GcAlgorithm algo :
       {GcAlgorithm::kParallelScavenge, GcAlgorithm::kConcurrentMarkSweep,
        GcAlgorithm::kG1}) {
    RunSlicedVsMonolithic(42, algo);
  }
}

// The heaps are single-mutator but independent, so the whole equivalence
// must hold with one heap per thread running concurrently (this is the
// TSan surface: marker state, SATB hooks, and histograms must never be
// shared across heaps).
TEST(IncrementalMarkTest, SlicedMatchesMonolithicOnConcurrentHeaps) {
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < 4; ++t) {
    threads.emplace_back(
        [t] { RunSlicedVsMonolithic(100 + t, GcAlgorithm::kParallelScavenge); });
  }
  for (auto& th : threads) th.join();
}

TEST(IncrementalMarkTest, BudgetZeroDrainsInOneSliceAfterRootScan) {
  ClassRegistry registry;
  Classes cls = RegisterClasses(&registry);
  auto heap = MakeHeap(&registry);
  Rng rng(5);
  Graph g;
  BuildGraph(heap.get(), cls, &rng, 200, 0, &g);

  uint64_t slices_before = heap->stats().mark_slices;
  IncrementalMarker m(heap.get());
  m.Begin(777);
  EXPECT_TRUE(m.Step(0.0, /*standalone=*/false));
  // Root-scan slice + one drain slice, nothing in between.
  EXPECT_EQ(heap->stats().mark_slices, slices_before + 2);
  EXPECT_FALSE(m.active());
  EXPECT_GT(m.live_bytes(), 0u);
  heap->RemoveRootProvider(&g.roots);
}

// A crash-wipe (Heap::Reset, as executor loss recovery does) with a mark
// cycle mid-flight must abandon the cycle, and the marker must be usable
// for a fresh cycle on the repopulated heap.
TEST(IncrementalMarkTest, CrashWipeAbandonsActiveCycle) {
  ClassRegistry registry;
  Classes cls = RegisterClasses(&registry);
  auto heap = MakeHeap(&registry);
  Rng rng(11);
  auto g = std::make_unique<Graph>();
  BuildGraph(heap.get(), cls, &rng, 2000, 0, g.get());

  IncrementalMarker m(heap.get());
  m.Begin(31);
  // A tiny budget cannot drain 2000 objects in its first 64-object batch.
  EXPECT_FALSE(m.Step(1e-9, /*standalone=*/true));
  EXPECT_TRUE(m.active());
  EXPECT_EQ(heap->active_marker(), &m);

  heap->RemoveRootProvider(&g->roots);
  g.reset();
  heap->Reset();  // wipes the heap and must Abandon() the marker
  EXPECT_FALSE(m.active());
  EXPECT_EQ(heap->active_marker(), nullptr);

  // The same marker starts a clean cycle on the wiped heap.
  Graph g2;
  BuildGraph(heap.get(), cls, &rng, 100, 50, &g2);
  std::set<ObjRef> reachable = ReachableSet(heap.get());
  m.Begin(32);
  EXPECT_TRUE(m.Step(0.0, /*standalone=*/false));
  for (ObjRef r : g2.live) {
    EXPECT_EQ(GcIsMarkedIn(heap->GcWordOf(r), 32), reachable.count(r) != 0);
  }
  heap->RemoveRootProvider(&g2.roots);
}

}  // namespace
}  // namespace deca::jvm
