#include <gtest/gtest.h>

#include "jvm/class_registry.h"
#include "jvm/heap.h"
#include "jvm/heap_profiler.h"

namespace deca::jvm {
namespace {

class HeapTest : public ::testing::Test {
 protected:
  HeapTest() {
    node_class_ = registry_.RegisterClass(
        "Node", {{"value", FieldKind::kDouble}, {"next", FieldKind::kRef}});
    HeapConfig cfg;
    cfg.heap_bytes = 8u << 20;
    heap_ = std::make_unique<Heap>(cfg, &registry_);
  }

  ClassRegistry registry_;
  uint32_t node_class_;
  std::unique_ptr<Heap> heap_;
};

TEST_F(HeapTest, ClassLayout) {
  const ClassInfo& node = registry_.Get(node_class_);
  EXPECT_EQ(node.FieldOffset("value"), 0u);
  EXPECT_EQ(node.FieldOffset("next"), 8u);
  EXPECT_EQ(node.payload_bytes(), 16u);
  EXPECT_EQ(node.ObjectBytes(0), kHeaderBytes + 16u);
  EXPECT_EQ(node.ref_offsets().size(), 1u);
  EXPECT_EQ(node.ref_offsets()[0], 8u);
}

TEST_F(HeapTest, ArrayLayout) {
  const ClassInfo& darr = registry_.Get(registry_.double_array_class());
  EXPECT_TRUE(darr.is_array());
  EXPECT_EQ(darr.ObjectBytes(10), kHeaderBytes + 80u);
  // Odd-length byte arrays pad to 8.
  const ClassInfo& barr = registry_.Get(registry_.byte_array_class());
  EXPECT_EQ(barr.ObjectBytes(13), kHeaderBytes + 16u);
}

TEST_F(HeapTest, FieldOffsetAlignment) {
  uint32_t c = registry_.RegisterClass(
      "Mixed", {{"flag", FieldKind::kBool},
                {"count", FieldKind::kInt},
                {"weight", FieldKind::kDouble},
                {"tag", FieldKind::kByte}});
  const ClassInfo& ci = registry_.Get(c);
  EXPECT_EQ(ci.FieldOffset("flag"), 0u);
  EXPECT_EQ(ci.FieldOffset("count"), 4u);
  EXPECT_EQ(ci.FieldOffset("weight"), 8u);
  EXPECT_EQ(ci.FieldOffset("tag"), 16u);
  EXPECT_EQ(ci.payload_bytes(), 24u);
}

TEST_F(HeapTest, AllocateAndAccessInstance) {
  ObjRef n = heap_->AllocateInstance(node_class_);
  ASSERT_NE(n, kNullRef);
  const ClassInfo& ci = registry_.Get(node_class_);
  EXPECT_EQ(heap_->GetField<double>(n, ci.FieldOffset("value")), 0.0);
  heap_->SetField<double>(n, ci.FieldOffset("value"), 2.5);
  EXPECT_EQ(heap_->GetField<double>(n, ci.FieldOffset("value")), 2.5);
  EXPECT_EQ(heap_->GetRefField(n, ci.FieldOffset("next")), kNullRef);
}

TEST_F(HeapTest, AllocateAndAccessArray) {
  ObjRef a = heap_->AllocateArray(registry_.double_array_class(), 16);
  EXPECT_EQ(heap_->ArrayLength(a), 16u);
  for (uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(heap_->GetElem<double>(a, i), 0.0);
    heap_->SetElem<double>(a, i, i * 1.5);
  }
  for (uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(heap_->GetElem<double>(a, i), i * 1.5);
  }
}

TEST_F(HeapTest, HandleSurvivesMinorGc) {
  HandleScope scope(heap_.get());
  Handle h = scope.Make(heap_->AllocateInstance(node_class_));
  heap_->SetField<double>(h.get(), 0, 42.0);
  ObjRef before = h.get();
  heap_->CollectMinor();
  // The object moved (copying GC) but the handle was updated.
  EXPECT_NE(h.get(), before);
  EXPECT_EQ(heap_->GetField<double>(h.get(), 0), 42.0);
}

TEST_F(HeapTest, UnrootedObjectIsCollected) {
  uint64_t before = heap_->CountInstances(node_class_);
  heap_->AllocateInstance(node_class_);
  EXPECT_EQ(heap_->CountInstances(node_class_), before + 1);
  heap_->CollectMinor();
  EXPECT_EQ(heap_->CountInstances(node_class_), before);
}

TEST_F(HeapTest, LinkedStructureSurvivesFullGc) {
  const ClassInfo& ci = registry_.Get(node_class_);
  uint32_t off_value = ci.FieldOffset("value");
  uint32_t off_next = ci.FieldOffset("next");
  HandleScope scope(heap_.get());
  Handle head = scope.Make(kNullRef);
  for (int i = 0; i < 100; ++i) {
    ObjRef n = heap_->AllocateInstance(node_class_);
    heap_->SetField<double>(n, off_value, i);
    heap_->SetRefField(n, off_next, head.get());
    head.set(n);
  }
  heap_->CollectFull();
  heap_->Verify();
  ObjRef cur = head.get();
  for (int i = 99; i >= 0; --i) {
    ASSERT_NE(cur, kNullRef);
    EXPECT_EQ(heap_->GetField<double>(cur, off_value), i);
    cur = heap_->GetRefField(cur, off_next);
  }
  EXPECT_EQ(cur, kNullRef);
}

TEST_F(HeapTest, OldToYoungReferenceTrackedByRemset) {
  const ClassInfo& ci = registry_.Get(node_class_);
  uint32_t off_next = ci.FieldOffset("next");
  HandleScope scope(heap_.get());
  Handle old_node = scope.Make(heap_->AllocateInstance(node_class_));
  // Promote it via a full collection.
  heap_->CollectFull();
  EXPECT_FALSE(heap_->collector()->IsYoung(old_node.get()));
  // Store a young object into the old one; only the remembered set keeps
  // the young object alive across the next minor GC.
  ObjRef young = heap_->AllocateInstance(node_class_);
  heap_->SetField<double>(young, 0, 7.0);
  heap_->SetRefField(old_node.get(), off_next, young);
  heap_->CollectMinor();
  ObjRef next = heap_->GetRefField(old_node.get(), off_next);
  ASSERT_NE(next, kNullRef);
  EXPECT_EQ(heap_->GetField<double>(next, 0), 7.0);
  heap_->Verify();
}

TEST_F(HeapTest, VectorRootProviderKeepsObjectsAlive) {
  VectorRootProvider roots;
  heap_->AddRootProvider(&roots);
  ObjRef n = heap_->AllocateInstance(node_class_);
  heap_->SetField<double>(n, 0, 13.0);
  roots.refs().push_back(n);
  heap_->CollectFull();
  // The provider's slot was updated in place by the moving collector.
  EXPECT_EQ(heap_->GetField<double>(roots.refs()[0], 0), 13.0);
  heap_->RemoveRootProvider(&roots);
  heap_->CollectFull();
  EXPECT_EQ(heap_->CountInstances(node_class_), 0u);
}

TEST_F(HeapTest, LargeObjectAllocatedInOldGen) {
  // 64 KB > kLargeObjectBytes (32 KB).
  ObjRef big = heap_->AllocateArray(registry_.byte_array_class(), 64 << 10);
  EXPECT_FALSE(heap_->collector()->IsYoung(big));
}

TEST_F(HeapTest, TryAllocateReturnsNullOnOom) {
  HeapConfig cfg;
  cfg.heap_bytes = 1u << 20;
  Heap small(cfg, &registry_);
  HandleScope scope(&small);
  // Pin ever more data until allocation fails.
  std::vector<Handle> pins;
  ObjRef r;
  int allocated = 0;
  do {
    r = small.TryAllocateArray(registry_.byte_array_class(), 64 << 10);
    if (r != kNullRef) {
      pins.push_back(scope.Make(r));
      ++allocated;
    }
  } while (r != kNullRef && allocated < 1000);
  EXPECT_EQ(r, kNullRef);
  EXPECT_GT(allocated, 5);
}

TEST_F(HeapTest, GcStatsAccumulate) {
  HandleScope scope(heap_.get());
  Handle h = scope.Make(heap_->AllocateInstance(node_class_));
  (void)h;
  heap_->CollectMinor();
  heap_->CollectFull();
  const GcStats& st = heap_->stats();
  EXPECT_GE(st.minor_count, 1u);
  EXPECT_GE(st.full_count, 1u);
  EXPECT_GT(st.objects_allocated, 0u);
  EXPECT_GT(st.TotalPauseMs(), 0.0);
}

TEST_F(HeapTest, CountAllInstances) {
  HandleScope scope(heap_.get());
  Handle a = scope.Make(heap_->AllocateInstance(node_class_));
  Handle b = scope.Make(heap_->AllocateArray(registry_.int_array_class(), 4));
  (void)a;
  (void)b;
  auto counts = heap_->CountAllInstances();
  EXPECT_EQ(counts[node_class_], 1u);
  EXPECT_EQ(counts[registry_.int_array_class()], 1u);
}

TEST_F(HeapTest, HeapProfilerTracksCounts) {
  HeapProfiler prof(heap_.get(), node_class_);
  prof.Sample(0.0);
  HandleScope scope(heap_.get());
  Handle a = scope.Make(heap_->AllocateInstance(node_class_));
  Handle b = scope.Make(heap_->AllocateInstance(node_class_));
  (void)a;
  (void)b;
  prof.Sample(1.0);
  EXPECT_EQ(prof.object_counts().values[0], 0.0);
  EXPECT_EQ(prof.object_counts().values[1], 2.0);
}

TEST_F(HeapTest, HandleScopeReleasesSlots) {
  size_t base = heap_->handle_top();
  {
    HandleScope scope(heap_.get());
    scope.Make(heap_->AllocateInstance(node_class_));
    scope.Make(heap_->AllocateInstance(node_class_));
    EXPECT_EQ(heap_->handle_top(), base + 2);
  }
  EXPECT_EQ(heap_->handle_top(), base);
}

TEST_F(HeapTest, BoxedValueClasses) {
  ObjRef d = heap_->AllocateInstance(registry_.boxed_double_class());
  heap_->SetField<double>(d, 0, 6.5);
  EXPECT_EQ(heap_->GetField<double>(d, 0), 6.5);
  EXPECT_EQ(heap_->ObjectBytes(d), kHeaderBytes + 8u);
}

TEST_F(HeapTest, RefArrayTracing) {
  HandleScope scope(heap_.get());
  Handle arr =
      scope.Make(heap_->AllocateArray(registry_.ref_array_class(), 8));
  for (uint32_t i = 0; i < 8; ++i) {
    HandleScope inner(heap_.get());
    ObjRef n = heap_->AllocateInstance(node_class_);
    heap_->SetField<double>(n, 0, i);
    heap_->SetRefElem(arr.get(), i, n);
  }
  heap_->CollectFull();
  heap_->Verify();
  for (uint32_t i = 0; i < 8; ++i) {
    ObjRef n = heap_->GetRefElem(arr.get(), i);
    ASSERT_NE(n, kNullRef);
    EXPECT_EQ(heap_->GetField<double>(n, 0), i);
  }
}

}  // namespace
}  // namespace deca::jvm
