#include <gtest/gtest.h>

#include <vector>

#include "common/bytes.h"
#include "core/page.h"
#include "core/planner.h"
#include "core/sudt_layout.h"

namespace deca::core {
namespace {

using analysis::SizeType;
using jvm::FieldKind;

class PageTest : public ::testing::Test {
 protected:
  PageTest() {
    jvm::HeapConfig cfg;
    cfg.heap_bytes = 16u << 20;
    heap_ = std::make_unique<jvm::Heap>(cfg, &registry_);
  }
  jvm::ClassRegistry registry_;
  std::unique_ptr<jvm::Heap> heap_;
};

TEST_F(PageTest, AppendAndResolve) {
  PageGroup g(heap_.get(), 4096);
  SegPtr a = g.Append(16);
  SegPtr b = g.Append(24);
  EXPECT_EQ(a.page, 0u);
  EXPECT_EQ(a.offset, 0u);
  EXPECT_EQ(b.offset, 16u);
  StoreRaw<double>(g.Resolve(a), 1.5);
  StoreRaw<double>(g.Resolve(b), 2.5);
  EXPECT_EQ(LoadRaw<double>(g.Resolve(a)), 1.5);
  EXPECT_EQ(LoadRaw<double>(g.Resolve(b)), 2.5);
  EXPECT_EQ(g.segment_count(), 2u);
  EXPECT_EQ(g.used_bytes(), 40u);
}

TEST_F(PageTest, SegmentsNeverStraddlePages) {
  PageGroup g(heap_.get(), 100);
  g.Append(60);
  SegPtr b = g.Append(60);  // does not fit in page 0's remaining 40 bytes
  EXPECT_EQ(b.page, 1u);
  EXPECT_EQ(b.offset, 0u);
  EXPECT_EQ(g.page_count(), 2u);
  EXPECT_EQ(g.page_used(0), 60u);
  EXPECT_EQ(g.page_used(1), 60u);
}

TEST_F(PageTest, DataSurvivesFullGc) {
  PageGroup g(heap_.get(), 4096);
  std::vector<SegPtr> segs;
  for (int i = 0; i < 1000; ++i) {
    SegPtr s = g.Append(8);
    StoreRaw<double>(g.Resolve(s), i * 0.5);
    segs.push_back(s);
  }
  heap_->CollectFull();
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(LoadRaw<double>(g.Resolve(segs[i])), i * 0.5);
  }
}

TEST_F(PageTest, GcTracesPagesNotRecords) {
  // A page group with 100k records contributes only page_count objects.
  PageGroup g(heap_.get(), 64 << 10);
  for (int i = 0; i < 100000; ++i) g.Append(16);
  uint64_t traced_before = heap_->stats().objects_traced;
  heap_->CollectFull();
  uint64_t traced = heap_->stats().objects_traced - traced_before;
  // Pages only (plus a handful of runtime objects), not 100k records.
  EXPECT_LT(traced, g.page_count() + 10);
  EXPECT_GE(traced, g.page_count());
}

TEST_F(PageTest, DestructionReleasesSpace) {
  size_t used_before = heap_->old_used_bytes();
  {
    PageGroup g(heap_.get(), 64 << 10);
    for (int i = 0; i < 1000; ++i) g.Append(64);
    heap_->CollectFull();
    EXPECT_GT(heap_->old_used_bytes(), used_before);
  }
  heap_->CollectFull();
  EXPECT_LE(heap_->old_used_bytes(), used_before + (64u << 10));
}

TEST_F(PageTest, SharedGroupReclaimedByLastOwner) {
  auto g = std::make_shared<PageGroup>(heap_.get(), 4096);
  SegPtr s = g->Append(8);
  StoreRaw<double>(g->Resolve(s), 7.0);
  auto secondary = std::make_shared<PageGroup>(heap_.get(), 4096);
  secondary->AddDependency(g);
  g.reset();  // primary released; dependency keeps pages alive
  heap_->CollectFull();
  // The dependency vector is the only remaining owner.
  secondary.reset();
  heap_->CollectFull();
  SUCCEED();
}

TEST_F(PageTest, ScannerVisitsAllRecordsInOrder) {
  PageGroup g(heap_.get(), 128);  // small pages force page transitions
  for (int i = 0; i < 50; ++i) {
    SegPtr s = g.Append(16);
    StoreRaw<int64_t>(g.Resolve(s), i);
    StoreRaw<double>(g.Resolve(s) + 8, i * 2.0);
  }
  PageScanner scan(&g);
  int i = 0;
  while (!scan.AtEnd()) {
    uint8_t* p = scan.Cur();
    EXPECT_EQ(LoadRaw<int64_t>(p), i);
    EXPECT_EQ(LoadRaw<double>(p + 8), i * 2.0);
    scan.Advance(16);
    ++i;
  }
  EXPECT_EQ(i, 50);
}

TEST_F(PageTest, ScannerHandlesVariableRecords) {
  PageGroup g(heap_.get(), 256);
  // Records: u32 length + that many bytes.
  for (uint32_t len = 1; len <= 30; ++len) {
    SegPtr s = g.Append(4 + len);
    uint8_t* p = g.Resolve(s);
    StoreRaw<uint32_t>(p, len);
    for (uint32_t j = 0; j < len; ++j) p[4 + j] = static_cast<uint8_t>(len);
  }
  PageScanner scan(&g);
  uint32_t expect = 1;
  while (!scan.AtEnd()) {
    uint8_t* p = scan.Cur();
    uint32_t len = LoadRaw<uint32_t>(p);
    EXPECT_EQ(len, expect);
    EXPECT_EQ(p[4 + len - 1], static_cast<uint8_t>(len));
    scan.Advance(4 + len);
    ++expect;
  }
  EXPECT_EQ(expect, 31u);
}

TEST_F(PageTest, ClearDropsPages) {
  PageGroup g(heap_.get(), 4096);
  for (int i = 0; i < 100; ++i) g.Append(64);
  EXPECT_GT(g.page_count(), 0u);
  g.Clear();
  EXPECT_EQ(g.page_count(), 0u);
  EXPECT_EQ(g.used_bytes(), 0u);
  PageScanner scan(&g);
  EXPECT_TRUE(scan.AtEnd());
}

/// Raw page bytes of a group of three 128-byte pages holding 16-byte
/// records (the last page half full).
std::vector<uint8_t> RawPayload(jvm::Heap* heap) {
  PageGroup g(heap, 128);
  for (int i = 0; i < 20; ++i) {
    uint8_t* p = g.Resolve(g.Append(16));
    StoreRaw<int64_t>(p, i);
    StoreRaw<double>(p + 8, i * 0.5);
  }
  std::vector<uint8_t> raw(g.encoded_raw_bytes());
  EXPECT_EQ(g.EncodeRawTo(raw.data()), raw.size());
  return raw;
}

TEST_F(PageTest, RawPayloadRoundTrips) {
  const std::vector<uint8_t> raw = RawPayload(heap_.get());
  ASSERT_EQ(raw.size(), 4 + 3 * 4 + 20 * 16u);
  RawPageCursor cur(raw.data(), raw.size());
  EXPECT_EQ(cur.page_count(), 3u);
  const uint8_t* page = nullptr;
  uint32_t used = 0;
  int64_t next = 0;
  while (cur.Next(&page, &used)) {
    for (uint32_t off = 0; off < used; off += 16) {
      EXPECT_EQ(LoadRaw<int64_t>(page + off), next++);
    }
  }
  EXPECT_EQ(next, 20);

  auto g = PageGroup::DecodeRaw(heap_.get(), 128, raw.data(), raw.size());
  EXPECT_EQ(g->page_count(), 3u);
  EXPECT_EQ(g->used_bytes(), 20 * 16u);
  PageScanner scan(g.get());
  for (int i = 0; i < 20; ++i, scan.Advance(16)) {
    ASSERT_FALSE(scan.AtEnd());
    EXPECT_EQ(LoadRaw<double>(scan.Cur() + 8), i * 0.5);
  }
  EXPECT_TRUE(scan.AtEnd());
}

/// Walks every page of a raw payload, as a query would.
void WalkRaw(const uint8_t* data, size_t size) {
  RawPageCursor cur(data, size);
  const uint8_t* page = nullptr;
  uint32_t used = 0;
  while (cur.Next(&page, &used)) {
  }
}

/// A payload cut short aborts both decoders at the page header whose
/// bytes are missing, instead of reading past the payload.
TEST_F(PageTest, TruncatedRawPayloadFailsLoudly) {
  const std::vector<uint8_t> raw = RawPayload(heap_.get());
  // Keep the page count, page 0 and page 1's header plus 10 bytes: page 1
  // (header at offset 4 + 4 + 128 = 136) claims 128 bytes; 10 are left
  // beyond the 4 that page 2's header needs.
  const size_t cut = 136 + 4 + 14;
  EXPECT_DEATH(WalkRaw(raw.data(), cut),
               "page 1 at offset 136 claims 128 bytes, but only 10 are left");
  EXPECT_DEATH(PageGroup::DecodeRaw(heap_.get(), 128, raw.data(), cut),
               "page 1 at offset 136 claims 128 bytes");
  // Too short for even the page headers it announces.
  EXPECT_DEATH(WalkRaw(raw.data(), 10), "claims 3 pages, but only 6 bytes");
  EXPECT_DEATH(WalkRaw(raw.data(), 3), "has no page count");
}

/// A page header claiming more than the payload holds, or more than one
/// page, aborts with its offset.
TEST_F(PageTest, InflatedPageUsedFailsLoudly) {
  std::vector<uint8_t> raw = RawPayload(heap_.get());
  // Page 0's header sits at offset 4.
  StoreRaw<uint32_t>(raw.data() + 4, 100000);
  EXPECT_DEATH(WalkRaw(raw.data(), raw.size()),
               "page 0 at offset 4 claims 100000 bytes");
  EXPECT_DEATH(PageGroup::DecodeRaw(heap_.get(), 128, raw.data(), raw.size()),
               "page 0 at offset 4 claims 100000 bytes");
  // 200 bytes fit in the payload, but not in a 128-byte page.
  StoreRaw<uint32_t>(raw.data() + 4, 200);
  EXPECT_DEATH(PageGroup::DecodeRaw(heap_.get(), 128, raw.data(), raw.size()),
               "page at offset 4 claims 200 bytes, more than a 128-byte page");
}

// -- SUDT layout ------------------------------------------------------------

class LayoutTest : public ::testing::Test {
 protected:
  analysis::TypeUniverse u_;
};

TEST_F(LayoutTest, PaperLabeledPointSfstLayout) {
  // Figure 2: [label | data(0) | data(1) | ... | data(D-1)] — references,
  // headers and the redundant offset/stride/length fields of the vector
  // are materialized as layout leaves too (they are primitive fields).
  const auto* darr =
      u_.DefineArray("Array[Double]", {u_.Primitive(FieldKind::kDouble)});
  auto* dv = u_.DefineClass("DenseVector");
  u_.AddField(dv, "data", true, {darr});
  auto* lp = u_.DefineClass("LabeledPoint");
  u_.AddField(lp, "label", false, {u_.Primitive(FieldKind::kDouble)});
  u_.AddField(lp, "features", false, {dv});

  LengthResolver lengths;
  lengths.SetFixedLength(dv, "data", 10);
  SudtLayout layout = SudtLayout::Build(lp, lengths);
  EXPECT_FALSE(layout.has_variable_part());
  EXPECT_EQ(layout.static_size(), 8u + 10 * 8u);
  EXPECT_EQ(layout.field("label").offset, 0u);
  EXPECT_EQ(layout.field("features.data").offset, 8u);
  EXPECT_EQ(layout.field("features.data").count, 10u);
  EXPECT_EQ(layout.field("features.data").kind, FieldKind::kDouble);
}

TEST_F(LayoutTest, RfstLayoutHasVariableTail) {
  const auto* larr =
      u_.DefineArray("Array[Long]", {u_.Primitive(FieldKind::kLong)});
  auto* adj = u_.DefineClass("Adjacency");
  u_.AddField(adj, "vertex", false, {u_.Primitive(FieldKind::kLong)});
  u_.AddField(adj, "rank", false, {u_.Primitive(FieldKind::kDouble)});
  u_.AddField(adj, "neighbors", true, {larr});

  SudtLayout layout = SudtLayout::Build(adj, LengthResolver());
  EXPECT_TRUE(layout.has_variable_part());
  EXPECT_EQ(layout.fixed_bytes(), 16u);
  EXPECT_EQ(layout.field("vertex").offset, 0u);
  EXPECT_EQ(layout.field("rank").offset, 8u);
  EXPECT_TRUE(layout.field("neighbors").variable_length);
  // Record size: fixed + (u32 length + 8*len).
  EXPECT_EQ(layout.RuntimeSize({5}), 16u + 4u + 40u);
}

TEST_F(LayoutTest, FixedFieldsReorderedBeforeVariable) {
  const auto* barr =
      u_.DefineArray("Array[Byte]", {u_.Primitive(FieldKind::kByte)});
  auto* rec = u_.DefineClass("Record");
  u_.AddField(rec, "name", true, {barr});  // variable-length
  u_.AddField(rec, "score", false, {u_.Primitive(FieldKind::kDouble)});
  SudtLayout layout = SudtLayout::Build(rec, LengthResolver());
  // `score` declared after `name` but lands in the fixed prefix at 0.
  EXPECT_EQ(layout.field("score").offset, 0u);
  EXPECT_EQ(layout.fixed_bytes(), 8u);
  ASSERT_EQ(layout.variable_fields().size(), 1u);
  EXPECT_EQ(layout.variable_fields()[0].path, "name");
}

// -- planner ------------------------------------------------------------------

TEST(PlannerTest, CacheOutranksUdfVariables) {
  std::vector<ContainerSpec> group{
      {"udf", ContainerKind::kUdfVariables, 0, SizeType::kStaticFixed, false},
      {"cache", ContainerKind::kCacheBlock, 1, SizeType::kStaticFixed,
       false},
  };
  EXPECT_EQ(DecompositionPlanner::PrimaryIndex(group), 1);
  auto plan = DecompositionPlanner::Plan(group);
  EXPECT_EQ(plan[1].layout, ContainerLayout::kDecomposed);
  EXPECT_EQ(plan[0].layout, ContainerLayout::kPointersToPrimary);
  EXPECT_EQ(plan[0].primary_index, 1);
}

TEST(PlannerTest, FirstCreatedHighPriorityWins) {
  std::vector<ContainerSpec> group{
      {"shuffle", ContainerKind::kShuffleBuffer, 0, SizeType::kStaticFixed,
       false},
      {"cache", ContainerKind::kCacheBlock, 1, SizeType::kStaticFixed,
       false},
  };
  EXPECT_EQ(DecompositionPlanner::PrimaryIndex(group), 0);
}

TEST(PlannerTest, VstPrimaryKeepsObjects) {
  std::vector<ContainerSpec> group{
      {"cache", ContainerKind::kCacheBlock, 0, SizeType::kVariable, false},
  };
  auto plan = DecompositionPlanner::Plan(group);
  EXPECT_EQ(plan[0].layout, ContainerLayout::kObjects);
}

TEST(PlannerTest, SameObjectsShareThePageGroup) {
  std::vector<ContainerSpec> group{
      {"cacheA", ContainerKind::kCacheBlock, 0, SizeType::kStaticFixed,
       false},
      {"cacheB", ContainerKind::kCacheBlock, 1, SizeType::kStaticFixed,
       true},
  };
  auto plan = DecompositionPlanner::Plan(group);
  EXPECT_EQ(plan[0].layout, ContainerLayout::kDecomposed);
  EXPECT_EQ(plan[1].layout, ContainerLayout::kSharedPageInfo);
}

TEST(PlannerTest, PartiallyDecomposableCopiesOut) {
  // Paper Figure 7b: groupByKey shuffle output (VST in the buffer)
  // immediately cached; the cache decomposes its own copy.
  std::vector<ContainerSpec> group{
      {"shuffle", ContainerKind::kShuffleBuffer, 0, SizeType::kVariable,
       false},
      {"cache", ContainerKind::kCacheBlock, 1, SizeType::kRuntimeFixed,
       false},
  };
  auto plan = DecompositionPlanner::Plan(group);
  EXPECT_EQ(plan[0].layout, ContainerLayout::kObjects);
  EXPECT_EQ(plan[1].layout, ContainerLayout::kDecomposed);
}

TEST(PlannerTest, OrderedSecondaryGetsPointers) {
  std::vector<ContainerSpec> group{
      {"cache", ContainerKind::kCacheBlock, 0, SizeType::kStaticFixed,
       false},
      {"shuffle", ContainerKind::kShuffleBuffer, 1, SizeType::kStaticFixed,
       false},  // needs its own sort order
  };
  auto plan = DecompositionPlanner::Plan(group);
  EXPECT_EQ(plan[1].layout, ContainerLayout::kPointersToPrimary);
  EXPECT_EQ(plan[1].primary_index, 0);
}

}  // namespace
}  // namespace deca::core
