// Pins the bytes of every declared fixed-size record. The hex strings are
// what the hand-written Kryo encoders and decomposed kernels these
// declarations replaced wrote for the same sample values, and the byte
// counts are their entry_bytes/managed_bytes (the three stream rows 4
// bytes less: the Object[] slot is CacheManager's to count). perfbench's
// lr_knee and serve_tiers read LabeledPoint's raw [label | features] and
// Kryo [label | varint dims | features] layouts by hand, so a drift here
// would otherwise surface only as a benchmark reference-check failure.
// Each sample also round-trips Kryo -> object -> decomposed -> object,
// leaf by leaf.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "spark/record_decl.h"
#include "workloads/lr.h"
#include "workloads/records.h"

namespace deca::workloads {
namespace {

std::string Hex(const uint8_t* p, size_t n) {
  std::string s;
  char b[3];
  for (size_t i = 0; i < n; ++i) {
    std::snprintf(b, sizeof(b), "%02x", p[i]);
    s += b;
  }
  return s;
}

/// Every leaf of `a` equals `b`'s, compared by field name.
template <typename R>
void ExpectLeaves(const R& a, const R& b) {
  R::ForEachRecordField([&](auto e) {
    constexpr spark::Shape kShape = decltype(e)::kShape;
    if constexpr (kShape == spark::Shape::kNested) {
      ExpectLeaves(a.*e.member, b.*e.member);
    } else if constexpr (kShape != spark::Shape::kConst) {
      EXPECT_EQ(a.*e.member, b.*e.member) << R::kHeapClass << "." << e.name;
    }
  });
}

class RecordsTest : public ::testing::Test {
 protected:
  RecordsTest() : lr_(&registry_, 4) {}

  jvm::Heap* heap() {
    if (heap_ == nullptr) {
      jvm::HeapConfig hc;
      hc.heap_bytes = 8u << 20;
      heap_ = std::make_unique<jvm::Heap>(hc, &registry_);
    }
    return heap_.get();
  }

  /// Pins `sample`'s Kryo and decomposed bytes, and round-trips it.
  template <typename R>
  void ExpectRecord(const spark::RecordType<R>& type, const R& sample,
                    const std::string& kryo, const std::string& decomposed) {
    SCOPED_TRACE(R::kHeapClass);
    jvm::Heap* h = heap();
    jvm::HandleScope scope(h);
    jvm::Handle built = scope.Make(type.Build(h, sample));
    ByteWriter w;
    type.Serialize(h, built.get(), &w);
    EXPECT_EQ(Hex(w.data(), w.size()), kryo);
    ByteWriter put;
    type.Put(&put, sample);
    EXPECT_EQ(Hex(put.data(), put.size()), kryo);

    ByteReader r(w.data(), w.size());
    jvm::Handle from_kryo = scope.Make(type.Deserialize(h, &r));
    EXPECT_TRUE(r.AtEnd());
    R read;
    type.Read(h, from_kryo.get(), &read);
    std::vector<uint8_t> bytes(type.decomposed_bytes());
    type.Store(bytes.data(), read);
    EXPECT_EQ(Hex(bytes.data(), bytes.size()), decomposed);
    R loaded;
    type.Load(bytes.data(), &loaded);
    jvm::Handle rebuilt = scope.Make(type.Build(h, loaded));
    R back;
    type.Read(h, rebuilt.get(), &back);
    ExpectLeaves(back, sample);
  }

  /// Pins one shuffle pair: both Kryo encodings, the decomposed entry
  /// (key bytes then value bytes) and entry_bytes.
  template <typename K, typename V>
  void ExpectPair(const spark::ShuffleType<K, V>& type, const K& key,
                  const V& value, const std::string& kryo_key,
                  const std::string& kryo_value, const std::string& entry,
                  uint64_t entry_bytes) {
    size_t split = 2 * type.key().decomposed_bytes();
    ExpectRecord(type.key(), key, kryo_key, entry.substr(0, split));
    ExpectRecord(type.value(), value, kryo_value, entry.substr(split));
    EXPECT_EQ(type.ops().deca_key_bytes + type.ops().deca_value_bytes,
              entry.size() / 2);
    EXPECT_EQ(type.ops().entry_bytes(heap(), jvm::kNullRef, jvm::kNullRef),
              entry_bytes);
  }

  jvm::ClassRegistry registry_;
  LrTypes lr_;
  std::unique_ptr<jvm::Heap> heap_;
};

const std::string kUrlHex =
    "687474703a2f2f6162636465666768696a6b6c6d6e6f7071";  // http://a..q

template <size_t N>
std::array<uint8_t, N> Chars(const char* s) {
  std::array<uint8_t, N> a{};
  for (size_t i = 0; i < N && s[i] != 0; ++i) a[i] = static_cast<uint8_t>(s[i]);
  return a;
}

TEST_F(RecordsTest, WordCounts) {
  LongPairs counts = WordCounts(&registry_);
  ExpectPair(counts, spark::Long{12345}, spark::Long{7}, "f2c001", "0e",
             "39300000000000000700000000000000", 80);
  EXPECT_NE(counts.tuple2_class(), 0u);
}

TEST_F(RecordsTest, ClusterStats) {
  ExpectPair(ClusterStats(&registry_, 3), spark::Long{2},
             ClusterStat{5, {1.5, -2.25, 3.0}}, "04",
             "0a000000000000f83f00000000000002c00000000000000840",
             "0200000000000000"
             "0500000000000000000000000000f83f00000000000002c0000000000000"
             "0840",
             104);
}

TEST_F(RecordsTest, Revenues) {
  ExpectPair(Revenues(&registry_), spark::RawLong{0x3132332e34},
             spark::Double{0.75}, "342e333231000000", "000000000000e83f",
             "342e333231000000000000000000e83f", 56);
}

TEST_F(RecordsTest, GraphPairs) {
  LongPairs edges = Edges(&registry_);
  auto contributions = Contributions(&registry_);
  LongPairs labels = Labels(&registry_);
  ExpectPair(edges, spark::Long{5}, spark::Long{9}, "0a", "12",
             "05000000000000000900000000000000", 56);
  ExpectPair(contributions, spark::Long{9}, spark::Double{0.125}, "12",
             "000000000000c03f", "0900000000000000000000000000c03f", 56);
  ExpectPair(labels, spark::Long{9}, spark::Long{-3}, "12", "05",
             "0900000000000000fdffffffffffffff", 56);
}

TEST_F(RecordsTest, SessionPartials) {
  ExpectPair(SessionPartials(&registry_), spark::Long{77},
             SessionAgg{1000, 1999, 3, 123456}, "9a01", "d00f9e1f0680890f",
             "4d00000000000000e803000000000000cf07000000000000"
             "030000000000000040e2010000000000",
             80);
}

TEST_F(RecordsTest, StreamRows) {
  spark::RecordType<WcPair> pair(&registry_);
  spark::RecordType<SessionRow> row(&registry_);
  spark::RecordType<AggPartial> partial(&registry_);

  const std::string wc = "39300000000000000700000000000000";
  ExpectRecord(pair, WcPair{12345, 7}, wc, wc);
  EXPECT_EQ(pair.ops().managed_bytes(heap(), jvm::kNullRef), 32u);

  const std::string sess =
      "4d00000000000000e803000000000000cf07000000000000"
      "030000000000000040e2010000000000";
  ExpectRecord(row, SessionRow{77, 1000, 1999, 3, 123456}, sess, sess);
  EXPECT_EQ(row.ops().managed_bytes(heap(), jvm::kNullRef), 56u);

  const std::string agg =
      "0cfeffffffffffff80e5f9ffffffffff1fa10700000000000a00000000000000";
  ExpectRecord(partial, AggPartial{-500, -400000, 499999, 10}, agg, agg);
  EXPECT_EQ(partial.ops().managed_bytes(heap(), jvm::kNullRef), 48u);
}

TEST_F(RecordsTest, SqlRows) {
  spark::RecordType<Ranking> rankings(&registry_);
  spark::RecordType<UserVisit> visits(&registry_);

  const std::string ranking = "0002000021000000" + kUrlHex;
  ExpectRecord(rankings,
               Ranking{512, 33, Chars<kUrlBytes>("http://abcdefghijklmnopq")},
               ranking, ranking);
  EXPECT_EQ(rankings.ops().managed_bytes(heap(), jvm::kNullRef), 72u);

  const std::string visit = "c800000000000000000000000000e83f"
                            "3132332e3435362e3738392e30313200" +
                            kUrlHex;
  ExpectRecord(visits,
               UserVisit{200, 0.75, Chars<kIpBytes>("123.456.789.012"),
                         Chars<kUrlBytes>("http://abcdefghijklmnopq")},
               visit, visit);
  EXPECT_EQ(visits.ops().managed_bytes(heap(), jvm::kNullRef), 112u);
}

TEST_F(RecordsTest, LabeledPoint) {
  const spark::RecordType<LabeledPoint>& point = lr_.point();
  LabeledPoint sample{-1.0, {{0.5, 1.5, -2.5, 3.25}}};
  ExpectRecord(point, sample,
               "000000000000f0bf04000000000000e03f000000000000f83f0000000000"
               "0004c00000000000000a40",
               "000000000000f0bf000000000000e03f000000000000f83f0000000000"
               "0004c00000000000000a40");
  EXPECT_EQ(lr_.ops().managed_bytes(heap(), jvm::kNullRef), 112u);

  // The constants live in the heap object only.
  jvm::Heap* h = heap();
  jvm::HandleScope scope(h);
  jvm::Handle lp = scope.Make(point.Build(h, sample));
  jvm::ObjRef dv = h->GetRefField(lp.get(), lr_.lp_features_off());
  const jvm::ClassInfo& dvc = registry_.Get(lr_.dense_vector_cls());
  EXPECT_EQ(h->GetField<int32_t>(dv, dvc.FieldOffset("offset")), 0);
  EXPECT_EQ(h->GetField<int32_t>(dv, dvc.FieldOffset("stride")), 1);
  EXPECT_EQ(h->GetField<int32_t>(dv, dvc.FieldOffset("length")), 4);

  // The analysis's layout (paper Appendix B) is the declaration's.
  EXPECT_EQ(lr_.layout().static_size(), point.decomposed_bytes());
  EXPECT_EQ(lr_.layout().field("label").offset, 0u);
  EXPECT_EQ(lr_.layout().field("features.data").offset, 8u);
}

}  // namespace
}  // namespace deca::workloads
