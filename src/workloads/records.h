#ifndef DECA_WORKLOADS_RECORDS_H_
#define DECA_WORKLOADS_RECORDS_H_

// Every fixed-size record the workloads cache or shuffle, declared once
// (spark/record_decl.h), and the keyed shuffles built from them, each with
// its one combine. LR's LabeledPoint is in lr.h. Graph's adjacency records
// vary in size and stay hand-written (graph.cc), as does SQL's columnar
// SparkSQL engine.

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "spark/record_decl.h"

namespace deca::workloads {

/// Stream WordCount: one cached (word, count) row of an epoch's table.
struct WcPair {
  int64_t word = 0;
  int64_t count = 0;

  static constexpr const char* kHeapClass = "WcPair";
  template <typename F>
  static constexpr void ForEachRecordField(F&& f) {
    using Self = WcPair;
    DECA_PRIM(word, kRaw, kVar);
    DECA_PRIM(count, kRaw, kVar);
  }
};

/// KMeans: one cluster's partial aggregate, a point count and the feature
/// sums.
struct ClusterStat {
  int64_t count = 0;
  std::vector<double> sums;  // dims long

  static constexpr const char* kHeapClass = "ClusterStat";
  template <typename F>
  static constexpr void ForEachRecordField(F&& f) {
    using Self = ClusterStat;
    DECA_PRIM(count, kVarint, kVar);
    DECA_ARRAY(sums, kFixed, kVar);
  }
};

/// Sessionize: one user's visit partial for one epoch, (first_ts, last_ts,
/// visits, revenue cents), combined per user in the shuffle. Revenue is
/// integer cents, so partial sums are exact and order-independent.
struct SessionAgg {
  int64_t first = 0;
  int64_t last = 0;
  int64_t visits = 0;
  int64_t cents = 0;

  static constexpr const char* kHeapClass = "SessionAgg";
  template <typename F>
  static constexpr void ForEachRecordField(F&& f) {
    using Self = SessionAgg;
    DECA_PRIM(first, kVarint, kVar);
    DECA_PRIM(last, kVarint, kVar);
    DECA_PRIM(visits, kVarint, kVar);
    DECA_PRIM(cents, kVarint, kVar);
  }
};

/// Sessionize: a user's partial with its ip, one cached row of an epoch's
/// table (and the window stitcher's working form).
struct SessionRow {
  int64_t ip = 0;
  int64_t first = 0;
  int64_t last = 0;
  int64_t visits = 0;
  int64_t cents = 0;

  static constexpr const char* kHeapClass = "SessionRow";
  template <typename F>
  static constexpr void ForEachRecordField(F&& f) {
    using Self = SessionRow;
    DECA_PRIM(ip, kRaw, kVar);
    DECA_PRIM(first, kRaw, kVar);
    DECA_PRIM(last, kRaw, kVar);
    DECA_PRIM(visits, kRaw, kVar);
    DECA_PRIM(cents, kRaw, kVar);
  }
};

/// Sliding window: one partition's (sum, min, max, count) of an epoch's
/// values, one cached record per partition per epoch.
struct AggPartial {
  int64_t sum = 0;
  int64_t min = INT64_MAX;
  int64_t max = INT64_MIN;
  int64_t count = 0;

  void Add(int64_t v) {
    sum += v;
    min = std::min(min, v);
    max = std::max(max, v);
    ++count;
  }
  void Merge(const AggPartial& o) {
    if (o.count == 0) return;
    sum += o.sum;
    min = std::min(min, o.min);
    max = std::max(max, o.max);
    count += o.count;
  }

  static constexpr const char* kHeapClass = "AggPartial";
  template <typename F>
  static constexpr void ForEachRecordField(F&& f) {
    using Self = AggPartial;
    DECA_PRIM(sum, kRaw, kVar);
    DECA_PRIM(min, kRaw, kVar);
    DECA_PRIM(max, kRaw, kVar);
    DECA_PRIM(count, kRaw, kVar);
  }
};

/// SQL's fixed-width strings (the paper's Common Crawl sample has the same
/// schema shape).
inline constexpr uint32_t kUrlBytes = 24;
inline constexpr uint32_t kIpBytes = 16;  // 15 significant chars, padded

/// SQL: one rankings row.
struct Ranking {
  int32_t pageRank = 0;
  int32_t avgDuration = 0;
  std::array<uint8_t, kUrlBytes> pageURL{};

  static constexpr const char* kHeapClass = "Ranking";
  template <typename F>
  static constexpr void ForEachRecordField(F&& f) {
    using Self = Ranking;
    DECA_PRIM(pageRank, kRaw, kVar);
    DECA_PRIM(avgDuration, kRaw, kVar);
    DECA_ARRAY(pageURL, kFixed, kVar);
  }
};

/// SQL: one uservisits row.
struct UserVisit {
  int64_t visitDate = 0;
  double adRevenue = 0;
  std::array<uint8_t, kIpBytes> sourceIP{};
  std::array<uint8_t, kUrlBytes> destURL{};

  static constexpr const char* kHeapClass = "UserVisit";
  template <typename F>
  static constexpr void ForEachRecordField(F&& f) {
    using Self = UserVisit;
    DECA_PRIM(visitDate, kRaw, kVar);
    DECA_PRIM(adRevenue, kRaw, kVar);
    DECA_ARRAY(sourceIP, kFixed, kVar);
    DECA_ARRAY(destURL, kFixed, kVar);
  }
};

// The keyed shuffles. Each combine is written once, over values.

using LongPairs = spark::ShuffleType<spark::Long, spark::Long>;

/// WordCount's and stream WordCount's (word, 1) Tuple2s, summed per word.
inline LongPairs WordCounts(jvm::ClassRegistry* registry) {
  return {registry,
          [](spark::Long* agg, const spark::Long& v) { agg->value += v.value; },
          spark::Tuple2::kWrapped};
}

/// Graph edges: (src, dst), grouped by src and never combined.
inline LongPairs Edges(jvm::ClassRegistry* registry) {
  return {registry, nullptr};
}

/// ConnectedComponents: (vertex, label), the least label kept.
inline LongPairs Labels(jvm::ClassRegistry* registry) {
  return {registry, [](spark::Long* agg, const spark::Long& v) {
            agg->value = std::min(agg->value, v.value);
          }};
}

/// PageRank: (vertex, contribution), summed.
inline spark::ShuffleType<spark::Long, spark::Double> Contributions(
    jvm::ClassRegistry* registry) {
  return {registry, [](spark::Double* agg, const spark::Double& v) {
            agg->value += v.value;
          }};
}

/// KMeans: (cluster, ClusterStat) over `dims` features, summed.
inline spark::ShuffleType<spark::Long, ClusterStat> ClusterStats(
    jvm::ClassRegistry* registry, int dims) {
  return {registry,
          [](ClusterStat* agg, const ClusterStat& v) {
            agg->count += v.count;
            for (size_t j = 0; j < agg->sums.size(); ++j) {
              agg->sums[j] += v.sums[j];
            }
          },
          spark::Tuple2::kNone, static_cast<uint32_t>(dims)};
}

/// SQL Query 2: (packed 5-char ip prefix, revenue), summed.
inline spark::ShuffleType<spark::RawLong, spark::Double> Revenues(
    jvm::ClassRegistry* registry) {
  return {registry, [](spark::Double* agg, const spark::Double& v) {
            agg->value += v.value;
          }};
}

/// Sessionize: (ip, SessionAgg), merged per user.
inline spark::ShuffleType<spark::Long, SessionAgg> SessionPartials(
    jvm::ClassRegistry* registry) {
  return {registry, [](SessionAgg* agg, const SessionAgg& v) {
            agg->first = std::min(agg->first, v.first);
            agg->last = std::max(agg->last, v.last);
            agg->visits += v.visits;
            agg->cents += v.cents;
          }};
}

}  // namespace deca::workloads

#endif  // DECA_WORKLOADS_RECORDS_H_
