// Every control-plane field list round-trips: each listed field, nested
// lists, strings, blobs and vectors included, is moved to a value of its
// own, encoded, decoded and compared through the list, and the reader must
// end exactly where the encoding does. Folded lists fold as their entries
// say.

#include <gtest/gtest.h>

#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/job_spec.h"
#include "net/control.h"
#include "spark/dist.h"
#include "workloads/dist_entry.h"

namespace deca {
namespace {

template <typename T>
struct IsVector : std::false_type {};
template <typename T>
struct IsVector<std::vector<T>> : std::true_type {};

template <typename T>
struct IsPair : std::false_type {};
template <typename A, typename B>
struct IsPair<std::pair<A, B>> : std::true_type {};

// Moves `*v` off its value: every leaf gets a change of its own (the
// running leaf count `*n`), so two fields decoded into each other's place
// cannot compare equal. Vectors gain two bumped elements.
template <typename T>
void Bump(T* v, int* n) {
  if constexpr (Listed<T>) {
    T::ForEachField(
        [&](const char*, auto member, auto...) { Bump(&(v->*member), n); });
  } else if constexpr (std::is_same_v<T, spark::SparkConfig>) {
    spark::ForEachSparkField(
        *v, [&](const char*, auto, uint64_t, auto& f) { Bump(&f, n); });
  } else if constexpr (IsVector<T>::value) {
    v->resize(v->size() + 2);
    for (auto& x : *v) Bump(&x, n);
  } else if constexpr (IsPair<T>::value) {
    Bump(&v->first, n);
    Bump(&v->second, n);
  } else if constexpr (std::is_same_v<T, bool>) {
    ++*n;
    *v = !*v;
  } else if constexpr (std::is_enum_v<T>) {
    // Every listed enum field defaults to a value that has a successor.
    ++*n;
    *v = static_cast<T>(static_cast<int>(*v) + 1);
  } else if constexpr (std::is_same_v<T, std::string>) {
    *v += '/';
    *v += std::to_string(++*n);
  } else if constexpr (std::is_same_v<T, double>) {
    *v += 0.1 * ++*n;  // not a float: a narrower double codec loses it
  } else {
    *v = static_cast<T>(*v + ++*n);
  }
}

using Leaves = std::map<std::string, std::string>;

// Every leaf of `v` as path -> value.
template <typename T>
void Render(const T& v, const std::string& path, Leaves* out) {
  if constexpr (Listed<T>) {
    T::ForEachField([&](const char* name, auto member, auto...) {
      Render(v.*member, path + "." + name, out);
    });
  } else if constexpr (std::is_same_v<T, spark::SparkConfig>) {
    spark::ForEachSparkField(
        v, [&](const char* name, auto, uint64_t, const auto& f) {
          Render(f, path + "." + name, out);
        });
  } else if constexpr (IsVector<T>::value) {
    (*out)[path + ".size"] = std::to_string(v.size());
    for (size_t i = 0; i < v.size(); ++i) {
      Render(v[i], path + "[" + std::to_string(i) + "]", out);
    }
  } else if constexpr (IsPair<T>::value) {
    Render(v.first, path + ".first", out);
    Render(v.second, path + ".second", out);
  } else {
    std::ostringstream s;
    s << std::setprecision(17);
    if constexpr (std::is_enum_v<T>) {
      s << static_cast<int>(v);
    } else if constexpr (std::is_integral_v<T>) {
      s << +v;
    } else {
      s << v;
    }
    (*out)[path] = s.str();
  }
}

template <typename T>
Leaves LeavesOf(const T& v) {
  Leaves out;
  Render(v, "", &out);
  return out;
}

template <typename T>
void ExpectRoundTrip() {
  T sent;
  int n = 0;
  Bump(&sent, &n);
  ByteWriter w;
  Put(&w, sent);
  ByteReader r(w.data(), w.size());
  T got;
  Get(&r, &got);
  EXPECT_EQ(r.position(), w.size()) << "reader did not end with the buffer";

  const Leaves want = LeavesOf(sent);
  const Leaves defaults = LeavesOf(T{});
  EXPECT_EQ(LeavesOf(got), want);
  for (const auto& [path, value] : want) {
    auto it = defaults.find(path);
    if (it != defaults.end()) {
      EXPECT_NE(value, it->second) << path << " not moved off its default";
    }
  }
}

TEST(WireCodecTest, ExecutorSnapshotRoundTrips) {
  ExpectRoundTrip<spark::ExecutorSnapshot>();
}

TEST(WireCodecTest, RemoteTaskMessagesRoundTrip) {
  ExpectRoundTrip<exec::RemoteTaskEnvelope>();
  ExpectRoundTrip<exec::RemoteTaskOutcome>();
}

TEST(WireCodecTest, HandshakeAndBarrierMessagesRoundTrip) {
  ExpectRoundTrip<cluster::JobSpec>();
  ExpectRoundTrip<cluster::HelloMsg>();
  ExpectRoundTrip<cluster::ReadyMsg>();
  ExpectRoundTrip<cluster::StageDoneMsg>();
  ExpectRoundTrip<std::vector<std::pair<int, uint16_t>>>();  // kUpdatePeers
}

TEST(WireCodecTest, WorkloadParamsRoundTrip) {
  ExpectRoundTrip<workloads::WordCountParams>();
  ExpectRoundTrip<workloads::MlParams>();
  ExpectRoundTrip<workloads::ServeParams>();
  ExpectRoundTrip<workloads::ProbeParams>();
}

TEST(WireCodecTest, ControlFrameCarriesTypeAndBody) {
  spark::ExecutorSnapshot sent;
  int n = 0;
  Bump(&sent, &n);
  std::vector<uint8_t> frame = net::CtrlFrame(net::CtrlType::kStageAck, sent);
  EXPECT_EQ(net::CtrlTypeOf(frame), net::CtrlType::kStageAck);
  spark::ExecutorSnapshot got;
  net::ReadCtrl(frame, net::CtrlType::kStageAck, &got);
  EXPECT_EQ(LeavesOf(got), LeavesOf(sent));
  EXPECT_DEATH(net::ReadCtrl(frame, net::CtrlType::kTaskResult, &got),
               "control frame of type 39 where 37 was expected");
}

// `add(&into, from)` must apply each entry's fold: a sum, or the larger
// value whichever side holds it.
template <typename T, typename AddFn>
void ExpectFoldsByList(AddFn add) {
  T small;
  T large;
  int n = 0;
  Bump(&small, &n);
  Bump(&large, &n);  // every leaf above its twin in `small`
  for (bool large_into : {false, true}) {
    T into = large_into ? large : small;
    add(&into, large_into ? small : large);
    T::ForEachField([&](const char* name, auto member, Fold fold) {
      const auto a = small.*member;
      const auto b = large.*member;
      EXPECT_EQ(into.*member, fold == Fold::kSum ? a + b : std::max(a, b))
          << name << (large_into ? " (larger side folded into)" : "");
    });
  }
}

TEST(WireCodecTest, FoldedListsFoldAsListed) {
  ExpectFoldsByList<spark::TaskMetrics>(
      [](spark::TaskMetrics* into, const spark::TaskMetrics& from) {
        into->Accumulate(from);
      });
  ExpectFoldsByList<spark::TierCounters>(
      [](spark::TierCounters* into, const spark::TierCounters& from) {
        into->Add(from);
      });
  ExpectFoldsByList<alloc::AllocStats>(
      [](alloc::AllocStats* into, const alloc::AllocStats& from) {
        into->Add(from);
      });
  ExpectFoldsByList<spark::GcPauseSummary>(
      [](spark::GcPauseSummary* into, const spark::GcPauseSummary& from) {
        into->Add(from);
      });
}

}  // namespace
}  // namespace deca
