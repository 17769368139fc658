#include "cluster/job_spec.h"

namespace deca {

namespace {

// Tripwires: a member added to any of these structs breaks its binding, so
// whoever adds one decides whether it joins the struct's list (for
// SparkConfig, spark::ForEachSparkField's) before updating the count here.
[[maybe_unused]] void CheckFieldListCoversEveryMember(spark::SparkConfig& c) {
  [[maybe_unused]] auto& [s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11,
                          s12, s13, s14, s15, s16, s17, s18, s19, s20, s21,
                          s22, s23, s24, s25, s26] = c;
  [[maybe_unused]] auto& [h0, h1, h2, h3, h4] = c.heap;
  [[maybe_unused]] auto& [f0, f1, f2, f3, f4, f5] = c.fault;
  [[maybe_unused]] auto& [k0, k1, k2, k3, k4, k5, k6, k7, k8] = c.cluster;
}

[[maybe_unused]] void CheckMessageLists(cluster::JobSpec& j,
                                        cluster::HelloMsg& h,
                                        cluster::ReadyMsg& r,
                                        cluster::StageDoneMsg& s) {
  [[maybe_unused]] auto& [j0, j1, j2] = j;
  static_assert(FieldCount<cluster::JobSpec>() == 3);
  [[maybe_unused]] auto& [h0, h1, h2] = h;
  static_assert(FieldCount<cluster::HelloMsg>() == 3);
  [[maybe_unused]] auto& [r0, r1, r2] = r;
  static_assert(FieldCount<cluster::ReadyMsg>() == 3);
  [[maybe_unused]] auto& [s0, s1] = s;
  static_assert(FieldCount<cluster::StageDoneMsg>() == 2);
}

}  // namespace

void Put(ByteWriter* w, const spark::SparkConfig& c) {
  spark::ForEachSparkField(
      c, [w](const char*, auto, uint64_t, const auto& v) { Put(w, v); });
}

void Get(ByteReader* r, spark::SparkConfig* c) {
  spark::ForEachSparkField(
      *c, [r](const char*, auto, uint64_t, auto& v) { Get(r, &v); });
}

}  // namespace deca
