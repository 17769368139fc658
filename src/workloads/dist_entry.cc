#include "workloads/dist_entry.h"

#include <unistd.h>

#include "cluster/daemon_runtime.h"
#include "cluster/scoped_job.h"
#include "cluster/workload_registry.h"
#include "common/clock.h"

namespace deca::workloads {

namespace {

// Tripwires: a member added to a params struct breaks its binding until it
// is listed, or counted here as off the wire like `spark`.
[[maybe_unused]] void CheckParamsLists(WordCountParams& wc, MlParams& ml,
                                       ServeParams& sv, ProbeParams& pr) {
  [[maybe_unused]] auto& [w0, w1, w2, w3, w4, w5, w6, w7] = wc;
  static_assert(FieldCount<WordCountParams>() == 8 - 1);
  [[maybe_unused]] auto& [m0, m1, m2, m3, m4, m5, m6, m7] = ml;
  static_assert(FieldCount<MlParams>() == 8 - 1);
  [[maybe_unused]] auto& [s0, s1, s2, s3, s4, s5, s6] = sv;
  static_assert(FieldCount<ServeParams>() == 7 - 1);
  [[maybe_unused]] auto& [p0, p1, p2, p3, p4, p5] = pr;
  static_assert(FieldCount<ProbeParams>() == 6 - 1);
}

}  // namespace

ProbeResult RunDistProbe(const ProbeParams& params) {
  spark::SparkConfig cfg = params.spark;
  cluster::ScopedJob job(&cfg, "probe", EncodeBytes(params));
  spark::SparkContext ctx(cfg);

  ProbeResult result;
  Stopwatch sw;
  uint64_t checksum = 0;
  for (int s = 0; s < params.stages; ++s) {
    auto blobs = ctx.RunCollectStage(
        "probe", [&params, s](spark::TaskContext& tc) -> std::vector<uint8_t> {
          cluster::DaemonRuntime* rt = cluster::DaemonRuntime::Current();
          if (rt != nullptr && s == params.die_stage &&
              tc.partition() == params.die_partition &&
              rt->generation() < params.die_generations) {
            // Sudden death, indistinguishable from a SIGKILL: no reply,
            // no unwinding, the heartbeat monitor must find out.
            _exit(137);
          }
          uint64_t h = 0;
          for (uint64_t i = 0; i < params.items_per_partition; ++i) {
            uint64_t x = (static_cast<uint64_t>(s) << 32) ^
                         (static_cast<uint64_t>(tc.partition()) << 16) ^ i;
            x *= 0x9e3779b97f4a7c15ULL;
            x ^= x >> 29;
            h ^= x;
          }
          return EncodeBytes(h);
        });
    // Position-sensitive fold so a permuted gather would show up.
    for (const auto& blob : blobs) {
      checksum = checksum * 1099511628211ULL ^ DecodeBytes<uint64_t>(blob);
    }
  }
  result.checksum = checksum;
  result.run.exec_ms = sw.ElapsedMillis();
  FinalizeResult(&ctx, &result.run);
  return result;
}

void RegisterDistWorkloads() {
  cluster::RegisterWorkload(
      "wordcount", [](const spark::SparkConfig& base,
                      const std::vector<uint8_t>& blob) {
        auto p = DecodeBytes<WordCountParams>(blob);
        p.spark = base;
        RunWordCount(p);
      });
  cluster::RegisterWorkload(
      "lr", [](const spark::SparkConfig& base,
               const std::vector<uint8_t>& blob) {
        auto p = DecodeBytes<MlParams>(blob);
        p.spark = base;
        RunLogisticRegression(p);
      });
  cluster::RegisterWorkload(
      "serve", [](const spark::SparkConfig& base,
                  const std::vector<uint8_t>& blob) {
        auto p = DecodeBytes<ServeParams>(blob);
        p.spark = base;
        RunServeCache(p);
      });
  cluster::RegisterWorkload(
      "probe", [](const spark::SparkConfig& base,
                  const std::vector<uint8_t>& blob) {
        auto p = DecodeBytes<ProbeParams>(blob);
        p.spark = base;
        RunDistProbe(p);
      });
}

}  // namespace deca::workloads
