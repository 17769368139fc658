#ifndef DECA_CLUSTER_JOB_SPEC_H_
#define DECA_CLUSTER_JOB_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/field_codec.h"
#include "spark/config.h"

namespace deca {

/// The SparkConfig's wire codec, generated from spark::ForEachSparkField:
/// a setting off that list never crosses. The SPMD contract depends on it
/// being lossless for every field that influences results, GC or fault
/// injection.
void Put(ByteWriter* w, const spark::SparkConfig& config);
void Get(ByteReader* r, spark::SparkConfig* config);

}  // namespace deca

namespace deca::cluster {

/// Everything a freshly exec'd deca_executord needs to reconstruct the
/// driver's job: the full engine configuration, the registered workload
/// to run, and that workload's encoded parameters. Shipped as the kSpec
/// reply of the registration handshake.
struct JobSpec {
  spark::SparkConfig config;  // runtime member is never serialized
  std::string workload;
  std::vector<uint8_t> params;

  template <typename F>
  static constexpr void ForEachField(F&& f) {
    using Self = JobSpec;
    DECA_WIRE(config);
    DECA_WIRE(workload);
    DECA_WIRE(params);
  }
};

/// Registration handshake, daemon -> driver (reply: kSpec + JobSpec).
struct HelloMsg {
  int32_t executor = -1;
  int32_t generation = 0;
  uint16_t control_port = 0;

  template <typename F>
  static constexpr void ForEachField(F&& f) {
    using Self = HelloMsg;
    DECA_WIRE(executor);
    DECA_WIRE(generation);
    DECA_WIRE(control_port);
  }
};

/// Second handshake round trip, daemon -> driver once its data-plane
/// mesh endpoint is listening (reply: kReadyAck).
struct ReadyMsg {
  int32_t executor = -1;
  int32_t generation = 0;
  uint16_t data_port = 0;

  template <typename F>
  static constexpr void ForEachField(F&& f) {
    using Self = ReadyMsg;
    DECA_WIRE(executor);
    DECA_WIRE(generation);
    DECA_WIRE(data_port);
  }
};

/// Stage barrier, driver -> daemon (reply: kStageAck + the executor's
/// snapshot): the stage seq and the collect blobs every daemon folds. The
/// driver keeps each one it sent, to fast-forward respawned daemons.
struct StageDoneMsg {
  int32_t stage = -1;
  std::vector<std::vector<uint8_t>> blobs;

  template <typename F>
  static constexpr void ForEachField(F&& f) {
    using Self = StageDoneMsg;
    DECA_WIRE(stage);
    DECA_WIRE(blobs);
  }
};

}  // namespace deca::cluster

#endif  // DECA_CLUSTER_JOB_SPEC_H_
