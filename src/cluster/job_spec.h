#ifndef DECA_CLUSTER_JOB_SPEC_H_
#define DECA_CLUSTER_JOB_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "spark/config.h"

namespace deca::cluster {

/// Everything a freshly exec'd deca_executord needs to reconstruct the
/// driver's job: the full engine configuration, the registered workload
/// to run, and that workload's encoded parameters. Shipped as the kSpec
/// reply of the registration handshake. The SPMD contract depends on
/// the config codec being lossless for every field that influences
/// results, GC or fault injection, so it is generated from the field list
/// (spark::ForEachSparkField): a setting off that list never crosses.
struct JobSpec {
  spark::SparkConfig config;  // runtime member is never serialized
  std::string workload;
  std::vector<uint8_t> params;
};

/// Registration handshake, daemon -> driver (reply: kSpec + JobSpec).
struct HelloMsg {
  int32_t executor = -1;
  int32_t generation = 0;
  int64_t pid = -1;
  uint16_t control_port = 0;
};

/// Second handshake round trip, daemon -> driver once its data-plane
/// mesh endpoint is listening (reply: kReadyAck).
struct ReadyMsg {
  int32_t executor = -1;
  int32_t generation = 0;
  uint16_t data_port = 0;
};

void EncodeSparkConfig(const spark::SparkConfig& config, ByteWriter* w);
spark::SparkConfig DecodeSparkConfig(ByteReader* r);

void EncodeJobSpec(const JobSpec& spec, ByteWriter* w);
JobSpec DecodeJobSpec(ByteReader* r);

void EncodeHello(const HelloMsg& msg, ByteWriter* w);
HelloMsg DecodeHello(ByteReader* r);

void EncodeReady(const ReadyMsg& msg, ByteWriter* w);
ReadyMsg DecodeReady(ByteReader* r);

}  // namespace deca::cluster

#endif  // DECA_CLUSTER_JOB_SPEC_H_
