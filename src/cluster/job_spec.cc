#include "cluster/job_spec.h"

#include <type_traits>

namespace deca::cluster {

namespace {

// One put/get pair per C++ type a listed SparkConfig field has.
void Put(ByteWriter* w, int v) { w->WriteVarI64(v); }
void Put(ByteWriter* w, uint32_t v) { w->WriteVarU64(v); }
void Put(ByteWriter* w, uint64_t v) { w->WriteVarU64(v); }
void Put(ByteWriter* w, double v) { w->Write<double>(v); }
void Put(ByteWriter* w, const std::string& v) { w->WriteString(v); }
template <typename E>  // bool and the enums: one byte
  requires std::is_enum_v<E> || std::is_same_v<E, bool>
void Put(ByteWriter* w, E v) {
  w->Write<uint8_t>(static_cast<uint8_t>(v));
}

void Get(ByteReader* r, int* v) { *v = static_cast<int>(r->ReadVarI64()); }
void Get(ByteReader* r, uint32_t* v) {
  *v = static_cast<uint32_t>(r->ReadVarU64());
}
void Get(ByteReader* r, uint64_t* v) { *v = r->ReadVarU64(); }
void Get(ByteReader* r, double* v) { *v = r->Read<double>(); }
void Get(ByteReader* r, std::string* v) { *v = r->ReadString(); }
template <typename E>
  requires std::is_enum_v<E> || std::is_same_v<E, bool>
void Get(ByteReader* r, E* v) {
  *v = static_cast<E>(r->Read<uint8_t>());
}

// Tripwire: a member added to any of these structs breaks its binding, so
// whoever adds one decides whether it joins spark::ForEachSparkField's
// list before updating the count here.
[[maybe_unused]] void CheckFieldListCoversEveryMember(spark::SparkConfig& c) {
  [[maybe_unused]] auto& [s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11,
                          s12, s13, s14, s15, s16, s17, s18, s19, s20, s21,
                          s22, s23, s24, s25, s26, s27] = c;
  [[maybe_unused]] auto& [h0, h1, h2, h3, h4, h5, h6, h7, h8, h9, h10, h11] =
      c.heap;
  [[maybe_unused]] auto& [f0, f1, f2, f3, f4, f5] = c.fault;
  [[maybe_unused]] auto& [k0, k1, k2, k3, k4, k5, k6, k7, k8] = c.cluster;
}

}  // namespace

void EncodeSparkConfig(const spark::SparkConfig& c, ByteWriter* w) {
  spark::ForEachSparkField(
      c, [w](const char*, auto, uint64_t, const auto& v) { Put(w, v); });
}

spark::SparkConfig DecodeSparkConfig(ByteReader* r) {
  spark::SparkConfig c;
  spark::ForEachSparkField(
      c, [r](const char*, auto, uint64_t, auto& v) { Get(r, &v); });
  return c;
}

void EncodeJobSpec(const JobSpec& spec, ByteWriter* w) {
  EncodeSparkConfig(spec.config, w);
  w->WriteString(spec.workload);
  w->WriteVarU64(spec.params.size());
  w->WriteBytes(spec.params.data(), spec.params.size());
}

JobSpec DecodeJobSpec(ByteReader* r) {
  JobSpec spec;
  spec.config = DecodeSparkConfig(r);
  spec.workload = r->ReadString();
  uint64_t n = r->ReadVarU64();
  spec.params.resize(static_cast<size_t>(n));
  r->ReadBytes(spec.params.data(), spec.params.size());
  return spec;
}

void EncodeHello(const HelloMsg& msg, ByteWriter* w) {
  w->WriteVarI64(msg.executor);
  w->WriteVarI64(msg.generation);
  w->WriteVarI64(msg.pid);
  w->WriteVarU64(msg.control_port);
}

HelloMsg DecodeHello(ByteReader* r) {
  HelloMsg msg;
  msg.executor = static_cast<int32_t>(r->ReadVarI64());
  msg.generation = static_cast<int32_t>(r->ReadVarI64());
  msg.pid = r->ReadVarI64();
  msg.control_port = static_cast<uint16_t>(r->ReadVarU64());
  return msg;
}

void EncodeReady(const ReadyMsg& msg, ByteWriter* w) {
  w->WriteVarI64(msg.executor);
  w->WriteVarI64(msg.generation);
  w->WriteVarU64(msg.data_port);
}

ReadyMsg DecodeReady(ByteReader* r) {
  ReadyMsg msg;
  msg.executor = static_cast<int32_t>(r->ReadVarI64());
  msg.generation = static_cast<int32_t>(r->ReadVarI64());
  msg.data_port = static_cast<uint16_t>(r->ReadVarU64());
  return msg;
}

}  // namespace deca::cluster
