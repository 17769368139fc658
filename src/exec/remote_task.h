#ifndef DECA_EXEC_REMOTE_TASK_H_
#define DECA_EXEC_REMOTE_TASK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "spark/metrics.h"

namespace deca::exec {

/// What a remotely executed task attempt produced, from the daemon's
/// point of view. The driver maps these back onto the exact exception
/// types the in-process scheduler would have seen, so retry accounting
/// and fault counters stay bit-identical across the two modes.
enum class RemoteTaskStatus : uint8_t {
  kOk = 0,
  kInjectedFailure = 1,  // -> fault::InjectedTaskFailure
  kFetchFailure = 2,     // -> fault::ShuffleFetchFailure
  kOom = 3,              // -> OutOfMemoryError / fault::TaskOomFailure
  kFatal = 4,            // unexpected exception: propagate as-is
};

/// Writes a length-prefixed byte blob.
inline void WriteBlob(ByteWriter* w, const std::vector<uint8_t>& blob) {
  w->WriteVarU64(blob.size());
  w->WriteBytes(blob.data(), blob.size());
}

inline std::vector<uint8_t> ReadBlob(ByteReader* r) {
  std::vector<uint8_t> blob(r->ReadVarU64());
  r->ReadBytes(blob.data(), blob.size());
  return blob;
}

/// One task attempt dispatched over the control plane. In SPMD mode the
/// daemon already runs the same program, so the envelope carries only
/// coordinates — the closure is found by (stage seq, partition) in the
/// daemon's currently-serving stage. `attempt == -1` marks a lineage
/// replay execution (RegisterLineage body, looked up by replay_token).
struct RemoteTaskEnvelope {
  int32_t stage = 0;
  int32_t partition = 0;
  int32_t attempt = 0;
  bool collect = false;       // task returns a result blob
  int64_t replay_token = -1;  // >= 0 for replay executions
  double queue_ms = 0.0;      // driver-side dispatch queue time

  void Encode(ByteWriter* w) const {
    w->WriteVarI64(stage);
    w->WriteVarI64(partition);
    w->WriteVarI64(attempt);
    w->Write<uint8_t>(collect ? 1 : 0);
    w->WriteVarI64(replay_token);
    w->Write<double>(queue_ms);
  }
  static RemoteTaskEnvelope Decode(ByteReader* r) {
    RemoteTaskEnvelope e;
    e.stage = static_cast<int32_t>(r->ReadVarI64());
    e.partition = static_cast<int32_t>(r->ReadVarI64());
    e.attempt = static_cast<int32_t>(r->ReadVarI64());
    e.collect = r->Read<uint8_t>() != 0;
    e.replay_token = r->ReadVarI64();
    e.queue_ms = r->Read<double>();
    return e;
  }
};

/// The attempt's outcome. `fired_delta` is how many injected faults the
/// daemon's (identically seeded) injector fired during this attempt, so
/// the driver's injected-fault counter matches the in-process run.
struct RemoteTaskOutcome {
  RemoteTaskStatus status = RemoteTaskStatus::kOk;
  uint64_t fired_delta = 0;
  spark::TaskMetrics metrics;
  std::string message;          // failure detail (kFatal), empty otherwise
  std::string heap_dump;        // collector state dump (kOom only)
  std::vector<uint8_t> result;  // collect blob (kOk + collect only)

  void Encode(ByteWriter* w) const {
    w->Write<uint8_t>(static_cast<uint8_t>(status));
    w->WriteVarU64(fired_delta);
    w->Write<double>(metrics.total_ms);
    w->Write<double>(metrics.queue_ms);
    w->Write<double>(metrics.gc_ms);
    w->Write<double>(metrics.shuffle_read_ms);
    w->Write<double>(metrics.shuffle_write_ms);
    w->Write<double>(metrics.ser_ms);
    w->Write<double>(metrics.deser_ms);
    w->Write<double>(metrics.spill_ms);
    w->WriteVarU64(metrics.exec_pool_peak_bytes);
    w->WriteVarU64(metrics.storage_pool_peak_bytes);
    w->WriteVarU64(metrics.denied_reservations);
    w->WriteString(message);
    w->WriteString(heap_dump);
    WriteBlob(w, result);
  }
  static RemoteTaskOutcome Decode(ByteReader* r) {
    RemoteTaskOutcome o;
    o.status = static_cast<RemoteTaskStatus>(r->Read<uint8_t>());
    o.fired_delta = r->ReadVarU64();
    o.metrics.total_ms = r->Read<double>();
    o.metrics.queue_ms = r->Read<double>();
    o.metrics.gc_ms = r->Read<double>();
    o.metrics.shuffle_read_ms = r->Read<double>();
    o.metrics.shuffle_write_ms = r->Read<double>();
    o.metrics.ser_ms = r->Read<double>();
    o.metrics.deser_ms = r->Read<double>();
    o.metrics.spill_ms = r->Read<double>();
    o.metrics.exec_pool_peak_bytes = r->ReadVarU64();
    o.metrics.storage_pool_peak_bytes = r->ReadVarU64();
    o.metrics.denied_reservations = r->ReadVarU64();
    o.message = r->ReadString();
    o.heap_dump = r->ReadString();
    o.result = ReadBlob(r);
    return o;
  }
};

}  // namespace deca::exec

#endif  // DECA_EXEC_REMOTE_TASK_H_
