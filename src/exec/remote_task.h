#ifndef DECA_EXEC_REMOTE_TASK_H_
#define DECA_EXEC_REMOTE_TASK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/field_codec.h"
#include "spark/metrics.h"

namespace deca::exec {

/// What one task attempt produced. spark::SparkContext::RunAttempt runs
/// every attempt, in-process and in an executor daemon alike, and
/// classifies its failure here; one retry loop then retries it or throws
/// the typed failure below, so retry accounting and fault counters are
/// the same in both modes.
enum class RemoteTaskStatus : uint8_t {
  kOk = 0,
  kInjectedFailure = 1,  // -> fault::InjectedTaskFailure
  kFetchFailure = 2,     // -> fault::ShuffleFetchFailure
  kOom = 3,              // -> fault::TaskOomFailure
  kFatal = 4,            // unclassified exception in a daemon: job fails
};

/// One task attempt, run in-process or dispatched over the control plane.
/// In SPMD mode the daemon already runs the same program, so the envelope
/// carries only coordinates — the closure is found by (stage seq,
/// partition) in the daemon's currently-serving stage. `attempt == -1`
/// marks a lineage replay (a RegisterLineage or RunMapStage function,
/// looked up by replay_token).
struct RemoteTaskEnvelope {
  int32_t stage = 0;
  int32_t partition = 0;
  int32_t attempt = 0;
  int64_t replay_token = -1;  // >= 0 for replay executions

  template <typename F>
  static constexpr void ForEachField(F&& f) {
    using Self = RemoteTaskEnvelope;
    DECA_WIRE(stage);
    DECA_WIRE(partition);
    DECA_WIRE(attempt);
    DECA_WIRE(replay_token);
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

  template <typename F>
  static constexpr void ForEachField(F&& f) {
    using Self = RemoteTaskOutcome;
    DECA_WIRE(status);
    DECA_WIRE(fired_delta);
    DECA_WIRE(metrics);
    DECA_WIRE(message);
    DECA_WIRE(heap_dump);
    DECA_WIRE(result);
  }
};

// Tripwires: a new member breaks its struct's binding until it is listed.
inline void CheckRemoteTaskLists(RemoteTaskEnvelope& e, RemoteTaskOutcome& o) {
  [[maybe_unused]] auto& [e0, e1, e2, e3] = e;
  static_assert(FieldCount<RemoteTaskEnvelope>() == 4);
  [[maybe_unused]] auto& [o0, o1, o2, o3, o4, o5] = o;
  static_assert(FieldCount<RemoteTaskOutcome>() == 6);
}

}  // namespace deca::exec

#endif  // DECA_EXEC_REMOTE_TASK_H_
