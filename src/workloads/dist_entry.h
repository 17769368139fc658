#ifndef DECA_WORKLOADS_DIST_ENTRY_H_
#define DECA_WORKLOADS_DIST_ENTRY_H_

#include <cstdint>
#include <vector>

#include "common/field_codec.h"
#include "workloads/common.h"
#include "workloads/lr.h"
#include "workloads/serve_entry.h"
#include "workloads/wordcount.h"

namespace deca::workloads {

/// A scripted control-plane exercise: `stages` shuffle-free
/// compute-and-collect stages over heapless checksum tasks. With a
/// `die_*` script, the daemon whose generation is still below
/// `die_generations` kills itself (_exit) the instant it starts
/// task `die_partition` of stage `die_stage` — a real mid-stage
/// SIGKILL-grade death for the quarantine/recovery tests. Duplicate
/// re-execution of probe tasks is harmless by construction: they
/// allocate nothing and collect pure values.
struct ProbeParams {
  int stages = 3;
  uint64_t items_per_partition = 1 << 12;
  int die_stage = -1;
  int die_partition = -1;
  int die_generations = 0;  // generations [0, N) self-kill
  spark::SparkConfig spark;

  /// The job-spec params blob; `spark` travels as the JobSpec's config.
  template <typename F>
  static constexpr void ForEachField(F&& f) {
    using Self = ProbeParams;
    DECA_WIRE(stages);
    DECA_WIRE(items_per_partition);
    DECA_WIRE(die_stage);
    DECA_WIRE(die_partition);
    DECA_WIRE(die_generations);
  }
};

struct ProbeResult {
  RunResult run;
  uint64_t checksum = 0;
};

ProbeResult RunDistProbe(const ProbeParams& params);

/// Registers every distributed workload with the cluster registry. A
/// workload's params cross as EncodeBytes/DecodeBytes of its params
/// struct, whose field list leaves out `spark`: the SparkConfig ships
/// separately in the JobSpec, and the daemon-side wrappers graft it back
/// on before running, so there is exactly one authoritative config per
/// job.
/// Called explicitly from daemon mains (static initializers in a static
/// library would be dropped by the linker).
void RegisterDistWorkloads();

}  // namespace deca::workloads

#endif  // DECA_WORKLOADS_DIST_ENTRY_H_
