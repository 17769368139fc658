#ifndef DECA_JVM_HEAP_CONFIG_H_
#define DECA_JVM_HEAP_CONFIG_H_

#include <cstddef>
#include <cstdint>

namespace deca::alloc {
class AllocCounter;
}  // namespace deca::alloc

namespace deca::jvm {

/// Which garbage collector manages the heap. Mirrors the three Hotspot
/// collectors the paper evaluates (Section 6.4, Table 4).
enum class GcAlgorithm {
  kParallelScavenge,    // default: STW copying minor + mark-compact full
  kConcurrentMarkSweep, // free-list old gen, mostly-concurrent major
  kG1,                  // region-based, liveness-driven mixed collections
};

const char* GcAlgorithmName(GcAlgorithm a);

/// Static sizing and policy knobs for one simulated executor heap.
struct HeapConfig {
  /// Total managed heap size (the executor's -Xmx).
  size_t heap_bytes = 64u << 20;

  /// Fraction of the heap given to the young generation (PS/CMS) or the
  /// maximum young region share (G1).
  double young_fraction = 0.25;

  /// Each survivor's share of the young generation (PS/CMS).
  double survivor_fraction = 0.125;

  /// Object age (number of survived minor GCs) at which objects are
  /// promoted to the old generation.
  uint32_t tenure_threshold = 4;

  /// Objects at least this large are allocated directly in the old
  /// generation (PS/CMS) or as humongous regions (G1).
  size_t large_object_bytes = 32u << 10;

  GcAlgorithm algorithm = GcAlgorithm::kParallelScavenge;

  /// G1: region size; 0 = auto (heap/128 clamped to [64KB, 1MB]).
  size_t g1_region_bytes = 0;

  /// G1: old-generation occupancy fraction that triggers a marking cycle
  /// (InitiatingHeapOccupancyPercent analogue).
  double g1_ihop = 0.45;

  /// G1: old regions with live ratio below this become evacuation
  /// candidates during mixed collections.
  double g1_live_threshold = 0.85;

  /// CMS/G1: share of major-collection mark/sweep work charged as
  /// stop-the-world pause; the remainder is accounted as concurrent work
  /// (running on spare cores in a real deployment).
  double concurrent_pause_share = 0.1;

  /// Marking pause budget in milliseconds. 0 (default) keeps the
  /// monolithic stop-the-world mark phases byte-for-byte identical to the
  /// historical behaviour. > 0 splits every mark into resumable slices of
  /// at most this duration: allocation-triggered collections run their
  /// slices back to back inside the pause (same marked set, bounded slice
  /// samples), while occupancy-triggered cycles (CMS background cycle, G1
  /// IHOP mark) become genuinely incremental with mutator progress between
  /// slices (SATB dirty-logging keeps them sound).
  double pause_budget_ms = 0.0;

  /// Sampling allocation profiler: take one survival sample every this
  /// many allocated bytes (0 = profiler disabled). Sampling is
  /// deterministic: the first sample point is derived from profile_seed.
  size_t profile_sample_bytes = 0;

  /// Seed for the profiler's initial sampling offset.
  uint64_t profile_seed = 1;

  /// Runtime wiring (never serialized; set by the owning Executor): when
  /// non-null the heap counts its backing buffer here, next to the
  /// executor's other native buffers. Null (the default, and every
  /// standalone test heap) leaves the buffer uncounted.
  alloc::AllocCounter* alloc_counter = nullptr;
};

}  // namespace deca::jvm

#endif  // DECA_JVM_HEAP_CONFIG_H_
