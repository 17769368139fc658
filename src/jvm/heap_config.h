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

  /// Object age (number of survived minor GCs) at which objects are
  /// promoted to the old generation.
  uint32_t tenure_threshold = 4;

  GcAlgorithm algorithm = GcAlgorithm::kParallelScavenge;

  /// Marking pause budget in milliseconds. 0 (default) keeps the
  /// monolithic stop-the-world mark phases byte-for-byte identical to the
  /// historical behaviour. > 0 splits every mark into resumable slices of
  /// at most this duration: allocation-triggered collections run their
  /// slices back to back inside the pause (same marked set, bounded slice
  /// samples), while occupancy-triggered cycles (CMS background cycle, G1
  /// IHOP mark) become genuinely incremental with mutator progress between
  /// slices (SATB dirty-logging keeps them sound).
  double pause_budget_ms = 0.0;

  /// Runtime wiring (never serialized; set by the owning Executor): when
  /// non-null the heap counts its backing buffer here, next to the
  /// executor's other native buffers. Null (the default, and every
  /// standalone test heap) leaves the buffer uncounted.
  alloc::AllocCounter* alloc_counter = nullptr;
};

// Fixed heap policy, the same in every run.

/// Fraction of the heap given to the young generation (PS/CMS) or the
/// maximum young region share (G1).
inline constexpr double kYoungFraction = 0.25;

/// Each survivor's share of the young generation (PS/CMS).
inline constexpr double kSurvivorFraction = 0.125;

/// Objects at least this large are allocated directly in the old
/// generation (PS/CMS) or as humongous regions (G1).
inline constexpr size_t kLargeObjectBytes = 32u << 10;

/// G1: old-generation occupancy fraction that triggers a marking cycle
/// (InitiatingHeapOccupancyPercent analogue).
inline constexpr double kG1Ihop = 0.45;

/// G1: old regions with live ratio below this become evacuation
/// candidates during mixed collections.
inline constexpr double kG1LiveThreshold = 0.85;

/// CMS/G1: share of major-collection mark/sweep work charged as
/// stop-the-world pause; the remainder is accounted as concurrent work
/// (running on spare cores in a real deployment).
inline constexpr double kConcurrentPauseShare = 0.1;

}  // namespace deca::jvm

#endif  // DECA_JVM_HEAP_CONFIG_H_
