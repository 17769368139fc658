#ifndef DECA_SPARK_CONFIG_H_
#define DECA_SPARK_CONFIG_H_

#include <string>

#include "fault/fault_config.h"
#include "jvm/heap_config.h"
#include "spark/dist.h"

namespace deca::spark {

/// How cached RDD blocks are stored in an executor.
enum class StorageLevel {
  /// Deserialized managed objects (Spark's MEMORY_AND_DISK): fastest to
  /// access, most GC load.
  kMemoryObjects,
  /// One managed byte array per block holding Kryo-style serialized
  /// records (Spark's MEMORY_AND_DISK_SER — the paper's "SparkSer").
  kMemorySerialized,
  /// Deca page groups of decomposed records.
  kDecaPages,
};

const char* StorageLevelName(StorageLevel s);

/// Re-admission policy for blocks served from the serialized off-heap
/// tier (T1) or disk (T2). Decisions are driven purely by per-block
/// access counts, so they are deterministic.
enum class AdmitPolicy {
  /// Every access promotes the block back up one tier.
  kAlways,
  /// Promote on the second access after demotion: a one-shot scan cannot
  /// thrash the resident working set, a re-used block earns its way back.
  kOnSecondAccess,
  /// Never promote; demoted blocks are served as temporary views forever.
  kNever,
};

/// The value's spelling in a DECA_* knob, or "?" past the last value: one
/// overload per enum a knob sets (DistMode's is in spark/dist.h).
const char* EnumName(AdmitPolicy p);

/// How shuffle chunks travel from map tasks to reducers.
enum class ShuffleTransport {
  /// Direct in-memory deposit/fetch (the original single-process path).
  kLocal,
  /// Framed wire messages over in-process loopback channels: real
  /// encode/frame/fetch protocol, deterministic, optional simulated
  /// latency/bandwidth. The default for network-mode tests and benches.
  kLoopback,
  /// Real TCP sockets on 127.0.0.1 (manual runs; timing not
  /// deterministic, bytes and results still are).
  kTcp,
};

const char* EnumName(ShuffleTransport t);

/// Wire codec for network shuffle chunks (see net::WireCodec).
enum class ShuffleWireCodec {
  /// Follow the workload mode: Deca runs ship pages, JVM runs ship
  /// per-record serialized frames.
  kAuto,
  kPage,    // force zero-copy page transfer
  kRecord,  // force Kryo-like per-record serialization
};

/// Engine configuration: one simulated application (driver + executors).
struct SparkConfig {
  /// Number of simulated executors, each with its own managed heap.
  int num_executors = 2;
  /// Tasks per stage = num_executors * partitions_per_executor.
  int partitions_per_executor = 2;
  /// Worker threads for the parallel task-execution runtime (src/exec).
  /// 0 keeps the legacy sequential driver loop (the default, so benchmark
  /// measurements stay deterministic); N > 0 spawns min(N, num_executors)
  /// executor threads, each the sole mutator of the heaps striped onto
  /// it. Results are bit-identical across the two modes.
  int num_worker_threads = 0;
  /// Per-executor heap sizing and GC algorithm.
  jvm::HeapConfig heap;

  /// Single per-executor byte budget arbitrated by the
  /// memory::ExecutorMemoryManager (execution + storage pools, Spark
  /// 1.6's spark.memory.* region). 0 (the default) derives it as
  /// heap_bytes * memory_fraction.
  size_t executor_memory_bytes = 0;
  /// Fraction of the heap available to storage + shuffle (Spark's
  /// spark.memory.fraction). Only consulted when executor_memory_bytes is
  /// left 0.
  double memory_fraction = 0.65;
  /// Share of executor_memory() reserved as the storage-pool floor —
  /// cached blocks below it are safe from execution-pool borrowing
  /// (Spark's spark.memory.storageFraction; the knob the paper's Table 4
  /// tunes).
  double storage_fraction = 0.5;

  /// Cached-RDD storage level.
  StorageLevel cache_level = StorageLevel::kMemoryObjects;
  /// When true, shuffle buffers with decomposable key/value types use Deca
  /// page groups with in-place aggregation instead of managed objects.
  bool deca_shuffle = false;

  /// Size of Deca's logical memory pages.
  uint32_t deca_page_bytes = 64u << 10;

  /// Depth of the block-store tier ladder. 2 (default) is the legacy
  /// heap <-> disk store, bit-identical to every prior release. 3 enables
  /// the serialized off-heap middle tier (T1): eviction demotes
  /// T0 heap blocks into compact contiguous buffers — charged to the
  /// storage pool but invisible to GC root scans — before anything is
  /// spilled to disk, and Gets re-admit under `admit_policy`.
  int storage_tiers = 2;
  /// Share of the unified executor budget the T1 tier may occupy. When a
  /// demotion would push T1 residency past the cap, LRU T1 blocks cascade
  /// to disk first (the T1 -> T2 edge of the state machine).
  double t1_fraction = 0.5;
  /// Re-admission policy for Gets that land on T1/T2 blocks.
  AdmitPolicy admit_policy = AdmitPolicy::kOnSecondAccess;

  /// True when the serialized off-heap tier is active.
  bool t1_enabled() const { return storage_tiers >= 3; }

  /// Shuffle transport seam (src/net). kLocal preserves the original
  /// in-memory path bit for bit; kLoopback/kTcp route every chunk through
  /// the framed wire protocol. Results, GC counts, and fault counters are
  /// identical across all three.
  ShuffleTransport shuffle_transport = ShuffleTransport::kLocal;
  /// Chunk wire codec (network transports only).
  ShuffleWireCodec shuffle_wire_codec = ShuffleWireCodec::kAuto;

  /// Directory for cache swap and shuffle spill files. Each SparkContext
  /// appends a unique per-context suffix (pid + counter) and removes its
  /// directory on destruction, so concurrent contexts never collide.
  std::string spill_dir = "/tmp/deca_spill";

  /// Maximum attempts per task (Spark's spark.task.maxFailures). A task
  /// that throws a retryable failure is re-run on the same executor, in
  /// the same per-executor FIFO slot, up to this many times.
  int max_task_failures = 4;

  /// Deterministic fault injection (disabled by default).
  fault::FaultConfig fault;

  /// Execution backend: every executor in this process (default) or one
  /// daemon process per executor driven over the control-plane RPC
  /// protocol. Workload digests, GC counts, and fault counters are
  /// bit-identical across the two (enforced by the equivalence matrix in
  /// tests/cluster_dist_test.cc).
  DistMode dist_mode = DistMode::kInProcess;
  /// Control-plane tuning (process mode only).
  ClusterKnobs cluster;
  /// Internal per-process wiring (role, driver/worker seams). Filled in
  /// by cluster::ScopedJob / the daemon main — never set it by hand, and
  /// it is not serialized into job specs.
  ClusterRuntime runtime;

  /// Structured tracing (src/obs). Disabled by default: no recorders are
  /// created and every hook is one thread-local load + branch. When
  /// enabled, each executor (and the driver) gets a preallocated ring of
  /// `trace_ring_capacity` events, drained at stage barriers; a full ring
  /// overwrites the oldest event and counts it as dropped.
  bool trace_enabled = false;
  uint32_t trace_ring_capacity = 1u << 15;

  /// The unified per-executor memory budget (see executor_memory_bytes).
  size_t executor_memory() const {
    if (executor_memory_bytes != 0) return executor_memory_bytes;
    return static_cast<size_t>(static_cast<double>(heap.heap_bytes) *
                               memory_fraction);
  }

  /// The execution region: executor_memory() minus the storage floor.
  /// Shuffle writers size their flush thresholds off it.
  size_t shuffle_budget_bytes() const {
    return static_cast<size_t>(static_cast<double>(executor_memory()) *
                               (1.0 - storage_fraction));
  }
};

/// The field list: every SparkConfig setting that crosses the job-spec
/// wire, once each, in wire order. Calls `f(path, env, unit, c.<path>)`
/// where `env` is the DECA_* variable that sets the field, or nullptr (a
/// std::nullptr_t, so visitors skip such rows at compile time), and `unit`
/// scales an env value into it. The job-spec codec, the bench env parser
/// and the bench config banner are generated from it; the initializers
/// above stay the only defaults. Left off the wire: `runtime` and
/// `heap.alloc_counter` (per-process wiring) and the driver-only
/// `cluster.test_suppress_heartbeats_*` hooks.
template <typename Config, typename F>
void ForEachSparkField(Config& c, F&& f) {
  constexpr uint64_t kMB = 1u << 20;
#define DECA_FIELD(path, env) f(#path, env, 1, c.path)
#define DECA_FIELD_MB(path, env) f(#path, env, kMB, c.path)
  DECA_FIELD(num_executors, "DECA_EXECUTORS");
  DECA_FIELD(partitions_per_executor, nullptr);
  DECA_FIELD(num_worker_threads, "DECA_WORKER_THREADS");
  DECA_FIELD_MB(heap.heap_bytes, "DECA_HEAP_MB");
  DECA_FIELD(heap.tenure_threshold, nullptr);
  DECA_FIELD(heap.algorithm, nullptr);
  DECA_FIELD(heap.pause_budget_ms, "DECA_PAUSE_BUDGET_MS");
  DECA_FIELD_MB(executor_memory_bytes, "DECA_EXECUTOR_MEMORY");
  DECA_FIELD(memory_fraction, nullptr);
  DECA_FIELD(storage_fraction, "DECA_STORAGE_FRACTION");
  DECA_FIELD(cache_level, nullptr);
  DECA_FIELD(deca_shuffle, nullptr);
  DECA_FIELD(deca_page_bytes, nullptr);
  DECA_FIELD(storage_tiers, "DECA_STORAGE_TIER");
  DECA_FIELD(t1_fraction, "DECA_T1_FRACTION");
  DECA_FIELD(admit_policy, "DECA_ADMIT_POLICY");
  DECA_FIELD(shuffle_transport, "DECA_SHUFFLE_TRANSPORT");
  DECA_FIELD(shuffle_wire_codec, nullptr);
  DECA_FIELD(spill_dir, nullptr);
  DECA_FIELD(max_task_failures, nullptr);
  DECA_FIELD(fault.seed, "DECA_FAULT_SEED");
  DECA_FIELD(fault.task_failure_prob, "DECA_FAULT_TASK_PROB");
  DECA_FIELD(fault.fetch_failure_prob, "DECA_FAULT_FETCH_PROB");
  DECA_FIELD(fault.oom_failure_prob, "DECA_FAULT_OOM_PROB");
  DECA_FIELD(fault.crash_wipe_stage, "DECA_CRASH_WIPE_STAGE");
  DECA_FIELD(fault.crash_wipe_executor, "DECA_CRASH_WIPE_EXECUTOR");
  DECA_FIELD(dist_mode, "DECA_DIST_MODE");
  DECA_FIELD(cluster.heartbeat_interval_ms, "DECA_HEARTBEAT_MS");
  DECA_FIELD(cluster.heartbeat_miss_threshold, "DECA_HEARTBEAT_MISSES");
  DECA_FIELD(cluster.reconnect_probes, nullptr);
  DECA_FIELD(cluster.retry_backoff_base_ms, "DECA_RETRY_BACKOFF_MS");
  DECA_FIELD(cluster.rpc_deadline_ms, "DECA_RPC_DEADLINE_MS");
  DECA_FIELD(cluster.connect_attempts, nullptr);
  DECA_FIELD(cluster.executord_path, "DECA_EXECUTORD");
  DECA_FIELD(trace_enabled, "DECA_TRACE");
  DECA_FIELD(trace_ring_capacity, "DECA_TRACE_RING");
#undef DECA_FIELD_MB
#undef DECA_FIELD
}

}  // namespace deca::spark

#endif  // DECA_SPARK_CONFIG_H_
