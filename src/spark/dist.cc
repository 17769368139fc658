#include "spark/dist.h"

namespace deca::spark {

const char* EnumName(DistMode m) {
  switch (m) {
    case DistMode::kInProcess:
      return "local";
    case DistMode::kProcess:
      return "process";
  }
  return "?";
}

void ExecutorSnapshot::Encode(ByteWriter* w) const {
  w->Write<double>(gc_pause_ms);
  w->Write<double>(concurrent_gc_ms);
  w->WriteVarU64(minor_gcs);
  w->WriteVarU64(full_gcs);
  w->WriteVarU64(oom_recoveries);
  w->WriteVarU64(cached_bytes);
  w->WriteVarU64(peak_cached_bytes);
  w->WriteVarU64(swapped_bytes);
  w->WriteVarU64(pressure_evictions);
  w->WriteVarU64(tier.t0_resident_bytes);
  w->WriteVarU64(tier.t1_resident_bytes);
  w->WriteVarU64(tier.t2_resident_bytes);
  w->WriteVarU64(tier.t1_peak_bytes);
  w->WriteVarU64(tier.t0_hits);
  w->WriteVarU64(tier.t1_hits);
  w->WriteVarU64(tier.t2_hits);
  w->WriteVarU64(tier.misses);
  w->WriteVarU64(tier.demotes_to_t1);
  w->WriteVarU64(tier.demotes_to_t2);
  w->WriteVarU64(tier.promotes);
  w->WriteVarU64(tier.admit_rejects);
  w->Write<double>(tier.promote_p50_ms);
  w->Write<double>(tier.promote_p99_ms);
  w->WriteVarU64(memory.total_bytes);
  w->WriteVarU64(memory.storage_floor_bytes);
  w->WriteVarU64(memory.exec_used);
  w->WriteVarU64(memory.exec_peak);
  w->WriteVarU64(memory.storage_used);
  w->WriteVarU64(memory.storage_peak);
  w->WriteVarU64(memory.borrowed_peak);
  w->WriteVarU64(memory.denied_reservations);
  w->WriteVarU64(memory.storage_reserved);
  w->WriteVarU64(memory.demoted_blocks);
  w->WriteVarU64(memory.spilled_blocks);
  w->WriteVarU64(memory.page_bytes);
  w->WriteVarU64(memory.heap_capacity);
  w->WriteVarU64(memory.heap_used);
  w->WriteVarU64(memory.heap_old_used);
  w->WriteVarU64(mark_slices);
  w->WriteVarU64(pause_events);
  w->Write<double>(pause_p50_ms);
  w->Write<double>(pause_p99_ms);
  w->Write<double>(pause_max_ms);
  w->Write<double>(slice_p50_ms);
  w->Write<double>(slice_p99_ms);
  w->Write<double>(slice_max_ms);
  w->WriteVarU64(alloc.alloc_calls);
  w->WriteVarU64(alloc.free_calls);
  w->WriteVarU64(alloc.bytes_requested);
  w->WriteVarU64(shuffle_bytes.size());
  for (uint64_t b : shuffle_bytes) w->WriteVarU64(b);
}

ExecutorSnapshot ExecutorSnapshot::Decode(ByteReader* r) {
  ExecutorSnapshot s;
  s.gc_pause_ms = r->Read<double>();
  s.concurrent_gc_ms = r->Read<double>();
  s.minor_gcs = r->ReadVarU64();
  s.full_gcs = r->ReadVarU64();
  s.oom_recoveries = r->ReadVarU64();
  s.cached_bytes = r->ReadVarU64();
  s.peak_cached_bytes = r->ReadVarU64();
  s.swapped_bytes = r->ReadVarU64();
  s.pressure_evictions = r->ReadVarU64();
  s.tier.t0_resident_bytes = r->ReadVarU64();
  s.tier.t1_resident_bytes = r->ReadVarU64();
  s.tier.t2_resident_bytes = r->ReadVarU64();
  s.tier.t1_peak_bytes = r->ReadVarU64();
  s.tier.t0_hits = r->ReadVarU64();
  s.tier.t1_hits = r->ReadVarU64();
  s.tier.t2_hits = r->ReadVarU64();
  s.tier.misses = r->ReadVarU64();
  s.tier.demotes_to_t1 = r->ReadVarU64();
  s.tier.demotes_to_t2 = r->ReadVarU64();
  s.tier.promotes = r->ReadVarU64();
  s.tier.admit_rejects = r->ReadVarU64();
  s.tier.promote_p50_ms = r->Read<double>();
  s.tier.promote_p99_ms = r->Read<double>();
  s.memory.total_bytes = r->ReadVarU64();
  s.memory.storage_floor_bytes = r->ReadVarU64();
  s.memory.exec_used = r->ReadVarU64();
  s.memory.exec_peak = r->ReadVarU64();
  s.memory.storage_used = r->ReadVarU64();
  s.memory.storage_peak = r->ReadVarU64();
  s.memory.borrowed_peak = r->ReadVarU64();
  s.memory.denied_reservations = r->ReadVarU64();
  s.memory.storage_reserved = r->ReadVarU64();
  s.memory.demoted_blocks = r->ReadVarU64();
  s.memory.spilled_blocks = r->ReadVarU64();
  s.memory.page_bytes = r->ReadVarU64();
  s.memory.heap_capacity = r->ReadVarU64();
  s.memory.heap_used = r->ReadVarU64();
  s.memory.heap_old_used = r->ReadVarU64();
  s.mark_slices = r->ReadVarU64();
  s.pause_events = r->ReadVarU64();
  s.pause_p50_ms = r->Read<double>();
  s.pause_p99_ms = r->Read<double>();
  s.pause_max_ms = r->Read<double>();
  s.slice_p50_ms = r->Read<double>();
  s.slice_p99_ms = r->Read<double>();
  s.slice_max_ms = r->Read<double>();
  s.alloc.alloc_calls = r->ReadVarU64();
  s.alloc.free_calls = r->ReadVarU64();
  s.alloc.bytes_requested = r->ReadVarU64();
  s.shuffle_bytes.resize(r->ReadVarU64());
  for (auto& b : s.shuffle_bytes) b = r->ReadVarU64();
  return s;
}

}  // namespace deca::spark
