#include "net/wire.h"

#include <cstring>

#include "common/clock.h"
#include "common/logging.h"

namespace deca::net {

namespace {

// Tripwires: a member added to a message breaks its binding until it is
// listed (or counted as off the wire) and the count here is updated.
[[maybe_unused]] void CheckMessageLists(IndexRequest& i, FetchRequest& q,
                                        FetchResponse& r, FailProbe& p) {
  [[maybe_unused]] auto& [i0, i1] = i;
  static_assert(FieldCount<IndexRequest>() == 2);
  [[maybe_unused]] auto& [q0, q1, q2, q3, q4] = q;
  static_assert(FieldCount<FetchRequest>() == 5);
  [[maybe_unused]] auto& [r0, r1, r2] = r;
  static_assert(FieldCount<FetchResponse>() == 3);
  [[maybe_unused]] auto& [p0, p1, p2] = p;
  static_assert(FieldCount<FailProbe>() == 3);
}

}  // namespace

std::vector<uint8_t> FrameMessage(const ByteWriter& body) {
  ByteWriter header;
  header.WriteVarU64(body.size());
  std::vector<uint8_t> wire;
  wire.reserve(header.size() + body.size());
  wire.insert(wire.end(), header.data(), header.data() + header.size());
  wire.insert(wire.end(), body.data(), body.data() + body.size());
  return wire;
}

bool UnframeMessage(const std::vector<uint8_t>& wire, ByteReader* body) {
  ByteReader header(wire.data(), wire.size());
  if (header.AtEnd()) return false;
  uint64_t len = header.ReadVarU64();
  if (len != header.remaining()) return false;
  *body = ByteReader(wire.data() + header.position(), len);
  return true;
}

const char* WireCodecName(WireCodec c) {
  switch (c) {
    case WireCodec::kPage:
      return "page";
    case WireCodec::kRecord:
      return "record";
  }
  return "?";
}

std::vector<uint8_t> EncodeFrame(WireCodec codec,
                                 const std::vector<uint8_t>& payload,
                                 const ChunkMeta& meta, NetStats* stats) {
  Stopwatch sw;
  ByteWriter w;
  w.Write<uint8_t>(static_cast<uint8_t>(codec));
  uint64_t records = 0;
  if (codec == WireCodec::kPage) {
    // Zero-copy page transfer: the decomposed bytes ship as one block.
    // No record is ever visited — only this bulk append.
    w.WriteVarU64(payload.size());
    w.WriteBytes(payload.data(), payload.size());
  } else {
    // Kryo-like record serialization: each record framed and copied on
    // its own, the per-record cost Deca's decomposition eliminates.
    size_t off = 0;
    auto put_record = [&](uint32_t len) {
      w.WriteVarU64(len);
      w.WriteBytes(payload.data() + off, len);
      off += len;
      ++records;
    };
    // The boundaries must tile the payload exactly: a short tiling would
    // drop the tail on the wire, a long one would read past the payload.
    if (meta.fixed_record_bytes > 0) {
      DECA_CHECK(payload.size() % meta.fixed_record_bytes == 0)
          << WireCodecName(codec) << " codec: a " << payload.size()
          << "-byte payload is not whole " << meta.fixed_record_bytes
          << "-byte records";
      uint64_t count = payload.size() / meta.fixed_record_bytes;
      w.WriteVarU64(count);
      for (uint64_t i = 0; i < count; ++i) put_record(meta.fixed_record_bytes);
    } else if (!meta.record_lens.empty()) {
      uint64_t sum = 0;
      for (uint32_t len : meta.record_lens) sum += len;
      DECA_CHECK(sum == payload.size())
          << WireCodecName(codec) << " codec: record lengths sum to " << sum
          << " bytes, but the payload holds " << payload.size();
      w.WriteVarU64(meta.record_lens.size());
      for (uint32_t len : meta.record_lens) put_record(len);
    } else {
      // No boundaries known: the whole chunk is one record.
      w.WriteVarU64(1);
      put_record(static_cast<uint32_t>(payload.size()));
    }
  }
  if (stats != nullptr) {
    stats->payload_bytes.fetch_add(payload.size(), std::memory_order_relaxed);
    stats->records_encoded.fetch_add(records, std::memory_order_relaxed);
    stats->encode_ns.fetch_add(
        static_cast<uint64_t>(sw.ElapsedMillis() * 1e6),
        std::memory_order_relaxed);
  }
  return w.TakeBuffer();
}

bool DecodeFrame(const std::vector<uint8_t>& frame,
                 std::vector<uint8_t>* payload, NetStats* stats) {
  Stopwatch sw;
  ByteReader r(frame.data(), frame.size());
  if (r.AtEnd()) return false;
  auto codec = static_cast<WireCodec>(r.Read<uint8_t>());
  uint64_t records = 0;
  payload->clear();
  if (codec == WireCodec::kPage) {
    uint64_t len = r.ReadVarU64();
    if (len != r.remaining()) return false;
    payload->resize(len);
    r.ReadBytes(payload->data(), len);
  } else if (codec == WireCodec::kRecord) {
    uint64_t count = r.ReadVarU64();
    for (uint64_t i = 0; i < count; ++i) {
      if (r.AtEnd()) return false;
      uint64_t len = r.ReadVarU64();
      if (len > r.remaining()) return false;
      size_t off = payload->size();
      payload->resize(off + len);
      r.ReadBytes(payload->data() + off, len);
      ++records;
    }
    if (!r.AtEnd()) return false;
  } else {
    return false;
  }
  if (stats != nullptr) {
    stats->records_decoded.fetch_add(records, std::memory_order_relaxed);
    stats->decode_ns.fetch_add(
        static_cast<uint64_t>(sw.ElapsedMillis() * 1e6),
        std::memory_order_relaxed);
  }
  return true;
}

}  // namespace deca::net
