#ifndef DECA_NET_WIRE_H_
#define DECA_NET_WIRE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/field_codec.h"
#include "common/logging.h"
#include "net/net_stats.h"

namespace deca::net {

// -- Message framing ----------------------------------------------------------
//
// Everything that crosses a Transport or an RpcClient is one *message*: a
// LEB128 varint byte length followed by that many body bytes. The first
// body byte is the message type, a MsgType on the shuffle plane and a
// CtrlType (net/control.h) on the control plane; the rest is the type's
// body, encoded by the field codec (common/field_codec.h). Both planes
// build, read and dispatch on messages with the three templates below.
// Both transports (loopback and TCP) move exactly these bytes, so wire
// byte counts are identical across them.

/// Prepends the varint length header to `body`, producing one on-wire
/// message.
std::vector<uint8_t> FrameMessage(const ByteWriter& body);

/// Splits one on-wire message into its body span. Returns false if the
/// buffer is truncated or the header disagrees with the buffer size.
bool UnframeMessage(const std::vector<uint8_t>& wire, ByteReader* body);

/// Builds a message: the type byte, then each body's fields in argument
/// order.
template <typename Type, typename... Body>
std::vector<uint8_t> BuildMsg(Type type, const Body&... body) {
  ByteWriter w;
  Put(&w, type);
  (Put(&w, body), ...);
  return FrameMessage(w);
}

/// Reads back a message built by BuildMsg: aborts unless it has type
/// `want` and its bodies fill it exactly.
template <typename Type, typename... Body>
void ReadMsg(const std::vector<uint8_t>& wire, Type want, Body*... body) {
  ByteReader r(nullptr, 0);
  DECA_CHECK(UnframeMessage(wire, &r) && !r.AtEnd()) << "malformed message";
  const size_t size = r.remaining();
  Type got{};
  Get(&r, &got);
  DECA_CHECK(got == want) << "message of type " << static_cast<int>(got)
                          << " where " << static_cast<int>(want)
                          << " was expected";
  (Get(&r, body), ...);
  DECA_CHECK(r.position() == size)
      << "message of type " << static_cast<int>(want) << ": " << size
      << " bytes, but its body decoded as " << r.position();
}

/// The type of a message, for servers that dispatch on it before reading
/// the body with ReadMsg.
template <typename Type>
Type MsgTypeOf(const std::vector<uint8_t>& wire) {
  ByteReader r(nullptr, 0);
  DECA_CHECK(UnframeMessage(wire, &r) && !r.AtEnd()) << "malformed message";
  Type type{};
  Get(&r, &type);
  return type;
}

// -- The shuffle plane's messages -------------------------------------------
//
// A reducer asks each executor's BlockServer for the index of its frames,
// then fetches each frame in slices. Each body is declared once, below.

enum class MsgType : uint8_t {
  kIndexRequest = 1,   // IndexRequest -> kIndexResponse
  kIndexResponse = 2,  // IndexResponse
  kFetchRequest = 3,   // FetchRequest -> kFetchResponse
  kFetchResponse = 4,  // FetchResponse
  kFailProbe = 5,      // FailProbe -> kErrorResponse
  kErrorResponse = 6,  // WireStatus
};

/// Status byte of kFetchResponse / kErrorResponse.
enum class WireStatus : uint8_t {
  kOk = 0,
  kNotFound = 1,
  kInjectedFailure = 2,  // the deterministic fault injector's doing
};

/// The frames one reducer of one shuffle has on the served executor.
struct IndexRequest {
  uint32_t shuffle_id = 0;
  uint32_t reducer = 0;

  template <typename F>
  static constexpr void ForEachField(F&& f) {
    using Self = IndexRequest;
    DECA_WIRE(shuffle_id);
    DECA_WIRE(reducer);
  }
};

/// (map_partition, frame bytes) of each of those frames, by map partition.
using IndexResponse = std::vector<std::pair<uint32_t, uint64_t>>;

/// At most `max_bytes` of one frame, from byte `offset` on.
struct FetchRequest {
  uint32_t shuffle_id = 0;
  uint32_t reducer = 0;
  uint32_t map_partition = 0;
  uint64_t offset = 0;
  uint64_t max_bytes = 0;

  template <typename F>
  static constexpr void ForEachField(F&& f) {
    using Self = FetchRequest;
    DECA_WIRE(shuffle_id);
    DECA_WIRE(reducer);
    DECA_WIRE(map_partition);
    DECA_WIRE(offset);
    DECA_WIRE(max_bytes);
  }
};

/// One slice of a frame and the whole frame's size. A fetch the server
/// cannot serve is answered with a kErrorResponse, so `status` is kOk.
struct FetchResponse {
  WireStatus status = WireStatus::kOk;
  uint64_t frame_bytes = 0;
  std::vector<uint8_t> slice;

  template <typename F>
  static constexpr void ForEachField(F&& f) {
    using Self = FetchResponse;
    DECA_WIRE(status);
    DECA_WIRE(frame_bytes);
    DECA_WIRE(slice);
  }
};

/// The doomed request of an injected fetch failure: the task attempt whose
/// fetch failed. Always answered kErrorResponse(kInjectedFailure).
struct FailProbe {
  uint32_t stage = 0;
  uint32_t partition = 0;
  uint32_t attempt = 0;

  template <typename F>
  static constexpr void ForEachField(F&& f) {
    using Self = FailProbe;
    DECA_WIRE(stage);
    DECA_WIRE(partition);
    DECA_WIRE(attempt);
  }
};

// -- Shuffle chunk wire codecs ------------------------------------------------
//
// A map task's per-reducer chunk is encoded once at deposit time into a
// *frame* that later travels to the reducer in slices. Two codecs
// reproduce the trade-off the paper frames ("GC or serialization?"):
//
//   kPage    Deca mode. The chunk's decomposed page bytes ship as-is
//            behind a 6-byte-ish header: no per-record work at either
//            end (records_encoded stays 0, encode time is one memcpy).
//   kRecord  JVM mode (Kryo-like). Every record is framed with its own
//            varint length and copied individually, mirroring a
//            per-record serializer's costs: wire bytes grow by one
//            length varint per record and encode/decode walk each
//            record.
//
// Both codecs decode back to the byte-exact original chunk, so results
// are bit-identical to the local (no-wire) shuffle no matter the codec.

enum class WireCodec : uint8_t {
  kPage = 0,
  kRecord = 1,
};

const char* WireCodecName(WireCodec c);

/// Record-boundary metadata for a deposited chunk, used only by the
/// kRecord codec. Either `fixed_record_bytes` is set (uniform stride —
/// Deca's fixed-size decomposed entries) or `record_lens` lists each
/// record's byte length in chunk order. When neither is provided the
/// codec falls back to treating the whole chunk as one record.
struct ChunkMeta {
  uint32_t fixed_record_bytes = 0;
  std::vector<uint32_t> record_lens;
};

/// Encodes `payload` into a wire frame with `codec`, updating
/// records_encoded / encode_ns / payload_bytes in `stats`.
std::vector<uint8_t> EncodeFrame(WireCodec codec,
                                 const std::vector<uint8_t>& payload,
                                 const ChunkMeta& meta, NetStats* stats);

/// Decodes a reassembled frame back into the original chunk payload,
/// updating records_decoded / decode_ns. Returns false on a malformed
/// frame.
bool DecodeFrame(const std::vector<uint8_t>& frame,
                 std::vector<uint8_t>* payload, NetStats* stats);

}  // namespace deca::net

#endif  // DECA_NET_WIRE_H_
