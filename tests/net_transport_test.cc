// src/net unit tests: message framing, the two chunk wire codecs, the
// loopback transport's ordering/accounting, the socket mesh (all-local and
// peered daemons), and the BlockServer side of the shuffle wire protocol.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "net/block_server.h"
#include "net/control.h"
#include "net/loopback_transport.h"
#include "net/mesh_transport.h"
#include "net/socket_io.h"
#include "net/wire.h"

namespace deca::net {
namespace {

std::vector<uint8_t> Payload(size_t n, uint8_t seed = 1) {
  std::vector<uint8_t> p(n);
  for (size_t i = 0; i < n; ++i) {
    p[i] = static_cast<uint8_t>(seed + i * 31);
  }
  return p;
}

// -- framing ------------------------------------------------------------------

TEST(WireFraming, RoundTrip) {
  ByteWriter body;
  body.Write<uint8_t>(42);
  body.WriteVarU64(123456);
  body.WriteString("hello");
  std::vector<uint8_t> wire = FrameMessage(body);

  ByteReader r(nullptr, 0);
  ASSERT_TRUE(UnframeMessage(wire, &r));
  EXPECT_EQ(r.Read<uint8_t>(), 42);
  EXPECT_EQ(r.ReadVarU64(), 123456u);
  EXPECT_EQ(r.ReadString(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireFraming, RejectsTruncatedAndOversized) {
  ByteWriter body;
  body.WriteVarU64(7);
  std::vector<uint8_t> wire = FrameMessage(body);
  ByteReader r(nullptr, 0);

  std::vector<uint8_t> truncated(wire.begin(), wire.end() - 1);
  EXPECT_FALSE(UnframeMessage(truncated, &r));

  std::vector<uint8_t> padded = wire;
  padded.push_back(0);
  EXPECT_FALSE(UnframeMessage(padded, &r));

  EXPECT_FALSE(UnframeMessage({}, &r));
}

// -- chunk codecs -------------------------------------------------------------

TEST(WireCodecs, PageRoundTripNoRecordWork) {
  std::vector<uint8_t> payload = Payload(1000);
  NetStats stats;
  std::vector<uint8_t> frame =
      EncodeFrame(WireCodec::kPage, payload, ChunkMeta{}, &stats);
  std::vector<uint8_t> out;
  ASSERT_TRUE(DecodeFrame(frame, &out, &stats));
  EXPECT_EQ(out, payload);
  // The serialization-elimination claim: zero records visited either way.
  EXPECT_EQ(stats.records_encoded.load(), 0u);
  EXPECT_EQ(stats.records_decoded.load(), 0u);
}

TEST(WireCodecs, RecordFixedStrideRoundTrip) {
  std::vector<uint8_t> payload = Payload(160);
  ChunkMeta meta;
  meta.fixed_record_bytes = 16;
  NetStats stats;
  std::vector<uint8_t> frame =
      EncodeFrame(WireCodec::kRecord, payload, meta, &stats);
  std::vector<uint8_t> out;
  ASSERT_TRUE(DecodeFrame(frame, &out, &stats));
  EXPECT_EQ(out, payload);
  EXPECT_EQ(stats.records_encoded.load(), 10u);
  EXPECT_EQ(stats.records_decoded.load(), 10u);
}

TEST(WireCodecs, RecordExplicitLensRoundTrip) {
  std::vector<uint8_t> payload = Payload(10);
  ChunkMeta meta;
  meta.record_lens = {3, 2, 5};
  NetStats stats;
  std::vector<uint8_t> frame =
      EncodeFrame(WireCodec::kRecord, payload, meta, &stats);
  std::vector<uint8_t> out;
  ASSERT_TRUE(DecodeFrame(frame, &out, &stats));
  EXPECT_EQ(out, payload);
  EXPECT_EQ(stats.records_encoded.load(), 3u);
}

TEST(WireCodecs, RecordFallbackWholeChunk) {
  std::vector<uint8_t> payload = Payload(77);
  NetStats stats;
  std::vector<uint8_t> frame =
      EncodeFrame(WireCodec::kRecord, payload, ChunkMeta{}, &stats);
  std::vector<uint8_t> out;
  ASSERT_TRUE(DecodeFrame(frame, &out, &stats));
  EXPECT_EQ(out, payload);
  EXPECT_EQ(stats.records_encoded.load(), 1u);
}

// Record boundaries that do not tile the payload abort the encoder instead
// of dropping the tail (short) or reading past the payload (long).
TEST(WireCodecs, RecordBoundariesMustCoverPayload) {
  std::vector<uint8_t> payload = Payload(40);
  ChunkMeta stride;
  stride.fixed_record_bytes = 16;
  EXPECT_DEATH(EncodeFrame(WireCodec::kRecord, payload, stride, nullptr),
               "record codec: a 40-byte payload is not whole 16-byte records");
  ChunkMeta short_lens;
  short_lens.record_lens = {16, 16};
  EXPECT_DEATH(EncodeFrame(WireCodec::kRecord, payload, short_lens, nullptr),
               "record lengths sum to 32 bytes, but the payload holds 40");
  ChunkMeta long_lens;
  long_lens.record_lens = {32, 16};
  EXPECT_DEATH(EncodeFrame(WireCodec::kRecord, payload, long_lens, nullptr),
               "record lengths sum to 48 bytes, but the payload holds 40");
}

TEST(WireCodecs, PageFrameSmallerThanRecordFrame) {
  std::vector<uint8_t> payload = Payload(4096);
  ChunkMeta meta;
  meta.fixed_record_bytes = 16;
  std::vector<uint8_t> page =
      EncodeFrame(WireCodec::kPage, payload, meta, nullptr);
  std::vector<uint8_t> record =
      EncodeFrame(WireCodec::kRecord, payload, meta, nullptr);
  // Per-record length varints cost wire bytes the page codec never pays.
  EXPECT_LT(page.size(), record.size());
}

TEST(WireCodecs, DecodeRejectsMalformed) {
  std::vector<uint8_t> out;
  EXPECT_FALSE(DecodeFrame({}, &out, nullptr));
  EXPECT_FALSE(DecodeFrame({/*codec=*/99, 0}, &out, nullptr));
  // Page frame whose declared length disagrees with the buffer.
  ByteWriter w;
  w.Write<uint8_t>(static_cast<uint8_t>(WireCodec::kPage));
  w.WriteVarU64(100);
  w.WriteBytes(Payload(10).data(), 10);
  std::vector<uint8_t> bad(w.data(), w.data() + w.size());
  EXPECT_FALSE(DecodeFrame(bad, &out, nullptr));
}

// -- loopback transport -------------------------------------------------------

std::vector<uint8_t> EchoHandler(const std::vector<uint8_t>& request) {
  return request;
}

TEST(LoopbackTransport, EchoAndByteAccounting) {
  NetStats stats;
  LoopbackTransport t(2, LoopbackOptions{}, &stats);
  t.Bind(0, EchoHandler);
  t.Bind(1, EchoHandler);
  ByteWriter body;
  body.WriteString("ping");
  std::vector<uint8_t> wire = FrameMessage(body);
  std::vector<uint8_t> resp = t.Call(0, 1, wire);
  EXPECT_EQ(resp, wire);
  EXPECT_EQ(stats.messages.load(), 1u);
  EXPECT_EQ(stats.wire_bytes.load(), 2 * wire.size());
  EXPECT_EQ(stats.virtual_wire_us.load(), 0u);
}

TEST(LoopbackTransport, VirtualLatencyAndBandwidth) {
  NetStats stats;
  LoopbackOptions opts;
  opts.latency_us = 100;
  opts.bandwidth_mbps = 8;  // 1 byte per microsecond
  LoopbackTransport t(1, opts, &stats);
  t.Bind(0, EchoHandler);
  std::vector<uint8_t> msg(500, 7);
  t.Call(0, 0, msg);
  // 100us latency + (500 + 500) bytes * 8 bits / 8 mbps = 1000us.
  EXPECT_EQ(stats.virtual_wire_us.load(), 1100u);
}

TEST(LoopbackTransport, ConcurrentCallsAreSerialized) {
  NetStats stats;
  LoopbackTransport t(2, LoopbackOptions{}, &stats);
  t.Bind(0, EchoHandler);
  t.Bind(1, EchoHandler);
  constexpr int kCalls = 200;
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&t, i] {
      std::vector<uint8_t> msg(32, static_cast<uint8_t>(i));
      for (int c = 0; c < kCalls; ++c) {
        std::vector<uint8_t> resp = t.Call(i % 2, (i + 1) % 2, msg);
        ASSERT_EQ(resp, msg);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(stats.messages.load(), 4u * kCalls);
  // Distinct links may overlap (that is fine); the test's real assertion
  // is that every call returned its own response under contention.
}

// -- mesh transport -----------------------------------------------------------

TEST(MeshTransport, EchoOverRealSockets) {
  NetStats stats;
  MeshTransport t(2, /*local_endpoint=*/-1, MeshOptions{}, &stats);
  t.Bind(0, EchoHandler);
  t.Bind(1, EchoHandler);
  ByteWriter body;
  body.WriteString("over tcp");
  std::vector<uint8_t> wire = FrameMessage(body);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(t.Call(0, 1, wire), wire);
    EXPECT_EQ(t.Call(1, 0, wire), wire);
  }
  EXPECT_EQ(stats.messages.load(), 20u);
  EXPECT_EQ(stats.wire_bytes.load(), 40 * wire.size());
}

TEST(MeshTransport, LargeMessage) {
  MeshTransport t(2, /*local_endpoint=*/-1, MeshOptions{}, nullptr);
  t.Bind(0, EchoHandler);
  t.Bind(1, EchoHandler);
  ByteWriter body;
  std::vector<uint8_t> blob = Payload(1 << 20);
  body.WriteBytes(blob.data(), blob.size());
  std::vector<uint8_t> wire = FrameMessage(body);
  // A call to the caller's own endpoint skips the socket; this one
  // crosses the 0 -> 1 link.
  EXPECT_EQ(t.Call(0, 1, wire), wire);
}

TEST(MeshTransport, PeeredDaemonsReconnectAfterRespawnAndFailTyped) {
  MeshOptions opts;
  opts.connect_attempts = 2;
  opts.backoff_base_ms = 1;
  MeshTransport a(2, /*local_endpoint=*/0, opts, nullptr);
  auto b = std::make_unique<MeshTransport>(2, /*local_endpoint=*/1, opts,
                                           nullptr);
  a.Bind(0, EchoHandler);
  b->Bind(1, EchoHandler);
  a.UpdatePeers({{0, a.port(0)}, {1, b->port(1)}});
  b->UpdatePeers({{0, a.port(0)}, {1, b->port(1)}});
  ByteWriter body;
  body.WriteString("peer to peer");
  std::vector<uint8_t> wire = FrameMessage(body);
  EXPECT_EQ(a.Call(0, 1, wire), wire);
  EXPECT_EQ(b->Call(1, 0, wire), wire);
  EXPECT_EQ(a.Call(0, 0, wire), wire);  // own endpoint: handler runs inline

  // Respawn: endpoint 1 comes back on a new port (the replacement binds
  // before the old one closes, so the ports differ). a's cached link
  // still points at the dead process until UpdatePeers names the new one.
  uint16_t old_port = b->port(1);
  b = std::make_unique<MeshTransport>(2, /*local_endpoint=*/1, opts, nullptr);
  ASSERT_NE(b->port(1), old_port);
  b->Bind(1, EchoHandler);
  a.UpdatePeers({{1, b->port(1)}});
  EXPECT_EQ(a.Call(0, 1, wire), wire);

  // A peer that is gone fails with the typed retryable error naming it.
  uint16_t gone = b->port(1);
  b.reset();
  try {
    a.Call(0, 1, wire);
    FAIL() << "a call to a dead peer should throw";
  } catch (const ConnectError& e) {
    EXPECT_EQ(e.port(), gone);
    EXPECT_TRUE(e.retryable());
  }
}

// -- block server -------------------------------------------------------------

std::vector<uint8_t> IndexRequest(int shuffle, int reducer) {
  ByteWriter w;
  w.Write<uint8_t>(static_cast<uint8_t>(MsgType::kIndexRequest));
  w.WriteVarU64(static_cast<uint64_t>(shuffle));
  w.WriteVarU64(static_cast<uint64_t>(reducer));
  return FrameMessage(w);
}

std::vector<uint8_t> FetchRequest(int shuffle, int reducer, int mapper,
                                  uint64_t offset, uint64_t max_bytes) {
  ByteWriter w;
  w.Write<uint8_t>(static_cast<uint8_t>(MsgType::kFetchRequest));
  w.WriteVarU64(static_cast<uint64_t>(shuffle));
  w.WriteVarU64(static_cast<uint64_t>(reducer));
  w.WriteVarU64(static_cast<uint64_t>(mapper));
  w.WriteVarU64(offset);
  w.WriteVarU64(max_bytes);
  return FrameMessage(w);
}

TEST(BlockServer, IndexSortedByMapperAndSlicedFetch) {
  BlockServer server(nullptr);
  // Registered out of order: the index must come back mapper-sorted.
  server.Register(0, 0, 3, Payload(300, 3), 300);
  server.Register(0, 0, 1, Payload(100, 1), 100);
  server.Register(0, 1, 2, Payload(50, 2), 50);

  ByteReader r(nullptr, 0);
  std::vector<uint8_t> resp = server.HandleRequest(IndexRequest(0, 0));
  ASSERT_TRUE(UnframeMessage(resp, &r));
  EXPECT_EQ(r.Read<uint8_t>(), static_cast<uint8_t>(MsgType::kIndexResponse));
  ASSERT_EQ(r.ReadVarU64(), 2u);
  EXPECT_EQ(r.ReadVarU64(), 1u);  // mapper 1 first
  uint64_t frame1_bytes = r.ReadVarU64();
  EXPECT_EQ(r.ReadVarU64(), 3u);
  EXPECT_EQ(r.ReadVarU64(), 300u);

  // Fetch mapper 1's frame in 40-byte slices and reassemble.
  std::vector<uint8_t> frame;
  while (frame.size() < frame1_bytes) {
    resp = server.HandleRequest(FetchRequest(0, 0, 1, frame.size(), 40));
    ByteReader fr(nullptr, 0);
    ASSERT_TRUE(UnframeMessage(resp, &fr));
    EXPECT_EQ(fr.Read<uint8_t>(),
              static_cast<uint8_t>(MsgType::kFetchResponse));
    ASSERT_EQ(fr.Read<uint8_t>(), static_cast<uint8_t>(WireStatus::kOk));
    EXPECT_EQ(fr.ReadVarU64(), frame1_bytes);
    uint64_t n = fr.ReadVarU64();
    size_t off = frame.size();
    frame.resize(off + n);
    fr.ReadBytes(frame.data() + off, n);
  }
  EXPECT_EQ(frame, Payload(100, 1));
  EXPECT_EQ(server.PayloadBytes(0), 450u);
}

TEST(BlockServer, NotFoundAndFailProbe) {
  BlockServer server(nullptr);
  ByteReader r(nullptr, 0);
  std::vector<uint8_t> resp = server.HandleRequest(FetchRequest(0, 0, 9, 0, 10));
  ASSERT_TRUE(UnframeMessage(resp, &r));
  EXPECT_EQ(r.Read<uint8_t>(), static_cast<uint8_t>(MsgType::kErrorResponse));
  EXPECT_EQ(r.Read<uint8_t>(), static_cast<uint8_t>(WireStatus::kNotFound));

  ByteWriter probe;
  probe.Write<uint8_t>(static_cast<uint8_t>(MsgType::kFailProbe));
  probe.WriteVarU64(1);
  probe.WriteVarU64(2);
  probe.WriteVarU64(0);
  resp = server.HandleRequest(FrameMessage(probe));
  ASSERT_TRUE(UnframeMessage(resp, &r));
  EXPECT_EQ(r.Read<uint8_t>(), static_cast<uint8_t>(MsgType::kErrorResponse));
  EXPECT_EQ(r.Read<uint8_t>(),
            static_cast<uint8_t>(WireStatus::kInjectedFailure));
}

TEST(BlockServer, DropReleaseAndReplace) {
  BlockServer server(nullptr);
  server.Register(0, 0, 0, Payload(10), 10);
  server.Register(0, 1, 0, Payload(20), 20);
  server.Register(0, 0, 2, Payload(30), 30);
  server.Register(1, 0, 0, Payload(40), 40);
  EXPECT_EQ(server.PayloadBytes(0), 60u);

  // A retried map task's second deposit replaces the first.
  server.Register(0, 0, 0, Payload(15), 15);
  EXPECT_EQ(server.PayloadBytes(0), 65u);

  // Drop removes mapper 0's frames in every reducer bucket of shuffle 0.
  server.Drop(0, 0);
  EXPECT_EQ(server.PayloadBytes(0), 30u);
  EXPECT_EQ(server.PayloadBytes(1), 40u);

  server.Release(0);
  EXPECT_EQ(server.PayloadBytes(0), 0u);
  EXPECT_EQ(server.PayloadBytes(1), 40u);
}

// -- socket hardening + control plane -----------------------------------------

TEST(SocketIo, RefusedConnectThrowsTypedRetryableError) {
  // Bind-then-close: the port is (very likely) unbound and refuses.
  uint16_t port = 0;
  int fd = ListenLoopback(&port);
  ::close(fd);
  try {
    DialLoopback(port);
    FAIL() << "connect to a closed port should throw";
  } catch (const ConnectError& e) {
    EXPECT_EQ(e.port(), port);
    EXPECT_NE(e.error_code(), 0);
    EXPECT_TRUE(e.retryable());
  }
  // The retry wrapper gives up with the same typed error, so reconnect
  // paths (registration, heartbeat probes) can keep backing off.
  EXPECT_THROW(DialLoopbackRetry(port, 2, 1), ConnectError);
}

TEST(SocketIo, WriteAllAndReadAllMoveExactBytes) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::vector<uint8_t> sent = Payload(1 << 20, 7);  // spans many segments
  std::thread writer(
      [&] { EXPECT_TRUE(WriteAll(fds[0], sent.data(), sent.size())); });
  std::vector<uint8_t> got(sent.size());
  EXPECT_TRUE(ReadAll(fds[1], got.data(), got.size()));
  writer.join();
  EXPECT_EQ(got, sent);
  // EOF after the peer closes is a clean false, not an exception.
  ::close(fds[0]);
  uint8_t one;
  EXPECT_FALSE(ReadAll(fds[1], &one, 1));
  ::close(fds[1]);
}

TEST(RpcControl, RoundTripAndDeadline) {
  std::atomic<int> slow{0};
  RpcServer server;
  server.Serve([&](const std::vector<uint8_t>& req) {
    if (slow.load() != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
    std::vector<uint8_t> resp = req;  // echo
    return resp;
  });
  RpcClient client(server.port(), /*connect_attempts=*/5,
                   /*backoff_base_ms=*/5);

  ByteWriter w;
  w.Write<uint8_t>(static_cast<uint8_t>(CtrlType::kHeartbeat));
  w.WriteVarU64(99);
  std::vector<uint8_t> frame = FrameMessage(w);
  EXPECT_EQ(client.Call(frame, /*deadline_ms=*/2000), frame);

  // A response that misses its deadline surfaces as RpcError(timed_out);
  // the request is never resent.
  slow.store(1);
  try {
    client.Call(frame, /*deadline_ms=*/50);
    FAIL() << "deadline should have fired";
  } catch (const RpcError& e) {
    EXPECT_TRUE(e.timed_out());
  }
  // The client reconnects transparently on the next call.
  slow.store(0);
  EXPECT_EQ(client.Call(frame, /*deadline_ms=*/2000), frame);
  server.Stop();
}

TEST(RpcControl, StoppedServerRefusesWithConnectError) {
  uint16_t port;
  {
    RpcServer server;
    server.Serve([](const std::vector<uint8_t>& req) { return req; });
    port = server.port();
  }
  RpcClient client(port, /*connect_attempts=*/2, /*backoff_base_ms=*/1);
  EXPECT_THROW(client.Call({1, 2, 3}, 100), ConnectError);
}

}  // namespace
}  // namespace deca::net
