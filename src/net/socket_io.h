#ifndef DECA_NET_SOCKET_IO_H_
#define DECA_NET_SOCKET_IO_H_

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace deca::net {

/// Typed, retryable connection failure: the peer's port did not accept
/// (refused, reset, or timed out). Reconnect paths — daemon registration,
/// heartbeat probes, mesh links to a respawning executor — catch this
/// specific type and back off instead of aborting the job. Permanent
/// socket-layer failures (no fds, bad address family) still throw plain
/// std::runtime_error and propagate.
class ConnectError : public std::runtime_error {
 public:
  ConnectError(uint16_t port, int error_code);

  uint16_t port() const { return port_; }
  int error_code() const { return error_code_; }
  /// Always true by construction: a refused connect may succeed later
  /// (the peer may still be binding, or a replacement daemon may be on
  /// its way up).
  bool retryable() const { return true; }

 private:
  uint16_t port_;
  int error_code_;
};

// EINTR-hardened socket helpers behind RpcServer and RpcClient, the one
// server and the one client link of every wire user (the control plane
// and the shuffle mesh). All writes use MSG_NOSIGNAL so a dead peer
// surfaces as an error, never as SIGPIPE; every fd is opened
// close-on-exec so spawned daemons don't inherit the driver's sockets.

/// Writes exactly `size` bytes, retrying EINTR and short writes.
bool WriteAll(int fd, const uint8_t* data, size_t size);

/// Reads exactly `size` bytes, retrying EINTR and short reads. False on
/// EOF or error.
bool ReadAll(int fd, uint8_t* data, size_t size);

/// Reads one varint-framed message (header + body) off the socket into
/// `wire`, preserving the exact on-wire bytes. False on EOF, a malformed
/// header, or a body over the 64 MB sanity cap.
bool ReadFramed(int fd, std::vector<uint8_t>* wire);

/// ReadFramed with a whole-message deadline: false on timeout (sets
/// *timed_out when non-null), EOF, or error. `deadline_ms <= 0` means no
/// deadline.
bool ReadFramedDeadline(int fd, std::vector<uint8_t>* wire, int deadline_ms,
                        bool* timed_out);

/// Creates a listening socket on an ephemeral 127.0.0.1 port and stores
/// the port in `*port_out`. Throws std::runtime_error on failure.
int ListenLoopback(uint16_t* port_out, int backlog = 64);

/// Connects to 127.0.0.1:`port` with TCP_NODELAY. Throws ConnectError
/// when the peer refuses (retryable); std::runtime_error otherwise.
int DialLoopback(uint16_t port);

/// DialLoopback with up to `attempts` tries and exponential backoff
/// (backoff_base_ms, doubling per retry, capped at 500 ms per sleep).
/// Rethrows the last ConnectError when every attempt is refused.
int DialLoopbackRetry(uint16_t port, int attempts, int backoff_base_ms);

}  // namespace deca::net

#endif  // DECA_NET_SOCKET_IO_H_
