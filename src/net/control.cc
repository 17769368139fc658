#include "net/control.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "net/socket_io.h"

namespace deca::net {

RpcServer::RpcServer() { listen_fd_ = ListenLoopback(&port_); }

void RpcServer::Serve(Handler handler) {
  handler_ = std::move(handler);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

RpcServer::~RpcServer() { Stop(); }

void RpcServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::thread> threads;
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads.swap(conn_threads_);
    fds.swap(conn_fds_);
  }
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
  for (int fd : fds) ::close(fd);
}

void RpcServer::AcceptLoop() {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket shut down
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void RpcServer::ServeConnection(int fd) {
  std::vector<uint8_t> request;
  while (ReadFramed(fd, &request)) {
    std::vector<uint8_t> response = handler_(request);
    if (!WriteAll(fd, response.data(), response.size())) break;
  }
}

RpcClient::RpcClient(uint16_t port, int connect_attempts, int backoff_base_ms)
    : port_(port),
      connect_attempts_(connect_attempts),
      backoff_base_ms_(backoff_base_ms) {}

RpcClient::~RpcClient() { Close(); }

void RpcClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::vector<uint8_t> RpcClient::Call(const std::vector<uint8_t>& frame,
                                     int deadline_ms) {
  if (fd_ < 0) {
    fd_ = DialLoopbackRetry(port_, connect_attempts_, backoff_base_ms_);
  }
  if (!WriteAll(fd_, frame.data(), frame.size())) {
    Close();
    throw RpcError("control rpc: send failed (peer down)",
                   /*timed_out=*/false);
  }
  std::vector<uint8_t> response;
  bool timed_out = false;
  if (!ReadFramedDeadline(fd_, &response, deadline_ms, &timed_out)) {
    Close();
    throw RpcError(timed_out ? "control rpc: response deadline exceeded"
                             : "control rpc: connection lost mid-call",
                   timed_out);
  }
  return response;
}

}  // namespace deca::net
