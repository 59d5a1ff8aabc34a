#include "net/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "common/logging.h"

namespace oe::net {
namespace {

Status ReadFully(int fd, void* data, size_t n, bool* got_bytes = nullptr) {
  auto* p = static_cast<uint8_t*>(data);
  size_t done = 0;
  while (done < n) {
    const ssize_t r = ::read(fd, p + done, n - done);
    if (r == 0) return Status::IoError("connection closed");
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::TimedOut("read timed out");
      }
      return Status::IoError(std::string("read: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(r);
    if (got_bytes != nullptr) *got_bytes = true;
  }
  return Status::OK();
}

Status WriteFully(int fd, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  size_t done = 0;
  while (done < n) {
    // MSG_NOSIGNAL: a peer closing mid-write must surface as EPIPE (an
    // IoError Status), not a process-killing SIGPIPE.
    const ssize_t r = ::send(fd, p + done, n - done, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::TimedOut("send timed out");
      }
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status SendFrame(int fd, uint32_t tag, const uint8_t* payload, size_t n) {
  // Validate before writing a single byte: a payload over the receiver's
  // frame cap would only be rejected after a full (wasted) send, and one
  // at or above 4 GiB - 4 would silently truncate in the 32-bit length.
  if (n > kMaxFramePayloadBytes) {
    return Status::InvalidArgument("frame payload too large: " +
                                   std::to_string(n) + " > " +
                                   std::to_string(kMaxFramePayloadBytes));
  }
  const uint32_t len = static_cast<uint32_t>(n) + 4;
  uint8_t header[8];
  std::memcpy(header, &len, 4);
  std::memcpy(header + 4, &tag, 4);
  OE_RETURN_IF_ERROR(WriteFully(fd, header, sizeof(header)));
  if (n > 0) OE_RETURN_IF_ERROR(WriteFully(fd, payload, n));
  return Status::OK();
}

/// `got_bytes` (optional) is set once any response byte arrived — after
/// that the request has definitely been processed, so a caller must not
/// transparently re-send it on another connection.
Status ReceiveFrame(int fd, uint32_t* tag, Buffer* payload,
                    bool* got_bytes = nullptr) {
  uint8_t header[8];
  OE_RETURN_IF_ERROR(ReadFully(fd, header, sizeof(header), got_bytes));
  uint32_t len = 0;
  std::memcpy(&len, header, 4);
  std::memcpy(tag, header + 4, 4);
  if (len < 4 || len > kMaxFrameBytes) {
    return Status::Corruption("bad frame length");
  }
  payload->resize(len - 4);
  if (len > 4) {
    OE_RETURN_IF_ERROR(
        ReadFully(fd, payload->data(), payload->size(), got_bytes));
  }
  return Status::OK();
}

}  // namespace

TcpServer::TcpServer(int listen_fd, uint16_t port, RpcHandler handler)
    : listen_fd_(listen_fd), port_(port), handler_(std::move(handler)) {
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

Result<std::unique_ptr<TcpServer>> TcpServer::Start(uint16_t port,
                                                    RpcHandler handler) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IoError(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    return Status::IoError(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return Status::IoError("getsockname failed");
  }
  return std::unique_ptr<TcpServer>(
      new TcpServer(fd, ntohs(addr.sin_port), std::move(handler)));
}

TcpServer::~TcpServer() { Stop(); }

void TcpServer::Stop() {
  if (stopping_.exchange(true)) return;
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    // Unblock connection threads parked in read() on live connections.
    for (const auto& [id, fd] : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    for (auto& [id, thread] : conn_threads_) {
      threads.push_back(std::move(thread));
    }
    conn_threads_.clear();
    for (auto& thread : finished_threads_) threads.push_back(std::move(thread));
    finished_threads_.clear();
  }
  for (auto& t : threads) t.join();
}

size_t TcpServer::ActiveConnections() const {
  std::lock_guard<std::mutex> lock(conn_mutex_);
  return conn_fds_.size();
}

void TcpServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::vector<std::thread> finished;
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      const uint64_t id = next_conn_id_++;
      conn_fds_.emplace(id, fd);
      conn_threads_.emplace(
          id, std::thread([this, id, fd] { ServeConnection(id, fd); }));
      // Reap threads whose connections have since closed, so a long-lived
      // server does not accumulate one dead thread per past connection.
      finished.swap(finished_threads_);
    }
    for (auto& t : finished) t.join();
  }
}

void TcpServer::ServeConnection(uint64_t id, int fd) {
  Buffer request;
  Buffer response;
  while (!stopping_.load(std::memory_order_acquire)) {
    uint32_t method = 0;
    if (!ReceiveFrame(fd, &method, &request).ok()) break;
    response.clear();
    const Status status = handler_(method, request, &response);
    Status io;
    if (status.ok()) {
      io = SendFrame(fd, 0, response.data(), response.size());
    } else {
      const std::string msg = status.ToString();
      io = SendFrame(fd, static_cast<uint32_t>(status.code()),
                     reinterpret_cast<const uint8_t*>(msg.data()),
                     msg.size());
    }
    if (!io.ok()) break;
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(conn_mutex_);
  conn_fds_.erase(id);
  auto it = conn_threads_.find(id);
  if (it != conn_threads_.end()) {
    // Hand the (still finishing) thread to the reaper; Stop() may already
    // have taken ownership, in which case there is nothing to move.
    finished_threads_.push_back(std::move(it->second));
    conn_threads_.erase(it);
  }
}

TcpTransport::~TcpTransport() {
  ShutdownCallAsync();  // queued completions still dial through *this
  for (auto& [node, endpoint] : endpoints_) {
    for (int fd : endpoint->idle_fds) ::close(fd);
  }
}

void TcpTransport::AddNode(NodeId node, const std::string& host,
                           uint16_t port) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto endpoint = std::make_unique<Endpoint>();
  endpoint->host = host;
  endpoint->port = port;
  endpoints_[node] = std::move(endpoint);
}

Result<TcpTransport::Connection> TcpTransport::CheckOut(Endpoint* endpoint) {
  {
    std::lock_guard<std::mutex> lock(endpoint->mutex);
    if (!endpoint->idle_fds.empty()) {
      const int fd = endpoint->idle_fds.back();
      endpoint->idle_fds.pop_back();
      return Connection{fd, /*pooled=*/true};
    }
  }
  OE_ASSIGN_OR_RETURN(const int fd, Dial(*endpoint));
  return Connection{fd, /*pooled=*/false};
}

Result<int> TcpTransport::Dial(const Endpoint& endpoint) {
  // Dial outside the endpoint lock so concurrent callers connect in
  // parallel rather than serializing on the handshake.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host: " + endpoint.host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    // ECONNREFUSED means the server is down right now: report Unavailable
    // so the retry policy can wait for it to come back.
    if (errno == ECONNREFUSED) {
      return Status::Unavailable(std::string("connect: ") +
                                 std::strerror(errno));
    }
    return Status::IoError(std::string("connect: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Arm per-socket I/O timeouts from the RPC deadline so a hung peer cannot
  // park a worker thread forever; a fired timeout surfaces as kTimedOut.
  const int64_t deadline_ms = rpc_options().deadline_ms;
  if (deadline_ms > 0) {
    timeval tv{};
    tv.tv_sec = deadline_ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>((deadline_ms % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  return fd;
}

void TcpTransport::InvalidatePool(Endpoint* endpoint) {
  std::vector<int> stale;
  {
    std::lock_guard<std::mutex> lock(endpoint->mutex);
    stale.swap(endpoint->idle_fds);
  }
  for (int fd : stale) ::close(fd);
}

void TcpTransport::CheckIn(Endpoint* endpoint, int fd) {
  std::lock_guard<std::mutex> lock(endpoint->mutex);
  if (endpoint->idle_fds.size() < kMaxIdleConnections) {
    endpoint->idle_fds.push_back(fd);
  } else {
    ::close(fd);
  }
}

Status TcpTransport::CallOnce(NodeId node, uint32_t method,
                              const Buffer& request, Buffer* response) {
  Endpoint* endpoint = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = endpoints_.find(node);
    if (it == endpoints_.end()) {
      return Status::NotFound("no such node: " + std::to_string(node));
    }
    endpoint = it->second.get();
  }
  OE_ASSIGN_OR_RETURN(Connection conn, CheckOut(endpoint));

  uint32_t code = 0;
  bool got_bytes = false;
  auto attempt = [&](int fd) {
    got_bytes = false;
    Status status = SendFrame(fd, method, request.data(), request.size());
    if (status.ok()) status = ReceiveFrame(fd, &code, response, &got_bytes);
    return status;
  };

  Status status = attempt(conn.fd);
  if (status.code() == StatusCode::kInvalidArgument) {
    // Length validation failed before any bytes hit the wire; the
    // connection is still clean.
    CheckIn(endpoint, conn.fd);
    return status;
  }
  if (!status.ok()) {
    ::close(conn.fd);
    // A pooled connection that failed before yielding a single response
    // byte is most likely stale — the server restarted since we pooled it,
    // so the request never reached a live peer. Drop every idle connection
    // to that endpoint (they are all from the dead server) and re-send once
    // on a freshly dialed socket. Failures after response bytes arrived, or
    // on a fresh connection, propagate to the caller's retry policy.
    if (!conn.pooled || got_bytes) return status;
    InvalidatePool(endpoint);
    auto redial = Dial(*endpoint);
    if (!redial.ok()) return redial.status();
    conn = Connection{std::move(redial).ValueOrDie(), /*pooled=*/false};
    response->clear();
    status = attempt(conn.fd);
    if (!status.ok()) {
      ::close(conn.fd);
      return status;
    }
  }
  CheckIn(endpoint, conn.fd);
  stats_.Record(request.size(), response->size());
  if (code != 0) {
    const std::string msg(response->begin(), response->end());
    response->clear();
    // The frame tag is the remote status code (see ServeConnection), so a
    // kWrongOwner rejection or a checkpoint rejection keeps its meaning, as
    // over InProcTransport. A tag past the last known code is internal.
    const StatusCode remote =
        code <= static_cast<uint32_t>(StatusCode::kWrongOwner)
            ? static_cast<StatusCode>(code)
            : StatusCode::kInternal;
    return Status::FromCode(remote, "remote error: " + msg);
  }
  return Status::OK();
}

}  // namespace oe::net
