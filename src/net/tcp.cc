#include "net/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace oe::net {
namespace {

/// Frame header: the length word, then the method (requests) or the status
/// code (responses).
constexpr size_t kFrameHeaderBytes = 8;
/// What a frame's first read takes at most: the header plus whatever of the
/// body has already arrived. Serving replies and requests fit whole.
constexpr size_t kFrameReadBytes = 4096;

/// One read(2) of at most `n` bytes into `data`, retried on EINTR. Stores
/// the byte count in `*got`; end of stream, a fired receive timeout and any
/// other error each become a Status.
Status ReadSome(int fd, void* data, size_t n, size_t* got) {
  for (;;) {
    const ssize_t r = ::read(fd, data, n);
    if (r > 0) {
      *got = static_cast<size_t>(r);
      return Status::OK();
    }
    if (r == 0) return Status::IoError("connection closed");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::TimedOut("read timed out");
    }
    return Status::IoError(std::string("read: ") + std::strerror(errno));
  }
}

Status ReadFully(int fd, uint8_t* data, size_t n, bool* got_bytes) {
  size_t done = 0;
  while (done < n) {
    size_t got = 0;
    OE_RETURN_IF_ERROR(ReadSome(fd, data + done, n - done, &got));
    done += got;
    if (got_bytes != nullptr) *got_bytes = true;
  }
  return Status::OK();
}

/// Writes one frame, header and payload, with a single sendmsg when the
/// socket takes it all, looping on partial sends.
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
  uint8_t header[kFrameHeaderBytes];
  std::memcpy(header, &len, 4);
  std::memcpy(header + 4, &tag, 4);
  iovec iov[2] = {{header, sizeof(header)},
                  {const_cast<uint8_t*>(payload), n}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = n > 0 ? 2 : 1;
  while (msg.msg_iovlen > 0) {
    // MSG_NOSIGNAL: a peer closing mid-write must surface as EPIPE (an
    // IoError Status), not a process-killing SIGPIPE.
    const ssize_t r = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::TimedOut("send timed out");
      }
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    // Drop what went out: whole iovecs, then the front of the next one.
    size_t sent = static_cast<size_t>(r);
    while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      msg.msg_iov->iov_base = static_cast<uint8_t*>(msg.msg_iov->iov_base) +
                              sent;
      msg.msg_iov->iov_len -= sent;
    }
  }
  return Status::OK();
}

/// Reads frames off one socket. A frame's first read takes its header and
/// whatever of its body has already arrived into a small inline buffer;
/// only the rest of a larger body is read straight into the payload. Bytes
/// that arrived past a frame stay buffered for the next Receive.
class FrameReader {
 public:
  explicit FrameReader(int fd) : fd_(fd) {}

  FrameReader(const FrameReader&) = delete;
  FrameReader& operator=(const FrameReader&) = delete;

  /// `got_bytes` (optional) is set once any byte of the frame arrived —
  /// after that the request has definitely been processed, so a caller
  /// must not transparently re-send it on another connection.
  Status Receive(uint32_t* tag, Buffer* payload, bool* got_bytes = nullptr) {
    if (buffered() < kFrameHeaderBytes) {
      std::memmove(buf_, buf_ + begin_, buffered());
      end_ -= begin_;
      begin_ = 0;
      while (end_ < kFrameHeaderBytes) {
        size_t got = 0;
        OE_RETURN_IF_ERROR(ReadSome(fd_, buf_ + end_, sizeof(buf_) - end_,
                                    &got));
        end_ += got;
        if (got_bytes != nullptr) *got_bytes = true;
      }
    }
    uint32_t len = 0;
    std::memcpy(&len, buf_ + begin_, 4);
    std::memcpy(tag, buf_ + begin_ + 4, 4);
    begin_ += kFrameHeaderBytes;
    if (len < 4 || len > kMaxFrameBytes) {
      return Status::Corruption("bad frame length");
    }
    const size_t body = len - 4;
    payload->resize(body);
    const size_t have = std::min(body, buffered());
    if (have > 0) std::memcpy(payload->data(), buf_ + begin_, have);
    begin_ += have;
    if (have < body) {
      OE_RETURN_IF_ERROR(
          ReadFully(fd_, payload->data() + have, body - have, got_bytes));
    }
    return Status::OK();
  }

  /// Bytes read past the last received frame.
  size_t buffered() const { return end_ - begin_; }

 private:
  int fd_;
  size_t begin_ = 0;  // unconsumed bytes are buf_[begin_, end_)
  size_t end_ = 0;
  uint8_t buf_[kFrameReadBytes] = {};
};

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
  // Bytes a client sends past one request frame begin its next request, so
  // the reader keeps them: a client may pipeline requests on a connection.
  FrameReader reader(fd);
  while (!stopping_.load(std::memory_order_acquire)) {
    uint32_t method = 0;
    if (!reader.Receive(&method, &request).ok()) break;
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
  SentCall sent;
  OE_RETURN_IF_ERROR(SendRequest(node, method, request, &sent));
  return ReceiveReply(method, request, &sent, response);
}

void TcpTransport::FanOut(RpcCall* calls, size_t n) {
  std::vector<SentCall> sent(n);
  for (size_t i = 0; i < n; ++i) {
    sent[i].start = WallNowNanos();
    calls[i].status = SendRequest(calls[i].node, calls[i].method,
                                  RequestOf(calls[i]), &sent[i]);
  }
  // Every request is out before the first reply is awaited, so the nodes
  // serve them all at once while this thread reads the replies in order.
  for (size_t i = 0; i < n; ++i) {
    if (!calls[i].status.ok()) continue;
    calls[i].status = ReceiveReply(calls[i].method, RequestOf(calls[i]),
                                   &sent[i], calls[i].response);
    if (calls[i].status.ok()) {
      calls[i].status = FinishCall(calls[i].node, calls[i].method,
                                   RequestOf(calls[i]), calls[i].response,
                                   sent[i].start, Status::OK());
    }
  }
  // Failed first attempts continue the retry policy last, so a backoff
  // sleep does not delay reading the other calls' replies.
  for (size_t i = 0; i < n; ++i) {
    if (calls[i].status.ok()) continue;
    calls[i].status = FinishCall(calls[i].node, calls[i].method,
                                 RequestOf(calls[i]), calls[i].response,
                                 sent[i].start, std::move(calls[i].status));
  }
}

Status TcpTransport::SendRequest(NodeId node, uint32_t method,
                                 const Buffer& request, SentCall* sent) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = endpoints_.find(node);
    if (it == endpoints_.end()) {
      return Status::NotFound("no such node: " + std::to_string(node));
    }
    sent->endpoint = it->second.get();
  }
  OE_ASSIGN_OR_RETURN(sent->conn, CheckOut(sent->endpoint));
  const Status status =
      SendFrame(sent->conn.fd, method, request.data(), request.size());
  if (status.ok()) return status;
  if (status.code() == StatusCode::kInvalidArgument) {
    // Length validation failed before any bytes hit the wire; the
    // connection is still clean.
    CheckIn(sent->endpoint, sent->conn.fd);
    return status;
  }
  ::close(sent->conn.fd);
  if (!sent->conn.pooled) return status;
  return Resend(method, request, sent);
}

Status TcpTransport::ReceiveReply(uint32_t method, const Buffer& request,
                                  SentCall* sent, Buffer* response) {
  uint32_t code = 0;
  for (;;) {
    bool got_bytes = false;
    FrameReader reader(sent->conn.fd);
    Status status = reader.Receive(&code, response, &got_bytes);
    // One request gets one reply: anything more on the connection would
    // be read as the reply of the next call that checks it out.
    if (status.ok() && reader.buffered() != 0) {
      status = Status::Corruption("bytes past the reply frame");
    }
    if (status.ok()) break;
    ::close(sent->conn.fd);
    // A pooled connection that failed before yielding a single reply byte
    // is most likely stale: the server restarted since it was pooled, so
    // the request never reached a live peer. Failures after reply bytes
    // arrived, or on a fresh connection, propagate to the retry policy.
    if (!sent->conn.pooled || got_bytes) return status;
    response->clear();
    OE_RETURN_IF_ERROR(Resend(method, request, sent));
  }
  CheckIn(sent->endpoint, sent->conn.fd);
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

Status TcpTransport::Resend(uint32_t method, const Buffer& request,
                            SentCall* sent) {
  // Every idle connection to the endpoint is from the dead server too.
  InvalidatePool(sent->endpoint);
  OE_ASSIGN_OR_RETURN(const int fd, Dial(*sent->endpoint));
  sent->conn = Connection{fd, /*pooled=*/false};
  const Status status = SendFrame(fd, method, request.data(), request.size());
  if (!status.ok()) ::close(fd);
  return status;
}

}  // namespace oe::net
