#ifndef OE_NET_TCP_H_
#define OE_NET_TCP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/transport.h"

namespace oe::net {

/// Hard cap on one frame (length word included); the receiver rejects
/// anything larger, so the sender validates against it before writing.
inline constexpr size_t kMaxFrameBytes = 256u << 20;
/// Largest request/response payload one RPC frame can carry.
inline constexpr size_t kMaxFramePayloadBytes = kMaxFrameBytes - 4;

/// Blocking TCP RPC server for one PS node. Wire format (little endian):
///   request:  [ len : u32 ][ method : u32 ][ payload : len-4 bytes ]
///   response: [ len : u32 ][ status : u32 ][ payload : len-4 bytes ]
/// A non-zero status carries the error message as payload. Both ends write
/// a frame with one sendmsg (header and payload as two iovecs) and read one
/// with one read for the header and whatever body already arrived, plus
/// reads straight into the payload for the rest. The server keeps bytes
/// that arrive past a request frame as the start of the next request, so a
/// client may pipeline requests on one connection.
class TcpServer {
 public:
  /// Binds to 127.0.0.1:`port` (0 = ephemeral; see port()) and serves
  /// `handler` until Stop() or destruction. One thread per connection;
  /// threads of closed connections are reaped as new connections arrive
  /// rather than accumulating for the server's lifetime.
  static Result<std::unique_ptr<TcpServer>> Start(uint16_t port,
                                                  RpcHandler handler);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  uint16_t port() const { return port_; }
  void Stop();

  /// Connections currently being served (for tests/introspection).
  size_t ActiveConnections() const;

 private:
  TcpServer(int listen_fd, uint16_t port, RpcHandler handler);

  void AcceptLoop();
  void ServeConnection(uint64_t id, int fd);

  int listen_fd_;
  uint16_t port_;
  RpcHandler handler_;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  mutable std::mutex conn_mutex_;
  uint64_t next_conn_id_ = 0;
  std::unordered_map<uint64_t, int> conn_fds_;  // open, for shutdown on Stop
  std::unordered_map<uint64_t, std::thread> conn_threads_;
  std::vector<std::thread> finished_threads_;  // exited, awaiting join
};

/// TCP transport: maps node ids to host:port endpoints. Each endpoint keeps
/// a small pool of cached connections, so concurrent calls to the same node
/// (the ParallelCall fan-out, or several workers sharing one transport) run
/// on distinct sockets instead of serializing behind a single connection.
/// A fan-out runs on the calling thread and starts no thread: it checks out
/// one connection per call and writes every request, then reads every reply
/// in call order.
///
/// One attempt is a send step and a receive step; CallOnce is the two in a
/// row and a fan-out runs all send steps before all receive steps. A pooled
/// connection that turns out to be stale (the server restarted since it
/// was pooled) is detected in either step — a failed send, or a receive
/// that fails before any reply byte arrived. The whole idle pool for that
/// endpoint is invalidated and the request re-sent once on a freshly dialed
/// socket, so a server restart between calls is invisible to callers. A
/// reply followed by further bytes closes the connection as Corruption.
/// Connection refusal maps to kUnavailable and, when an RpcOptions deadline
/// is set, per-socket send/receive timeouts map hung peers to kTimedOut —
/// both retryable by the Transport::Call policy, which a fan-out call whose
/// first attempt failed continues afterwards (Transport::FinishCall).
class TcpTransport final : public Transport {
 public:
  ~TcpTransport() override;

  /// Associates `node` with a server endpoint.
  void AddNode(NodeId node, const std::string& host, uint16_t port);

  Status CallOnce(NodeId node, uint32_t method, const Buffer& request,
                  Buffer* response) override;

 protected:
  /// All send steps, then all receive steps, on the calling thread; then
  /// FinishCall per call, so each is retried, timed and counted as by a
  /// blocking Call().
  void FanOut(RpcCall* calls, size_t n) override;

 private:
  struct Endpoint {
    std::string host;
    uint16_t port = 0;
    std::mutex mutex;           // guards idle_fds
    std::vector<int> idle_fds;  // pooled connections, most recent last
  };

  /// A checked-out socket; `pooled` records whether it was reused (and may
  /// therefore be stale) or freshly dialed.
  struct Connection {
    int fd = -1;
    bool pooled = false;
  };

  /// One call between its send step and its receive step.
  struct SentCall {
    Endpoint* endpoint = nullptr;
    Connection conn;  // the connection the request went out on
    Nanos start = 0;  // when the call's first attempt began (fan-out only)
  };

  /// Idle connections kept per node; calls beyond this run on short-lived
  /// extra sockets that close on check-in instead of pooling.
  static constexpr size_t kMaxIdleConnections = 8;

  /// The send step: checks out a connection to `node` and writes the
  /// request frame. An oversized request fails with InvalidArgument before
  /// a byte is written and leaves the connection pooled; a pooled
  /// connection that fails to send is stale (Resend).
  Status SendRequest(NodeId node, uint32_t method, const Buffer& request,
                     SentCall* sent);
  /// The receive step: reads the reply frame on `sent`'s connection,
  /// checks the connection back in, records NetStats and decodes a remote
  /// status. A pooled connection that fails before any reply byte arrived
  /// is stale (Resend), and the reply is read on the fresh one.
  Status ReceiveReply(uint32_t method, const Buffer& request, SentCall* sent,
                      Buffer* response);
  /// The stale-connection rule's one re-send: drops the endpoint's idle
  /// pool, dials a fresh connection into `sent` and writes the request.
  Status Resend(uint32_t method, const Buffer& request, SentCall* sent);

  /// Pops an idle pooled connection or dials a new one.
  Result<Connection> CheckOut(Endpoint* endpoint);
  /// Connects a new socket to `endpoint` (TCP_NODELAY, deadline timeouts).
  Result<int> Dial(const Endpoint& endpoint);
  /// Closes every idle connection (after one was found broken: the server
  /// restarted, so all of them are dead).
  void InvalidatePool(Endpoint* endpoint);
  /// Returns a healthy connection to the pool (or closes it if full).
  void CheckIn(Endpoint* endpoint, int fd);

  std::mutex mutex_;
  std::unordered_map<NodeId, std::unique_ptr<Endpoint>> endpoints_;
};

}  // namespace oe::net

#endif  // OE_NET_TCP_H_
