#ifndef OE_NET_TRANSPORT_H_
#define OE_NET_TRANSPORT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "net/message.h"
#include "obs/metrics.h"

namespace oe::net {

/// Node address within a transport (dense small integers).
using NodeId = uint32_t;

/// Server-side dispatch: handles `method` with `request`, fills `response`.
using RpcHandler =
    std::function<Status(uint32_t method, const Buffer& request,
                         Buffer* response)>;

/// Request/response byte counters (the simulation charges these against the
/// modeled network bandwidth) plus failure-path counters maintained by the
/// Transport::Call retry wrapper.
struct NetStats {
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> bytes_sent{0};
  std::atomic<uint64_t> bytes_received{0};
  /// Attempts that returned a non-OK status (before any retry succeeded).
  std::atomic<uint64_t> failed_requests{0};
  /// Re-issued attempts after a retryable failure.
  std::atomic<uint64_t> retries{0};
  /// Calls abandoned because the RpcOptions deadline expired (plus attempts
  /// that themselves returned kTimedOut).
  std::atomic<uint64_t> timeouts{0};

  void Record(uint64_t sent, uint64_t received) {
    requests.fetch_add(1, std::memory_order_relaxed);
    bytes_sent.fetch_add(sent, std::memory_order_relaxed);
    bytes_received.fetch_add(received, std::memory_order_relaxed);
  }

  /// Point-in-time copy (plain integers); prefer over holding the live
  /// reference while traffic is in flight.
  struct Snapshot {
    uint64_t requests = 0;
    uint64_t bytes_sent = 0;
    uint64_t bytes_received = 0;
    uint64_t failed_requests = 0;
    uint64_t retries = 0;
    uint64_t timeouts = 0;
  };
  Snapshot TakeSnapshot() const {
    Snapshot snap;
    snap.requests = requests.load(std::memory_order_relaxed);
    snap.bytes_sent = bytes_sent.load(std::memory_order_relaxed);
    snap.bytes_received = bytes_received.load(std::memory_order_relaxed);
    snap.failed_requests = failed_requests.load(std::memory_order_relaxed);
    snap.retries = retries.load(std::memory_order_relaxed);
    snap.timeouts = timeouts.load(std::memory_order_relaxed);
    return snap;
  }
};

/// Per-call failure policy applied by Transport::Call around every attempt.
/// The default (no retries, no deadline) preserves fail-fast semantics.
struct RpcOptions {
  /// Total budget for the call including retries and backoff sleeps;
  /// 0 = unbounded. When it expires between attempts the call returns
  /// kTimedOut. TcpTransport additionally arms per-socket send/receive
  /// timeouts from this value so a hung peer cannot block forever.
  int64_t deadline_ms = 0;
  /// Extra attempts after the first; only kUnavailable / kIoError /
  /// kTimedOut attempt results are retried. Retrying non-idempotent
  /// methods is safe only with request dedup (see PsService sequence ids).
  int max_retries = 0;
  /// Exponential backoff between attempts: initial, multiplier, cap.
  int64_t backoff_initial_ms = 1;
  double backoff_multiplier = 2.0;
  int64_t backoff_max_ms = 100;
};

/// Sleeps retry `retry` (0-based) of an RpcOptions backoff sequence:
/// backoff_initial_ms first, then backoff_multiplier times the previous
/// sleep, capped at backoff_max_ms (both bounds at least 1 ms) and at
/// `cap_ms` when that is positive. Transport::Call's retries and PsClient's
/// MultiGet retries share this one sequence.
void BackoffSleep(const RpcOptions& options, int retry, int64_t cap_ms = 0);

/// True for transient transport failures worth re-attempting.
inline bool IsRetryable(StatusCode code) {
  return code == StatusCode::kUnavailable || code == StatusCode::kIoError ||
         code == StatusCode::kTimedOut;
}

/// One RPC of a ParallelCall fan-out. `request` may be null (empty payload);
/// `response` must be non-null and stays owned by the caller.
struct RpcCall {
  NodeId node = 0;
  uint32_t method = 0;
  const Buffer* request = nullptr;
  Buffer* response = nullptr;
  Status status;  // per-call result, filled by ParallelCall
};

/// RPC transport. Implementations: in-process (deterministic, default for
/// tests/benches) and TCP loopback (demonstrates the real wire path; see
/// TcpTransport). Call() is the blocking primitive; CallAsync()/
/// ParallelCall() overlap independent per-node requests, which is how the
/// worker pulls/pushes shards from all PS nodes concurrently (Section IV).
class Transport {
 public:
  virtual ~Transport() = default;

  /// Calls `method` on `node`, blocking until the response arrives.
  /// Applies the transport's RpcOptions: retryable failures (kUnavailable /
  /// kIoError / kTimedOut) are re-attempted with exponential backoff until
  /// max_retries or the deadline is exhausted. Thread-safe; concurrent
  /// calls to the same node must not corrupt each other (TcpTransport
  /// pools one connection per in-flight call).
  Status Call(NodeId node, uint32_t method, const Buffer& request,
              Buffer* response);

  /// One attempt with no retry policy — the primitive implementations
  /// provide. Must be thread-safe like Call().
  virtual Status CallOnce(NodeId node, uint32_t method, const Buffer& request,
                          Buffer* response) = 0;

  /// Installs the retry/deadline policy for subsequent Call()s. Set before
  /// traffic starts; not synchronized against in-flight calls.
  void set_rpc_options(const RpcOptions& options) { rpc_options_ = options; }
  const RpcOptions& rpc_options() const { return rpc_options_; }

  /// Issues `method` on `node` without blocking the caller; `done` runs
  /// exactly once with the call's status after the response landed in
  /// `*response`. `request` and `response` must stay alive until then, and
  /// all outstanding completions must have run before the transport is
  /// destroyed (ParallelCall guarantees both). The default implementation
  /// dispatches the blocking Call() onto a lazily started internal thread
  /// pool; `done` then runs on a pool thread, or on the thread of a
  /// ParallelCall that claimed the call before any pool thread started it.
  virtual void CallAsync(NodeId node, uint32_t method, const Buffer& request,
                         Buffer* response, std::function<void(Status)> done);

  /// Issues all `calls` concurrently and blocks until every one finished.
  /// Per-call results land in RpcCall::status; the return value carries the
  /// code of the first non-OK status in call order (deterministic
  /// regardless of completion order) and a message aggregating *every*
  /// failing node ("node 1: ...; node 3: ..."), so multi-node fault
  /// schedules are debuggable from a single Status. A single call runs as a
  /// blocking Call() on the calling thread. Two or more go to the virtual
  /// FanOut(), so a transport with a cheaper way to overlap its calls (see
  /// TcpTransport) serves them its own way; whichever way runs, every call
  /// is retried, timed and counted exactly as a blocking Call(). Returns
  /// only after every call has finished.
  Status ParallelCall(RpcCall* calls, size_t n);
  Status ParallelCall(std::vector<RpcCall>* calls) {
    return ParallelCall(calls->data(), calls->size());
  }

  const NetStats& stats() const { return stats_; }

  /// Threads of the fan-out pool every CallAsync shares: max(8, 2 x cores).
  static int FanOutPoolThreads();

 protected:
  /// ParallelCall's body for n >= 2 calls: fills every RpcCall::status and
  /// returns once all `n` finished. The base serves calls[0] on the calling
  /// thread and submits calls[1..n) through CallAsync; afterwards the
  /// calling thread claims and runs every one whose pool task has not
  /// started (each call has one claim, taken once), so a fan-out never
  /// waits on a busy pool.
  virtual void FanOut(RpcCall* calls, size_t n);

  /// A call's request, with an empty payload standing in for a null one.
  static const Buffer& RequestOf(const RpcCall& call);

  /// Completes a call that started at `start` and whose first attempt
  /// (one CallOnce, or an override's equivalent) returned `first`. A
  /// failure continues Call()'s retry policy from attempt 1, with the
  /// deadline counted from `start`. Then records the call's net.rpc_ns
  /// sample and net/rpc span, both from `start`. Call() is CallOnce
  /// followed by this, so an override that splits the first attempt
  /// across a fan-out retries, times and counts each call the same way.
  Status FinishCall(NodeId node, uint32_t method, const Buffer& request,
                    Buffer* response, Nanos start, Status first);

  /// Blocks until every outstanding CallAsync completion has run, by
  /// destroying the fan-out pool (which drains its queue first). Derived
  /// transports MUST call this at the top of their destructor: queued
  /// completions call back into CallOnce, which touches derived members
  /// that are gone by the time the base destructor would reap the pool.
  void ShutdownCallAsync() {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    pool_.reset();
  }

  NetStats stats_;

 private:
  /// Folds per-call statuses into ParallelCall's aggregate return value.
  static Status AggregateCallErrors(const RpcCall* calls, size_t n);

  /// The retry/backoff loop of FinishCall: `status` is the first
  /// attempt's result and `start` the call's start.
  Status CallWithRetries(NodeId node, uint32_t method, const Buffer& request,
                         Buffer* response, Nanos start, Status status);

  /// Lazily registered "net.rpc_ns" distribution for `node`, labeled with
  /// this transport's instance id. Lock-free after first use per node;
  /// nodes beyond the tracked range share one "other" instrument.
  obs::Distribution* RpcLatencyFor(NodeId node);

  RpcOptions rpc_options_;

  const uint64_t obs_id_ = obs::NextInstanceId();
  static constexpr size_t kMaxTrackedNodes = 64;
  std::array<std::atomic<obs::Distribution*>, kMaxTrackedNodes> rpc_latency_{};
  std::atomic<obs::Distribution*> rpc_latency_other_{nullptr};

  /// Lazily started fan-out pool shared by every CallAsync on this
  /// transport. Sized generously: fan-out tasks are I/O-bound blocking
  /// calls, so oversubscription is harmless while undersizing serializes
  /// the very round-trips ParallelCall exists to overlap.
  ThreadPool* pool();

  std::mutex pool_mutex_;
  std::unique_ptr<ThreadPool> pool_;
};

/// In-process transport: every node is an RpcHandler in the same address
/// space. Requests still cross a serialization boundary, so the code path
/// (encode -> dispatch -> decode) matches the distributed deployment.
/// Handlers run on the caller's thread for Call() and on fan-out pool
/// threads for CallAsync(), so they must be thread-safe (PsService is, to
/// the extent its store is).
class InProcTransport final : public Transport {
 public:
  ~InProcTransport() override { ShutdownCallAsync(); }

  /// Registers `handler` as `node`. Replaces any previous registration.
  void RegisterNode(NodeId node, RpcHandler handler);
  void UnregisterNode(NodeId node);

  Status CallOnce(NodeId node, uint32_t method, const Buffer& request,
                  Buffer* response) override;

 private:
  std::mutex mutex_;
  std::unordered_map<NodeId, RpcHandler> handlers_;
};

}  // namespace oe::net

#endif  // OE_NET_TRANSPORT_H_
