#include "net/transport.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <thread>

#include "common/clock.h"
#include "obs/trace.h"

namespace oe::net {

namespace {

/// One call submitted through the base CallAsync. Its pool task and, inside
/// a ParallelCall, the calling thread share it; whoever claims it first
/// runs the call and its completion, and the other touches nothing else.
struct AsyncCall {
  Transport* transport;
  NodeId node;
  uint32_t method;
  const Buffer* request;
  Buffer* response;
  std::function<void(Status)> done;
  std::atomic<bool> claimed{false};

  void RunIfUnclaimed() {
    if (claimed.exchange(true, std::memory_order_acq_rel)) return;
    done(transport->Call(node, method, *request, response));
  }
};

/// Non-null while this thread's ParallelCall submits its calls: the base
/// CallAsync lists each call it queues here.
thread_local std::vector<std::shared_ptr<AsyncCall>>* t_claimable = nullptr;

}  // namespace

obs::Distribution* Transport::RpcLatencyFor(NodeId node) {
  std::atomic<obs::Distribution*>& slot =
      node < kMaxTrackedNodes ? rpc_latency_[node] : rpc_latency_other_;
  obs::Distribution* dist = slot.load(std::memory_order_acquire);
  if (dist != nullptr) return dist;
  // Racing threads register the same (name, labels) pair and get the same
  // stable pointer back, so the store below is idempotent.
  const obs::Labels labels = {
      {"transport", std::to_string(obs_id_)},
      {"node", node < kMaxTrackedNodes ? std::to_string(node) : "other"}};
  dist = obs::MetricsRegistry::Default().GetDistribution("net.rpc_ns", labels);
  slot.store(dist, std::memory_order_release);
  return dist;
}

void BackoffSleep(const RpcOptions& options, int retry, int64_t cap_ms) {
  int64_t sleep_ms = std::max<int64_t>(1, options.backoff_initial_ms);
  for (int i = 0; i < retry; ++i) {
    sleep_ms = std::min<int64_t>(
        std::max<int64_t>(1, options.backoff_max_ms),
        static_cast<int64_t>(static_cast<double>(sleep_ms) *
                             options.backoff_multiplier));
  }
  if (cap_ms > 0) sleep_ms = std::min(sleep_ms, cap_ms);
  std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
}

Status Transport::Call(NodeId node, uint32_t method, const Buffer& request,
                       Buffer* response) {
  const Nanos start = WallNowNanos();
  return FinishCall(node, method, request, response, start,
                    CallOnce(node, method, request, response));
}

Status Transport::FinishCall(NodeId node, uint32_t method,
                             const Buffer& request, Buffer* response,
                             Nanos start, Status first) {
  Status status = CallWithRetries(node, method, request, response, start,
                                  std::move(first));
  const Nanos end = WallNowNanos();
  RpcLatencyFor(node)->Record(static_cast<double>(end - start));
  obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
  if (recorder.enabled()) recorder.RecordSpan("net", "rpc", start, end - start);
  return status;
}

Status Transport::CallWithRetries(NodeId node, uint32_t method,
                                  const Buffer& request, Buffer* response,
                                  Nanos start, Status status) {
  const RpcOptions& options = rpc_options_;
  const Nanos deadline =
      options.deadline_ms > 0 ? start + options.deadline_ms * 1'000'000 : 0;
  for (int attempt = 0;; ++attempt) {
    if (status.code() == StatusCode::kTimedOut) {
      stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
    }
    if (status.ok()) return status;
    stats_.failed_requests.fetch_add(1, std::memory_order_relaxed);
    if (!IsRetryable(status.code()) || attempt >= options.max_retries) {
      return status;
    }
    int64_t cap_ms = 0;
    if (deadline != 0) {
      const Nanos remaining = deadline - WallNowNanos();
      if (remaining <= 0) {
        stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
        return Status::TimedOut("rpc deadline exceeded after " +
                                std::to_string(attempt + 1) +
                                " attempt(s); last: " + status.ToString());
      }
      // Never sleep past the deadline: cap the backoff at what is left.
      cap_ms = remaining / 1'000'000 + 1;
    }
    {
      obs::ScopedSpan backoff_span("net", "backoff");
      BackoffSleep(options, attempt, cap_ms);
    }
    stats_.retries.fetch_add(1, std::memory_order_relaxed);
    response->clear();
    status = CallOnce(node, method, request, response);
  }
}

int Transport::FanOutPoolThreads() {
  return static_cast<int>(
      std::max(8u, 2 * std::thread::hardware_concurrency()));
}

ThreadPool* Transport::pool() {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(FanOutPoolThreads());
  }
  return pool_.get();
}

void Transport::CallAsync(NodeId node, uint32_t method, const Buffer& request,
                          Buffer* response,
                          std::function<void(Status)> done) {
  auto call = std::make_shared<AsyncCall>();
  call->transport = this;
  call->node = node;
  call->method = method;
  call->request = &request;
  call->response = response;
  call->done = std::move(done);
  if (t_claimable != nullptr) t_claimable->push_back(call);
  pool()->Submit([call = std::move(call)] { call->RunIfUnclaimed(); });
}

const Buffer& Transport::RequestOf(const RpcCall& call) {
  static const Buffer kEmptyRequest;
  return call.request != nullptr ? *call.request : kEmptyRequest;
}

Status Transport::ParallelCall(RpcCall* calls, size_t n) {
  if (n == 0) return Status::OK();
  if (n == 1) {
    calls[0].status = Call(calls[0].node, calls[0].method,
                           RequestOf(calls[0]), calls[0].response);
    return calls[0].status;
  }
  FanOut(calls, n);
  return AggregateCallErrors(calls, n);
}

void Transport::FanOut(RpcCall* calls, size_t n) {
  std::mutex mutex;
  std::condition_variable cv;
  size_t outstanding = n - 1;
  // Every call is still submitted through the virtual CallAsync; the base
  // implementation lists the calls it queues, so that after calls[0] this
  // thread can serve any call no pool thread has claimed yet. A fan-out
  // therefore finishes even when every pool thread is busy.
  std::vector<std::shared_ptr<AsyncCall>> claimable;
  claimable.reserve(n - 1);
  std::vector<std::shared_ptr<AsyncCall>>* const outer = t_claimable;
  t_claimable = &claimable;
  for (size_t i = 1; i < n; ++i) {
    RpcCall* call = &calls[i];
    CallAsync(call->node, call->method, RequestOf(*call), call->response,
              [call, &mutex, &cv, &outstanding](Status status) {
                call->status = std::move(status);
                std::lock_guard<std::mutex> lock(mutex);
                if (--outstanding == 0) cv.notify_one();
              });
  }
  t_claimable = outer;
  calls[0].status = Call(calls[0].node, calls[0].method, RequestOf(calls[0]),
                         calls[0].response);
  for (const std::shared_ptr<AsyncCall>& call : claimable) {
    call->RunIfUnclaimed();
  }
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [&] { return outstanding == 0; });
}

Status Transport::AggregateCallErrors(const RpcCall* calls, size_t n) {
  const RpcCall* first = nullptr;
  size_t failing = 0;
  for (size_t i = 0; i < n; ++i) {
    if (calls[i].status.ok()) continue;
    ++failing;
    if (first == nullptr) first = &calls[i];
  }
  if (first == nullptr) return Status::OK();
  if (failing == 1) return first->status;
  // Several nodes failed: keep the first failure's code (deterministic in
  // call order) but list every failing node in the message.
  std::string message;
  for (size_t i = 0; i < n; ++i) {
    if (calls[i].status.ok()) continue;
    if (!message.empty()) message += "; ";
    message += "node " + std::to_string(calls[i].node) + ": " +
               calls[i].status.ToString();
  }
  return Status::FromCode(
      first->status.code(),
      std::to_string(failing) + " nodes failed: " + message);
}

void InProcTransport::RegisterNode(NodeId node, RpcHandler handler) {
  std::lock_guard<std::mutex> lock(mutex_);
  handlers_[node] = std::move(handler);
}

void InProcTransport::UnregisterNode(NodeId node) {
  std::lock_guard<std::mutex> lock(mutex_);
  handlers_.erase(node);
}

Status InProcTransport::CallOnce(NodeId node, uint32_t method,
                                 const Buffer& request, Buffer* response) {
  RpcHandler handler;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = handlers_.find(node);
    if (it == handlers_.end()) {
      return Status::NotFound("no such node: " + std::to_string(node));
    }
    handler = it->second;
  }
  response->clear();
  Status status = handler(method, request, response);
  stats_.Record(request.size(), response->size());
  return status;
}

}  // namespace oe::net
