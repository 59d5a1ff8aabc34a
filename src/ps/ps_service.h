#ifndef OE_PS_PS_SERVICE_H_
#define OE_PS_PS_SERVICE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "net/message.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "ps/router.h"
#include "ps/serving_cache.h"
#include "storage/embedding_store.h"

namespace oe::ps {

/// RPC method ids understood by a PS node (the paper's PullWeights /
/// PushGradients / UpdateWeights operator family).
enum class PsMethod : uint32_t {
  kPull = 1,
  kPush = 2,
  kFinishPull = 3,
  kRequestCheckpoint = 4,
  kDrainCheckpoints = 5,
  kRecover = 6,
  kEntryCount = 7,
  kPublishedCheckpoint = 8,
  kPeek = 9,
  /// Blocks until deferred cache maintenance for a batch completed
  /// (pipelined engine only; no-op elsewhere). The simulation driver uses
  /// it to time the maintenance phase.
  kWaitMaintenance = 10,
  /// Online-serving batched lookup. Read-only (dedup-exempt, never enters
  /// the push critical section); served from the node's last published
  /// checkpoint snapshot, optionally through the ServingCache. Request:
  /// header + u64 key span. Response: [snapshot cp : u64] + one found byte
  /// per key + float span of keys*dim weights (zeros where not found).
  kMultiGet = 11,
};

/// Idempotency header prepended to every PS request payload:
///   [ client_id : u64 ][ seq : u64 ]
/// A client stamps each mutating operation with a unique monotonically
/// increasing `seq`; the server remembers recent (client_id, seq) pairs and
/// replays the recorded reply instead of re-executing, so a retry after a
/// lost response (or a network-duplicated request) never double-applies a
/// gradient. seq == 0 or client_id == 0 opts out of dedup — reads use it,
/// since re-executing a read is harmless and caching its reply is not.
struct RpcHeader {
  uint64_t client_id = 0;
  uint64_t seq = 0;
};

/// True for methods that change server state and therefore must not run
/// twice for one client-issued operation.
inline bool IsMutatingMethod(PsMethod method) {
  switch (method) {
    case PsMethod::kPush:
    case PsMethod::kFinishPull:
    case PsMethod::kRequestCheckpoint:
    case PsMethod::kDrainCheckpoints:
    case PsMethod::kRecover:
      return true;
    default:
      return false;
  }
}

/// Server-side adapter: decodes PsMethod requests and forwards them to the
/// node's EmbeddingStore. One PsService per PS node; thread-safe to the
/// extent the underlying store is. Maintains a per-client dedup window
/// (see RpcHeader) sized for retry storms, not history: a retry arrives
/// within a handful of in-flight operations of the original. The window
/// dies with the service — safe, because a node restart rolls the store
/// back to its checkpoint and the trainer replays from there with fresh
/// sequence numbers.
class PsService {
 public:
  /// `store` must outlive the service.
  explicit PsService(storage::EmbeddingStore* store) : store_(store) {}

  /// net::RpcHandler-compatible entry point. Every request must begin with
  /// an RpcHeader; a request too short to carry one is rejected.
  Status Handle(uint32_t method, const net::Buffer& request,
                net::Buffer* response) {
    return Handle(method, request.data(), request.size(), response);
  }
  /// The same over `size` request bytes at `request`, decoded in place.
  /// The bytes need no alignment: a push whose gradient span is not
  /// float-aligned is copied once before it is applied.
  Status Handle(uint32_t method, const uint8_t* request, size_t size,
                net::Buffer* response);

  /// Convenience: a handler bound to this service.
  net::RpcHandler AsHandler() {
    return [this](uint32_t method, const net::Buffer& request,
                  net::Buffer* response) {
      return Handle(method, request, response);
    };
  }

  /// Mutating requests short-circuited by the dedup window (for tests).
  uint64_t DedupHits() const;

  /// Keyed requests rejected with kWrongOwner: requests that named a key
  /// another node owns.
  uint64_t WrongOwnerRejects() const {
    return wrong_owner_rejects_.load(std::memory_order_relaxed);
  }

  /// Puts a hot-embedding ServingCache (capacity in bytes) in front of the
  /// store's snapshot read path for kMultiGet. Call before serving traffic;
  /// not thread-safe against in-flight handlers.
  void EnableServingCache(size_t capacity_bytes) {
    serving_cache_ = std::make_unique<ServingCache>(capacity_bytes,
                                                    store_->config().dim);
  }

  /// The serving cache, or nullptr when disabled.
  ServingCache* serving_cache() { return serving_cache_.get(); }

  /// Enables ownership checks: this service is node `node_id` of `router`,
  /// and a keyed request (pull/push/peek/multi-get) naming any key the
  /// router places on another node is rejected as a whole with kWrongOwner
  /// before any store access. With a null `router` (the default) every key
  /// is accepted, which direct-construction tests rely on. Call before
  /// traffic. The third parameter stays only for perfbench until ROADMAP
  /// item 1's contract change.
  void ConfigureRouting(net::NodeId node_id, const Router* router,
                        std::nullptr_t = nullptr) {
    node_id_ = node_id;
    router_ = router;
  }

 private:
  /// Replies remembered per client; evicted FIFO beyond this.
  static constexpr size_t kDedupWindow = 256;

  struct CachedReply {
    Status status;
    net::Buffer response;
  };
  struct ClientWindow {
    std::unordered_map<uint64_t, CachedReply> replies;  // by seq
    std::deque<uint64_t> order;                         // eviction order
  };

  Status Dispatch(uint32_t method, net::Reader* reader,
                  net::Buffer* response);
  Status HandlePull(net::Reader* reader, net::Buffer* response);
  Status HandlePush(net::Reader* reader);
  Status HandlePeek(net::Reader* reader, net::Buffer* response);
  Status HandleMultiGet(net::Reader* reader, net::Buffer* response);

  /// Ownership check for a keyed request: OK only if the router places
  /// every key on this node. No-op when routing is unconfigured.
  Status CheckOwnership(const uint64_t* keys, size_t n) const;

  /// Lazily registered "ps.handle_ns" distribution for `method`, labeled
  /// with this service's instance id. Lock-free after first use per method.
  obs::Distribution* HandleLatencyFor(uint32_t method);

  storage::EmbeddingStore* store_;
  std::unique_ptr<ServingCache> serving_cache_;

  net::NodeId node_id_ = 0;
  const Router* router_ = nullptr;

  static constexpr size_t kMaxMethodId = 16;
  const uint64_t obs_id_ = obs::NextInstanceId();
  std::array<std::atomic<obs::Distribution*>, kMaxMethodId + 1>
      handle_latency_{};

  mutable std::mutex dedup_mutex_;
  std::unordered_map<uint64_t, ClientWindow> windows_;  // by client_id
  uint64_t dedup_hits_ = 0;
  mutable std::atomic<uint64_t> wrong_owner_rejects_{0};
};

}  // namespace oe::ps

#endif  // OE_PS_PS_SERVICE_H_
