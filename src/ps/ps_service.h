#ifndef OE_PS_PS_SERVICE_H_
#define OE_PS_PS_SERVICE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "net/message.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "ps/serving_cache.h"
#include "storage/embedding_store.h"

namespace oe::ps {

class RoutingDirectory;

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

/// Idempotency + routing header prepended to every PS request payload:
///   [ client_id : u64 ][ seq : u64 ][ route_epoch : u64 ]
/// A client stamps each mutating operation with a unique monotonically
/// increasing `seq`; the server remembers recent (client_id, seq) pairs and
/// replays the recorded reply instead of re-executing, so a retry after a
/// lost response (or a network-duplicated request) never double-applies a
/// gradient. seq == 0 or client_id == 0 opts out of dedup — reads use it,
/// since re-executing a read is harmless and caching its reply is not.
/// `route_epoch` is the slot-table epoch the client routed under; the
/// service validates keyed requests against the *live* table (not the
/// header epoch), so the field is diagnostic — it names the stale epoch in
/// kWrongOwner rejections.
struct RpcHeader {
  uint64_t client_id = 0;
  uint64_t seq = 0;
  uint64_t route_epoch = 0;
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

  /// Keyed requests rejected with kWrongOwner (stale routes bouncing off a
  /// migrated or sealed slot; for tests asserting the retry path fired).
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

  /// Enables slot-ownership validation: this service is node `node_id`, and
  /// every keyed request (pull/push/peek/multi-get) is checked against
  /// `directory`'s current slot table — a key whose slot this node does not
  /// own is rejected wholesale with kWrongOwner *before* any store access.
  /// With a null `directory` (the default) all checks are skipped — the
  /// static-topology behavior direct-construction tests rely on.
  /// Not thread-safe against in-flight handlers; call before traffic.
  void ConfigureRouting(net::NodeId node_id, const RoutingDirectory* directory,
                        std::nullptr_t = nullptr) {  // perfbench stub arg
    node_id_ = node_id;
    directory_ = directory;
  }

  /// Seals `slots` for migration: subsequent pulls/pushes touching a sealed
  /// slot are rejected with kWrongOwner even while the table still names
  /// this node as owner. Blocks until every in-flight keyed handler has
  /// drained (they hold the route lock shared), so after SealSlots returns
  /// no mutation of a sealed slot is still executing — the export that
  /// follows reads a frozen range. Snapshot reads (peek/multi-get) are not
  /// blocked by a seal: the published checkpoint they serve cannot change
  /// under them, and ownership re-validation happens at publish.
  void SealSlots(const std::vector<uint32_t>& slots);
  void UnsealSlots(const std::vector<uint32_t>& slots);

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
                  net::Buffer* response, const RpcHeader& header);
  Status HandlePull(net::Reader* reader, net::Buffer* response,
                    const RpcHeader& header);
  Status HandlePush(net::Reader* reader, const RpcHeader& header);
  Status HandlePeek(net::Reader* reader, net::Buffer* response,
                    const RpcHeader& header);
  Status HandleMultiGet(net::Reader* reader, net::Buffer* response,
                        const RpcHeader& header);

  /// Wholesale ownership check for a keyed request: OK only if *every* key
  /// is accepted here (the table owner is this node and, when `check_seal`,
  /// the slot is not sealed). Caller must hold route_mutex_ (shared). No-op
  /// when routing is unconfigured.
  Status CheckOwnership(const uint64_t* keys, size_t n, bool check_seal,
                        const RpcHeader& header) const;

  /// Lazily registered "ps.handle_ns" distribution for `method`, labeled
  /// with this service's instance id. Lock-free after first use per method.
  obs::Distribution* HandleLatencyFor(uint32_t method);

  storage::EmbeddingStore* store_;
  std::unique_ptr<ServingCache> serving_cache_;

  net::NodeId node_id_ = 0;
  const RoutingDirectory* directory_ = nullptr;
  /// Keyed handlers hold this shared for their full execution; SealSlots /
  /// UnsealSlots take it exclusively, which doubles as the in-flight
  /// handler barrier a migration needs before exporting.
  mutable std::shared_mutex route_mutex_;
  /// Slots sealed for migration (guarded by route_mutex_). Lazily sized to
  /// storage::kNumRoutingSlots on first seal; empty == nothing sealed.
  std::vector<bool> sealed_;

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
