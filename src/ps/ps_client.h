#ifndef OE_PS_PS_CLIENT_H_
#define OE_PS_PS_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "net/transport.h"
#include "ps/slot_table.h"
#include "storage/entry_layout.h"

namespace oe::ps {

enum class PsMethod : uint32_t;

/// Worker-side client: batches Pull/Push per PS node over a Transport and
/// reassembles responses in key order. Per-node requests are issued
/// concurrently via Transport::ParallelCall — one overlapped round trip
/// per operation instead of num_nodes sequential ones (Section IV: workers
/// reach all PS shards in parallel). Errors surface with the code of the
/// first failing node in node order, deterministically.
///
/// Every request carries an RpcHeader: a process-unique client id, a fresh
/// sequence number for mutating operations (so transport-level retries and
/// network-duplicated requests are deduplicated server-side; see
/// PsService), and the routing epoch the request was routed under.
///
/// Routing: the client routes keyed operations with a *cached* SlotTable
/// snapshot. When a migration moves slot ownership and publishes a new
/// epoch, requests routed with the stale snapshot are rejected wholesale
/// with kWrongOwner; the client then refreshes its snapshot from the
/// RoutingDirectory (when one is installed via set_directory) and re-routes
/// only the unacknowledged per-node requests under a fresh sequence number
/// — the rejecting node applied nothing, and nodes that acknowledged are
/// not re-sent, so pushes stay exactly-once across the redirect. Between
/// retries the client backs off with the transport's RpcOptions policy,
/// giving an in-flight publish time to land. The only mutable state is the atomic sequence counter and the
/// mutex-guarded route snapshot, so distinct threads may share one
/// instance; SyncTrainer still gives each worker its own client to mirror
/// the deployment.
class PsClient {
 public:
  /// `transport` must outlive the client; nodes [0, num_nodes) must be
  /// reachable through it.
  PsClient(net::Transport* transport, uint32_t num_nodes, uint32_t dim);

  /// Installs the routing directory to refresh the cached slot table from
  /// after a kWrongOwner rejection (may be null: the client then keeps its
  /// construction-time round-robin table forever — the static-topology
  /// behavior). Must outlive the client. Broadcasts and cluster-wide
  /// aggregations always consult the directory's *current* table for the
  /// active node list (membership changes come from the coordinator, which
  /// would notify trainers out-of-band in a real deployment).
  void set_directory(const RoutingDirectory* directory) {
    directory_ = directory;
  }

  /// Reads weights for `n` keys into `out` (n * dim floats, key order).
  Status Pull(const storage::EntryId* keys, size_t n, uint64_t batch,
              float* out);

  /// Pushes per-key gradients (n * dim floats).
  Status Push(const storage::EntryId* keys, size_t n, const float* grads,
              uint64_t batch);

  /// Online-serving batched lookup: reads snapshot weights for `n` keys
  /// into `out` (n * dim floats, key order; zeros for keys no checkpoint
  /// knows), sets found[i] per key, and reports the checkpoint version the
  /// values came from in *snapshot_version. Every per-node response must
  /// come from the same published checkpoint; when nodes disagree (a
  /// cluster-wide publish is mid-flight) or a node rejects with kWrongOwner
  /// (a migration republished routing) the fan-out refreshes its route and
  /// retries with RpcOptions backoff between attempts, and after bounded
  /// attempts returns Unavailable rather than torn data.
  Status MultiGet(const storage::EntryId* keys, size_t n, float* out,
                  uint8_t* found, uint64_t* snapshot_version);

  /// Broadcasts to all active nodes.
  Status FinishPullPhase(uint64_t batch);
  Status WaitMaintenance(uint64_t batch);
  Status RequestCheckpoint(uint64_t batch);
  Status DrainCheckpoints();
  Status Recover();

  /// Sum of entry counts across active nodes.
  Result<uint64_t> TotalEntries();

  /// The cluster-consistent checkpoint: the minimum published batch across
  /// active nodes (a checkpoint exists only once every shard has published
  /// it).
  Result<uint64_t> ClusterCheckpoint();

  /// Reads one key's weights from its owning node (wrong-owner aware).
  Result<std::vector<float>> Peek(storage::EntryId key);

  /// The cached routing snapshot (refreshed only on kWrongOwner).
  const Router& router() const { return router_; }
  uint32_t dim() const { return dim_; }
  uint64_t client_id() const { return client_id_; }

 private:
  /// Next sequence number for a mutating operation (one per logical
  /// operation *round*; a fan-out's per-node requests share it, since each
  /// node dedups independently. A re-route after kWrongOwner uses a fresh
  /// seq: the rejecting node applied nothing under the old one, while the
  /// new owner may have cached a reply for the old seq covering different
  /// keys — replaying it would silently drop the re-routed keys).
  uint64_t NextSeq() {
    return next_seq_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Copy of the cached route snapshot (cheap: shares the table).
  Router Route() const;
  /// Re-reads the directory's current table into the cache if its epoch is
  /// newer. No-op without a directory.
  void RefreshRoute();

  /// The one routed fan-out behind every keyed operation `op`, retried as
  /// the class comment describes for at most `max_attempts` rounds. A round
  /// lets `route(router, &positions)` partition key positions by node,
  /// sends each node that serves any its `method` request (header, then
  /// `encode(&writer, node_positions)`) in one ParallelCall, surfaces a
  /// hard failure, and lets `accept(round, fan_out)` decode and say whether
  /// `op` finished (false re-routes). Each request is reserved once, for
  /// `bytes_per_key` bytes per key plus the fixed fields.
  template <typename RouteFn, typename EncodeFn, typename AcceptFn>
  Status RoutedFanOut(const char* op, PsMethod method, int max_attempts,
                      size_t bytes_per_key, RouteFn route, EncodeFn encode,
                      AcceptFn accept);

  /// Sends `method` (header, then `batch` when given; a fresh seq when
  /// mutating) to every active node — of the directory's current table
  /// when one is installed, else of the cached snapshot — and returns the
  /// per-node responses in active-node order.
  Result<std::vector<net::Buffer>> Broadcast(
      PsMethod method, std::optional<uint64_t> batch = std::nullopt);

  net::Transport* transport_;
  mutable std::mutex route_mutex_;
  Router router_;
  uint32_t dim_;
  uint64_t client_id_;
  std::atomic<uint64_t> next_seq_{1};
  const RoutingDirectory* directory_ = nullptr;
};

}  // namespace oe::ps

#endif  // OE_PS_PS_CLIENT_H_
