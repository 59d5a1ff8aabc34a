#ifndef OE_PS_PS_CLIENT_H_
#define OE_PS_PS_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/transport.h"
#include "ps/router.h"
#include "storage/entry_layout.h"

namespace oe::ps {

enum class PsMethod : uint32_t;
struct KeyedFanOut;

/// Worker-side client: batches Pull/Push per PS node over a Transport and
/// reassembles responses in key order. Per-node requests are issued
/// concurrently via Transport::ParallelCall — one overlapped round trip
/// per operation instead of num_nodes sequential ones (Section IV: workers
/// reach all PS shards in parallel). Errors surface with the code of the
/// first failing node in node order, deterministically.
///
/// Every request carries an RpcHeader: a process-unique client id and a
/// fresh sequence number for mutating operations, so transport-level
/// retries and network-duplicated requests are deduplicated server-side
/// (see PsService). Keys are routed by the fixed Router; a node that
/// answers kWrongOwner is a misconfiguration, surfaced like any other hard
/// error. The only mutable state is the atomic sequence counter, so
/// distinct threads may share one instance; SyncTrainer still gives each
/// worker its own client to mirror the deployment.
class PsClient {
 public:
  /// `transport` must outlive the client; nodes [0, num_nodes) must be
  /// reachable through it.
  PsClient(net::Transport* transport, uint32_t num_nodes, uint32_t dim);

  // Stays only for perfbench until ROADMAP item 1's contract change.
  void set_directory(const Router*) {}

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
  /// cluster-wide publish is mid-flight) the fan-out retries with
  /// RpcOptions backoff between attempts, and after bounded attempts
  /// returns Unavailable rather than torn data.
  Status MultiGet(const storage::EntryId* keys, size_t n, float* out,
                  uint8_t* found, uint64_t* snapshot_version);

  /// Broadcasts to every node.
  Status FinishPullPhase(uint64_t batch);
  Status WaitMaintenance(uint64_t batch);
  Status RequestCheckpoint(uint64_t batch);
  Status DrainCheckpoints();
  Status Recover();

  /// Sum of entry counts across nodes.
  Result<uint64_t> TotalEntries();

  /// The cluster-consistent checkpoint: the minimum published batch across
  /// nodes (a checkpoint exists only once every shard has published it).
  Result<uint64_t> ClusterCheckpoint();

  /// Reads one key's weights from its owning node.
  Result<std::vector<float>> Peek(storage::EntryId key);

  const Router& router() const { return router_; }
  uint32_t dim() const { return dim_; }
  uint64_t client_id() const { return client_id_; }

 private:
  /// Next sequence number for a mutating operation (one per logical
  /// operation; a fan-out's per-node requests share it, since each node
  /// dedups independently).
  uint64_t NextSeq() {
    return next_seq_.fetch_add(1, std::memory_order_relaxed);
  }

  /// The one keyed fan-out behind Pull, Push, Peek and each MultiGet
  /// attempt: partitions the positions of `keys` by owner into `fan_out`,
  /// sends each node that owns any of them its `method` request (header,
  /// then `encode(&writer, node_positions)`) in one ParallelCall and
  /// returns the first failure in node order. Each request is reserved
  /// once, for `bytes_per_key` bytes per key plus the fixed fields.
  template <typename EncodeFn>
  Status KeyedCall(PsMethod method, const storage::EntryId* keys, size_t n,
                   size_t bytes_per_key, EncodeFn encode,
                   KeyedFanOut* fan_out);

  /// Sends `method` (header, then `batch` when given; a fresh seq when
  /// mutating) to every node and returns the per-node responses in node
  /// order.
  Result<std::vector<net::Buffer>> Broadcast(
      PsMethod method, std::optional<uint64_t> batch = std::nullopt);

  net::Transport* transport_;
  Router router_;
  uint32_t dim_;
  uint64_t client_id_;
  std::atomic<uint64_t> next_seq_{1};
};

}  // namespace oe::ps

#endif  // OE_PS_PS_CLIENT_H_
