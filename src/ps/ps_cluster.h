#ifndef OE_PS_PS_CLUSTER_H_
#define OE_PS_PS_CLUSTER_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint_log.h"
#include "net/faulty_transport.h"
#include "net/transport.h"
#include "pmem/device.h"
#include "ps/ps_client.h"
#include "ps/ps_service.h"
#include "storage/embedding_store.h"

namespace oe::ps {

/// Everything needed to stand up an N-node parameter server in-process:
/// one storage engine + simulated device(s) per node, a PsService each,
/// registered on an InProcTransport, plus a ready-made PsClient.
struct ClusterOptions {
  uint32_t num_nodes = 1;
  storage::StoreKind kind = storage::StoreKind::kPipelined;
  storage::StoreConfig store;

  /// Size of each node's PMem device (Pipelined / Ori-Cache / PMem-Hash).
  uint64_t pmem_bytes_per_node = 64ULL << 20;
  /// Size of each node's checkpoint-log device (DRAM-PS / Ori-Cache).
  uint64_t log_bytes_per_node = 64ULL << 20;
  /// Device tier holding the checkpoint log (Fig. 14 compares SSD vs PMem).
  pmem::DeviceKind checkpoint_device = pmem::DeviceKind::kPmem;
  /// Crash fidelity for the simulated devices (benches use kNone for
  /// speed, crash tests use kStrict / kAdversarial).
  pmem::CrashFidelity crash_fidelity = pmem::CrashFidelity::kNone;
  /// When false, DRAM-PS / Ori-Cache run without a checkpoint log
  /// (the "No Checkpoint" configurations of Table IV).
  bool with_checkpoint_log = true;

  /// Per-node hot-embedding ServingCache capacity for MultiGet serving
  /// reads (0 disables). Survives node restart (a restarted node gets a
  /// fresh, empty cache).
  size_t serving_cache_bytes = 0;

  /// Wraps the in-process transport in a FaultyTransport so RPC traffic
  /// runs through a deterministic network-fault schedule; the wrapped
  /// transport is what rpc_transport() (and thus every PsClient) uses.
  bool inject_net_faults = false;
  uint64_t net_fault_seed = 1;
  /// Fault schedule installed for every node at Init (when injecting).
  net::NetFaultSpec net_fault_spec;
  /// Retry/deadline policy installed on the outermost transport, so
  /// injected faults are retried exactly as a lossy network would be.
  net::RpcOptions rpc_options;
};

class PsCluster {
 public:
  static Result<std::unique_ptr<PsCluster>> Create(
      const ClusterOptions& options);

  PsCluster(const PsCluster&) = delete;
  PsCluster& operator=(const PsCluster&) = delete;

  PsClient& client() { return *client_; }
  /// Extra clients share the transport (one per training worker).
  std::unique_ptr<PsClient> NewClient();

  /// Nodes ever provisioned (Init + AddNode), including drained and down
  /// ones; node ids are [0, num_nodes()). The *active* membership lives in
  /// the routing directory's current table.
  uint32_t num_nodes() const { return num_nodes_; }
  const ClusterOptions& options() const { return options_; }

  /// The authoritative versioned slot table (epoch, slot → owner, active
  /// node list). Services validate every keyed request against it; clients
  /// cache snapshots and refresh after kWrongOwner. Never null after Init.
  RoutingDirectory* directory() { return directory_.get(); }

  storage::EmbeddingStore* store(uint32_t node) {
    return stores_[node].get();
  }
  PsService* service(uint32_t node) { return services_[node].get(); }
  pmem::PmemDevice* pmem_device(uint32_t node) {
    return pmem_devices_.empty() ? nullptr : pmem_devices_[node].get();
  }
  pmem::PmemDevice* log_device(uint32_t node) {
    return log_devices_.empty() ? nullptr : log_devices_[node].get();
  }

  /// The transport clients talk through: the FaultyTransport wrapper when
  /// fault injection is on, the bare InProcTransport otherwise.
  net::Transport* rpc_transport() {
    return faulty_ != nullptr ? static_cast<net::Transport*>(faulty_.get())
                              : transport_.get();
  }
  /// Non-null iff inject_net_faults; for installing per-node schedules and
  /// kill callbacks mid-test.
  net::FaultyTransport* faulty_transport() { return faulty_.get(); }
  const net::NetStats& net_stats() const {
    return faulty_ != nullptr ? faulty_->stats() : transport_->stats();
  }

  /// Aggregated per-device traffic across every node (for the cost model).
  pmem::DeviceStats::Snapshot TotalPmemTraffic() const;
  pmem::DeviceStats::Snapshot TotalDramTraffic() const;
  pmem::DeviceStats::Snapshot TotalLogTraffic() const;

  /// Aggregated engine counters across nodes.
  uint64_t TotalCacheHits() const;
  uint64_t TotalCacheMisses() const;
  uint64_t TotalSyncOps() const;  // Ori-Cache fine-grained sync points

  std::nullptr_t placement() const { return nullptr; }  // perfbench stub

  /// Power-cycles every simulated device (data loss per crash fidelity).
  void SimulateCrashAll();

  /// Kills one PS node: tears down its service and store, then
  /// power-cycles its devices — exactly a process crash plus power loss.
  /// Until RestartNode, RPCs to the node fail with kUnavailable. Must not
  /// race with an in-flight RPC to this node (kill from the calling thread
  /// between operations, or via FaultyTransport's kill_at which fires
  /// before dispatch).
  Status KillNode(uint32_t node);

  /// Brings a killed node back: reopens its store over the surviving
  /// device image and re-registers its service. The store comes back in
  /// its post-crash state; run PsClient::Recover() (all nodes) afterwards
  /// to roll the cluster to a consistent checkpoint. Only engines with a
  /// durable image support restart (PMem-Hash recovers torn state but
  /// supports it too; DRAM/Ori-Cache need their checkpoint log).
  Status RestartNode(uint32_t node);

  /// Restarts every node KillNode took down; no-op when none are.
  Status RestartDownNodes();

  bool node_down(uint32_t node) const { return node_down_[node]; }
  std::vector<uint32_t> DownNodes() const;

  // --- Elastic membership (live shard migration; DESIGN.md §11) ---

  /// Provisions a fresh, empty PS node (devices, store, service, routing
  /// checks) and publishes a new routing epoch whose active list includes
  /// it — but which assigns it no slots yet; follow with MigrateSlots to
  /// hand it load. Returns the new node id. Pipelined-store clusters only.
  Result<uint32_t> AddNode();

  /// Moves ownership of `slots` to `target` by snapshot-and-forward
  /// migration, grouped by current owner. Per source node: seal the range
  /// (drains in-flight handlers, rejects new pulls/pushes with
  /// kWrongOwner), export the frozen image (<= checkpoint snapshot records
  /// plus live heads), import it on the target, durably commit the
  /// target's expanded slot ownership, publish epoch N+1, then shrink the
  /// source's ownership, purge the handed-off range and unseal. A node
  /// death observed at a migration phase hook aborts the migration and
  /// rolls the target back to the pre-migration epoch's state (kAborted).
  Status MigrateSlots(const std::vector<uint32_t>& slots, uint32_t target);

  /// Scale-in: migrates every slot `node` owns round-robin to the other
  /// active nodes, then publishes a final epoch with `node` removed from
  /// the active list. The node stays registered (its id is not reused) but
  /// owns nothing and receives no broadcasts.
  Status DrainNode(uint32_t node);

  /// Test hook invoked at named migration phases, in order: "sealed",
  /// "exported", "imported" (target ownership committed), "published".
  /// The hook may KillNode the source or target; the coordinator re-checks
  /// liveness after each phase and aborts with rollback when a party died.
  using MigrationHook = std::function<void(const std::string& phase)>;
  void set_migration_hook(MigrationHook hook) {
    migration_hook_ = std::move(hook);
  }

 private:
  explicit PsCluster(const ClusterOptions& options) : options_(options) {}
  Status Init();

  /// Creates node `node`'s devices (crash seeds 1000+node / 2000+node),
  /// fresh store and service, and registers it on the transport. Appends
  /// to the per-node vectors; `node` must equal their current size.
  Status ProvisionNode(uint32_t node);

  /// Builds node `node`'s engine over its (already created) devices.
  /// `fresh` formats a new store; otherwise reopens the surviving image
  /// (restart path).
  Result<std::unique_ptr<storage::EmbeddingStore>> BuildStore(uint32_t node,
                                                              bool fresh);

  /// Migrates `slots` (all owned by `source` under the current table) to
  /// `target`; the per-source leg of MigrateSlots.
  Status MigrateFromSource(uint32_t source, std::vector<uint32_t> slots,
                           uint32_t target);

  /// Lazily writes `node`'s durable routing root from the current table
  /// (no-op if one exists). Roots are only materialized on migration
  /// participants, so never-migrated stores keep their legacy persist
  /// behavior (no root → recovery keeps every record).
  Status EnsureRoutingRoot(uint32_t node);
  /// Durably records `node`'s slot ownership.
  Status WriteRoutingRoot(uint32_t node, uint64_t epoch,
                          const std::vector<bool>& owned);
  /// Re-aligns a restarted node's durable ownership with the published
  /// table: a crash mid-migration can leave its root claiming a range the
  /// current epoch assigns elsewhere — rewrite the root and purge the
  /// foreign records. No-op for stores without a routing root.
  Status ReconcileOwnership(uint32_t node);

  void NotifyMigrationPhase(const char* phase) {
    if (migration_hook_) migration_hook_(phase);
  }

  ClusterOptions options_;
  uint32_t num_nodes_ = 0;
  std::vector<std::unique_ptr<pmem::PmemDevice>> pmem_devices_;
  std::vector<std::unique_ptr<pmem::PmemDevice>> log_devices_;
  std::vector<std::unique_ptr<ckpt::CheckpointLog>> logs_;
  std::vector<std::unique_ptr<storage::EmbeddingStore>> stores_;
  std::vector<std::unique_ptr<PsService>> services_;
  std::vector<bool> node_down_;
  std::unique_ptr<net::InProcTransport> transport_;
  std::unique_ptr<net::FaultyTransport> faulty_;
  std::unique_ptr<RoutingDirectory> directory_;
  std::unique_ptr<PsClient> client_;
  MigrationHook migration_hook_;
};

}  // namespace oe::ps

#endif  // OE_PS_PS_CLUSTER_H_
