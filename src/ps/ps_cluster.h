#ifndef OE_PS_PS_CLUSTER_H_
#define OE_PS_PS_CLUSTER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint_log.h"
#include "net/faulty_transport.h"
#include "net/transport.h"
#include "pmem/device.h"
#include "ps/ps_client.h"
#include "ps/ps_service.h"
#include "ps/router.h"
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

  uint32_t num_nodes() const { return options_.num_nodes; }
  const ClusterOptions& options() const { return options_; }

  /// The fixed key -> node route every service checks its requests
  /// against (perfbench installs it on its own services by this name).
  const Router* directory() const { return &router_; }

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

  // Stays only for perfbench until ROADMAP item 1's contract change.
  std::nullptr_t placement() const { return nullptr; }

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

 private:
  explicit PsCluster(const ClusterOptions& options)
      : options_(options), router_(options.num_nodes) {}
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

  ClusterOptions options_;
  Router router_;
  std::vector<std::unique_ptr<pmem::PmemDevice>> pmem_devices_;
  std::vector<std::unique_ptr<pmem::PmemDevice>> log_devices_;
  std::vector<std::unique_ptr<ckpt::CheckpointLog>> logs_;
  std::vector<std::unique_ptr<storage::EmbeddingStore>> stores_;
  std::vector<std::unique_ptr<PsService>> services_;
  std::vector<bool> node_down_;
  std::unique_ptr<net::InProcTransport> transport_;
  std::unique_ptr<net::FaultyTransport> faulty_;
  std::unique_ptr<PsClient> client_;
};

}  // namespace oe::ps

#endif  // OE_PS_PS_CLUSTER_H_
