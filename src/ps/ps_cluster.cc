#include "ps/ps_cluster.h"

#include <utility>

#include "storage/dram_store.h"
#include "storage/ori_cache_store.h"
#include "storage/pipelined_store.h"
#include "storage/pmem_hash_store.h"

namespace oe::ps {

using storage::StoreKind;

Result<std::unique_ptr<PsCluster>> PsCluster::Create(
    const ClusterOptions& options) {
  if (options.num_nodes == 0) {
    return Status::InvalidArgument("need at least one PS node");
  }
  auto cluster = std::unique_ptr<PsCluster>(new PsCluster(options));
  OE_RETURN_IF_ERROR(cluster->Init());
  return cluster;
}

Status PsCluster::ProvisionNode(uint32_t node) {
  const bool needs_pmem = options_.kind == StoreKind::kPipelined ||
                          options_.kind == StoreKind::kOriCache ||
                          options_.kind == StoreKind::kPmemHash;
  const bool needs_log =
      options_.with_checkpoint_log && (options_.kind == StoreKind::kDram ||
                                       options_.kind == StoreKind::kOriCache);
  if (needs_pmem) {
    pmem::PmemDeviceOptions device_options;
    device_options.size_bytes = options_.pmem_bytes_per_node;
    device_options.kind = pmem::DeviceKind::kPmem;
    device_options.crash_fidelity = options_.crash_fidelity;
    device_options.crash_seed = 1000 + node;
    OE_ASSIGN_OR_RETURN(auto device, pmem::PmemDevice::Create(device_options));
    pmem_devices_.push_back(std::move(device));
  }
  if (needs_log) {
    pmem::PmemDeviceOptions log_options;
    log_options.size_bytes = options_.log_bytes_per_node;
    log_options.kind = options_.checkpoint_device;
    log_options.crash_fidelity = options_.crash_fidelity;
    log_options.crash_seed = 2000 + node;
    OE_ASSIGN_OR_RETURN(auto device, pmem::PmemDevice::Create(log_options));
    const storage::EntryLayout layout(options_.store.dim,
                                      options_.store.optimizer.Slots());
    OE_ASSIGN_OR_RETURN(auto checkpoint_log,
                        ckpt::CheckpointLog::Create(device.get(), layout));
    log_devices_.push_back(std::move(device));
    logs_.push_back(std::move(checkpoint_log));
  }

  OE_ASSIGN_OR_RETURN(auto store, BuildStore(node, /*fresh=*/true));
  auto service = std::make_unique<PsService>(store.get());
  if (options_.serving_cache_bytes > 0) {
    service->EnableServingCache(options_.serving_cache_bytes);
  }
  service->ConfigureRouting(node, &router_);
  transport_->RegisterNode(node, service->AsHandler());
  stores_.push_back(std::move(store));
  services_.push_back(std::move(service));
  node_down_.push_back(false);
  return Status::OK();
}

Status PsCluster::Init() {
  transport_ = std::make_unique<net::InProcTransport>();
  for (uint32_t node = 0; node < num_nodes(); ++node) {
    OE_RETURN_IF_ERROR(ProvisionNode(node));
  }

  if (options_.inject_net_faults) {
    faulty_ = std::make_unique<net::FaultyTransport>(transport_.get(),
                                                     options_.net_fault_seed);
    for (uint32_t node = 0; node < num_nodes(); ++node) {
      faulty_->SetFaultSpec(node, options_.net_fault_spec);
    }
  }
  rpc_transport()->set_rpc_options(options_.rpc_options);

  client_ = std::make_unique<PsClient>(rpc_transport(), num_nodes(),
                                       options_.store.dim);
  return Status::OK();
}

Result<std::unique_ptr<storage::EmbeddingStore>> PsCluster::BuildStore(
    uint32_t node, bool fresh) {
  pmem::PmemDevice* pmem_device =
      pmem_devices_.empty() ? nullptr : pmem_devices_[node].get();
  ckpt::CheckpointLog* log = logs_.empty() ? nullptr : logs_[node].get();

  if (!fresh && log != nullptr) {
    // The node's log object died with the process; reopen it over the
    // surviving (power-cycled) device image so recovery sees exactly what
    // was committed.
    const storage::EntryLayout layout(options_.store.dim,
                                      options_.store.optimizer.Slots());
    OE_ASSIGN_OR_RETURN(
        auto reopened,
        ckpt::CheckpointLog::Open(log_devices_[node].get(), layout));
    logs_[node] = std::move(reopened);
    log = logs_[node].get();
  }

  std::unique_ptr<storage::EmbeddingStore> store;
  switch (options_.kind) {
    case StoreKind::kDram: {
      if (!fresh && log == nullptr) {
        return Status::NotSupported(
            "DRAM-PS without a checkpoint log cannot restart");
      }
      OE_ASSIGN_OR_RETURN(store,
                          storage::DramStore::Create(options_.store, log));
      if (!fresh) OE_RETURN_IF_ERROR(store->RecoverFromCrash());
      break;
    }
    case StoreKind::kPipelined: {
      if (fresh) {
        OE_ASSIGN_OR_RETURN(
            store,
            storage::PipelinedStore::Create(options_.store, pmem_device));
      } else {
        OE_ASSIGN_OR_RETURN(
            store,
            storage::PipelinedStore::Open(options_.store, pmem_device));
      }
      break;
    }
    case StoreKind::kOriCache: {
      if (!fresh && log == nullptr) {
        return Status::NotSupported(
            "Ori-Cache without a checkpoint log cannot restart");
      }
      OE_ASSIGN_OR_RETURN(
          store, storage::OriCacheStore::Create(options_.store, pmem_device,
                                                log));
      if (!fresh) OE_RETURN_IF_ERROR(store->RecoverFromCrash());
      break;
    }
    case StoreKind::kPmemHash: {
      if (!fresh) {
        return Status::NotSupported(
            "PMem-Hash has no batch-consistent image to restart from "
            "(Observation 2)");
      }
      OE_ASSIGN_OR_RETURN(
          store, storage::PmemHashStore::Create(options_.store, pmem_device));
      break;
    }
  }
  return store;
}

Status PsCluster::KillNode(uint32_t node) {
  if (node >= num_nodes()) {
    return Status::InvalidArgument("no such node: " + std::to_string(node));
  }
  if (node_down_[node]) {
    return Status::FailedPrecondition("node " + std::to_string(node) +
                                      " is already down");
  }
  // Reject traffic first so nothing new dispatches into the dying service.
  transport_->RegisterNode(
      node, [node](uint32_t, const net::Buffer&, net::Buffer*) {
        return Status::Unavailable("node " + std::to_string(node) +
                                   " is down");
      });
  if (faulty_ != nullptr) faulty_->SetNodeDown(node, true);
  // Orderly engine teardown (maintenance threads joined), then power-cycle
  // the devices: whatever the engine had not persisted is gone, exactly as
  // a process crash plus power loss would leave the media.
  services_[node].reset();
  stores_[node].reset();
  if (!pmem_devices_.empty()) pmem_devices_[node]->SimulateCrash();
  if (!log_devices_.empty()) log_devices_[node]->SimulateCrash();
  node_down_[node] = true;
  return Status::OK();
}

Status PsCluster::RestartNode(uint32_t node) {
  if (node >= num_nodes()) {
    return Status::InvalidArgument("no such node: " + std::to_string(node));
  }
  if (!node_down_[node]) {
    return Status::FailedPrecondition("node " + std::to_string(node) +
                                      " is not down");
  }
  OE_ASSIGN_OR_RETURN(auto store, BuildStore(node, /*fresh=*/false));
  auto service = std::make_unique<PsService>(store.get());
  if (options_.serving_cache_bytes > 0) {
    service->EnableServingCache(options_.serving_cache_bytes);
  }
  service->ConfigureRouting(node, &router_);
  stores_[node] = std::move(store);
  services_[node] = std::move(service);
  transport_->RegisterNode(node, services_[node]->AsHandler());
  if (faulty_ != nullptr) faulty_->SetNodeDown(node, false);
  node_down_[node] = false;
  return Status::OK();
}

Status PsCluster::RestartDownNodes() {
  for (uint32_t node = 0; node < num_nodes(); ++node) {
    if (node_down_[node]) OE_RETURN_IF_ERROR(RestartNode(node));
  }
  return Status::OK();
}

std::vector<uint32_t> PsCluster::DownNodes() const {
  std::vector<uint32_t> down;
  for (uint32_t node = 0; node < num_nodes(); ++node) {
    if (node_down_[node]) down.push_back(node);
  }
  return down;
}

std::unique_ptr<PsClient> PsCluster::NewClient() {
  return std::make_unique<PsClient>(rpc_transport(), num_nodes(),
                                    options_.store.dim);
}

namespace {

pmem::DeviceStats::Snapshot Accumulate(
    const std::vector<std::unique_ptr<pmem::PmemDevice>>& devices) {
  pmem::DeviceStats::Snapshot total;
  for (const auto& device : devices) {
    const auto snap = device->stats().TakeSnapshot();
    total.read_bytes += snap.read_bytes;
    total.write_bytes += snap.write_bytes;
    total.read_ops += snap.read_ops;
    total.write_ops += snap.write_ops;
    total.persist_ops += snap.persist_ops;
  }
  return total;
}

}  // namespace

pmem::DeviceStats::Snapshot PsCluster::TotalPmemTraffic() const {
  return Accumulate(pmem_devices_);
}

pmem::DeviceStats::Snapshot PsCluster::TotalLogTraffic() const {
  return Accumulate(log_devices_);
}

pmem::DeviceStats::Snapshot PsCluster::TotalDramTraffic() const {
  pmem::DeviceStats::Snapshot total;
  for (const auto& store : stores_) {
    if (store == nullptr) continue;
    const auto snap = store->dram_stats_snapshot();
    total.read_bytes += snap.read_bytes;
    total.write_bytes += snap.write_bytes;
    total.read_ops += snap.read_ops;
    total.write_ops += snap.write_ops;
    total.persist_ops += snap.persist_ops;
  }
  return total;
}

uint64_t PsCluster::TotalCacheHits() const {
  uint64_t total = 0;
  for (const auto& store : stores_) {
    if (store == nullptr) continue;
    total += store->stats_snapshot().cache_hits;
  }
  return total;
}

uint64_t PsCluster::TotalCacheMisses() const {
  uint64_t total = 0;
  for (const auto& store : stores_) {
    if (store == nullptr) continue;
    total += store->stats_snapshot().cache_misses;
  }
  return total;
}

uint64_t PsCluster::TotalSyncOps() const {
  uint64_t total = 0;
  for (const auto& store : stores_) {
    if (auto* ori = dynamic_cast<const storage::OriCacheStore*>(store.get())) {
      total += ori->sync_ops();
    }
  }
  return total;
}

void PsCluster::SimulateCrashAll() {
  for (auto& device : pmem_devices_) device->SimulateCrash();
  for (auto& device : log_devices_) device->SimulateCrash();
}

}  // namespace oe::ps
