#include "ps/ps_cluster.h"

#include <map>
#include <utility>

#include "common/logging.h"
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
  transport_->RegisterNode(node, service->AsHandler());
  stores_.push_back(std::move(store));
  services_.push_back(std::move(service));
  node_down_.push_back(false);
  return Status::OK();
}

Status PsCluster::Init() {
  transport_ = std::make_unique<net::InProcTransport>();
  num_nodes_ = options_.num_nodes;
  for (uint32_t node = 0; node < num_nodes_; ++node) {
    OE_RETURN_IF_ERROR(ProvisionNode(node));
  }

  if (options_.inject_net_faults) {
    faulty_ = std::make_unique<net::FaultyTransport>(transport_.get(),
                                                     options_.net_fault_seed);
    for (uint32_t node = 0; node < num_nodes_; ++node) {
      faulty_->SetFaultSpec(node, options_.net_fault_spec);
    }
  }
  rpc_transport()->set_rpc_options(options_.rpc_options);

  // Versioned routing: the initial table routes exactly like the legacy
  // modulo router; services validate every keyed request against it.
  directory_ = std::make_unique<RoutingDirectory>(
      SlotTable::MakeRoundRobin(options_.num_nodes));
  for (uint32_t node = 0; node < num_nodes_; ++node) {
    services_[node]->ConfigureRouting(node, directory_.get());
  }

  client_ = std::make_unique<PsClient>(rpc_transport(), options_.num_nodes,
                                       options_.store.dim);
  client_->set_directory(directory_.get());
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
  if (node >= num_nodes_) {
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
  if (node >= num_nodes_) {
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
  service->ConfigureRouting(node, directory_.get());
  stores_[node] = std::move(store);
  services_[node] = std::move(service);
  transport_->RegisterNode(node, services_[node]->AsHandler());
  if (faulty_ != nullptr) faulty_->SetNodeDown(node, false);
  node_down_[node] = false;
  // A crash mid-migration can leave this node's durable slot ownership
  // (and its record set) out of step with the published table; re-align
  // before it serves traffic.
  return ReconcileOwnership(node);
}

Status PsCluster::RestartDownNodes() {
  for (uint32_t node = 0; node < num_nodes_; ++node) {
    if (node_down_[node]) OE_RETURN_IF_ERROR(RestartNode(node));
  }
  return Status::OK();
}

std::vector<uint32_t> PsCluster::DownNodes() const {
  std::vector<uint32_t> down;
  for (uint32_t node = 0; node < num_nodes_; ++node) {
    if (node_down_[node]) down.push_back(node);
  }
  return down;
}

std::unique_ptr<PsClient> PsCluster::NewClient() {
  auto client = std::make_unique<PsClient>(rpc_transport(), num_nodes_,
                                           options_.store.dim);
  // A new client starts from the round-robin snapshot and catches up to
  // the published epoch on its first kWrongOwner; broadcasts always use
  // the directory directly.
  client->set_directory(directory_.get());
  return client;
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

// --- Elastic membership (live shard migration; DESIGN.md §11) ---

namespace {

std::vector<bool> SlotBitmap(const std::vector<uint32_t>& slots) {
  std::vector<bool> bitmap(storage::kNumRoutingSlots, false);
  for (const uint32_t slot : slots) bitmap[slot] = true;
  return bitmap;
}

std::vector<bool> OwnedBitmap(const SlotTable& table, net::NodeId node) {
  std::vector<bool> owned(storage::kNumRoutingSlots, false);
  for (uint32_t s = 0; s < storage::kNumRoutingSlots; ++s) {
    if (table.owners[s] == node) owned[s] = true;
  }
  return owned;
}

}  // namespace

Status PsCluster::WriteRoutingRoot(uint32_t node, uint64_t epoch,
                                   const std::vector<bool>& owned) {
  auto* store =
      dynamic_cast<storage::PipelinedStore*>(stores_[node].get());
  if (store == nullptr) {
    return Status::NotSupported(
        "live shard migration requires the pipelined store");
  }
  return store->SetOwnedSlots(epoch, owned);
}

Status PsCluster::EnsureRoutingRoot(uint32_t node) {
  auto* store =
      dynamic_cast<storage::PipelinedStore*>(stores_[node].get());
  if (store == nullptr) {
    return Status::NotSupported(
        "live shard migration requires the pipelined store");
  }
  OE_ASSIGN_OR_RETURN(auto owned, store->ReadOwnedSlots());
  if (owned.present) return Status::OK();
  const auto table = directory_->Current();
  return WriteRoutingRoot(node, table->epoch, OwnedBitmap(*table, node));
}

Status PsCluster::ReconcileOwnership(uint32_t node) {
  if (directory_ == nullptr) return Status::OK();
  auto* store =
      dynamic_cast<storage::PipelinedStore*>(stores_[node].get());
  if (store == nullptr) return Status::OK();
  OE_ASSIGN_OR_RETURN(auto durable, store->ReadOwnedSlots());
  if (!durable.present) return Status::OK();  // never migrated: nothing owed
  const auto table = directory_->Current();
  const std::vector<bool> desired = OwnedBitmap(*table, node);
  if (durable.epoch == table->epoch && durable.owned == desired) {
    return Status::OK();
  }
  OE_RETURN_IF_ERROR(WriteRoutingRoot(node, table->epoch, desired));
  // Drop records of every slot the published table assigns elsewhere: the
  // root this node crashed with may have claimed a half-migrated range
  // (target died before publish) or kept a handed-off one (source died
  // before its purge).
  std::vector<bool> foreign(storage::kNumRoutingSlots, false);
  for (uint32_t s = 0; s < storage::kNumRoutingSlots; ++s) {
    foreign[s] = !desired[s];
  }
  return store->PurgeSlots(foreign);
}

Result<uint32_t> PsCluster::AddNode() {
  const uint32_t node = num_nodes_;
  OE_RETURN_IF_ERROR(ProvisionNode(node));
  num_nodes_ = node + 1;
  services_[node]->ConfigureRouting(node, directory_.get());
  if (faulty_ != nullptr) {
    faulty_->SetFaultSpec(node, options_.net_fault_spec);
  }
  // Epoch bump with the new node active but owning no slots: broadcasts
  // (recover, checkpoint drains, entry counts) reach it immediately, while
  // keyed traffic arrives only once MigrateSlots hands it a range.
  const auto table = directory_->Current();
  std::vector<net::NodeId> active = table->active;
  active.push_back(node);
  OE_RETURN_IF_ERROR(directory_->Publish(
      SlotTable::Make(table->epoch + 1, table->owners, std::move(active))));
  return node;
}

Status PsCluster::MigrateSlots(const std::vector<uint32_t>& slots,
                               uint32_t target) {
  if (target >= num_nodes_) {
    return Status::InvalidArgument("no such node: " + std::to_string(target));
  }
  if (node_down_[target]) {
    return Status::FailedPrecondition("migration target is down");
  }
  const auto table = directory_->Current();
  if (!table->IsActive(target)) {
    return Status::FailedPrecondition("migration target is not active");
  }
  std::map<net::NodeId, std::vector<uint32_t>> by_source;
  for (const uint32_t slot : slots) {
    if (slot >= storage::kNumRoutingSlots) {
      return Status::InvalidArgument("slot out of range: " +
                                     std::to_string(slot));
    }
    const net::NodeId owner = table->owners[slot];
    if (owner == target) continue;  // already there
    by_source[owner].push_back(slot);
  }
  for (auto& [source, group] : by_source) {
    if (node_down_[source]) {
      return Status::FailedPrecondition("migration source is down");
    }
    OE_RETURN_IF_ERROR(MigrateFromSource(source, std::move(group), target));
  }
  return Status::OK();
}

Status PsCluster::MigrateFromSource(uint32_t source,
                                    std::vector<uint32_t> slots,
                                    uint32_t target) {
  auto* src = dynamic_cast<storage::PipelinedStore*>(stores_[source].get());
  auto* dst = dynamic_cast<storage::PipelinedStore*>(stores_[target].get());
  if (src == nullptr || dst == nullptr) {
    return Status::NotSupported(
        "live shard migration requires the pipelined store");
  }
  const auto table = directory_->Current();
  for (const uint32_t slot : slots) {
    if (table->owners[slot] != source) {
      return Status::FailedPrecondition("slot " + std::to_string(slot) +
                                        " is not owned by the source");
    }
  }
  // Durable ownership roots on both parties before anything moves: from
  // here, recovery on either side keeps only records inside committed
  // ownership, which is what makes the import (and the source's handoff)
  // crash-atomic.
  OE_RETURN_IF_ERROR(EnsureRoutingRoot(source));
  OE_RETURN_IF_ERROR(EnsureRoutingRoot(target));

  const std::vector<bool> bitmap = SlotBitmap(slots);

  std::vector<storage::EntryId> imported;
  bool target_root_expanded = false;
  // Rolls back to the pre-migration epoch's state: un-import the range,
  // restore the target's ownership root, reopen the source range. Only
  // live parties are touched — a dead one rolls back in RestartNode's
  // ownership reconcile against the (unchanged) published table.
  auto abort_migration = [&](const Status& cause) {
    if (!node_down_[target]) {
      auto* t =
          dynamic_cast<storage::PipelinedStore*>(stores_[target].get());
      if (t != nullptr) {
        if (!imported.empty()) OE_CHECK_OK(t->RemoveKeys(imported));
        if (target_root_expanded) {
          OE_CHECK_OK(
              t->SetOwnedSlots(table->epoch, OwnedBitmap(*table, target)));
        }
      }
    }
    if (!node_down_[source] && services_[source] != nullptr) {
      services_[source]->UnsealSlots(slots);
    }
    return Status::Aborted("migration aborted: " + cause.ToString());
  };

  // 1. Seal: drains in-flight keyed handlers on the source and freezes the
  //    range — pulls/pushes now bounce with kWrongOwner (clients hold the
  //    operation and retry after the epoch moves).
  services_[source]->SealSlots(slots);
  NotifyMigrationPhase("sealed");
  if (node_down_[source] || node_down_[target]) {
    return abort_migration(Status::Unavailable("node died after seal"));
  }

  // 2. Export the frozen image (<= checkpoint snapshot records + live
  //    heads) to a scratch DRAM checkpoint log.
  pmem::PmemDeviceOptions scratch_options;
  scratch_options.size_bytes = options_.pmem_bytes_per_node;
  scratch_options.kind = pmem::DeviceKind::kDram;
  // The scratch log is a transfer buffer, not durable state: a coordinator
  // death aborts the migration wholesale, so crash simulation (and its
  // shadow-image cost) buys nothing here.
  scratch_options.crash_fidelity = pmem::CrashFidelity::kNone;
  auto scratch_device = pmem::PmemDevice::Create(scratch_options);
  if (!scratch_device.ok()) return abort_migration(scratch_device.status());
  const storage::EntryLayout layout(options_.store.dim,
                                    options_.store.optimizer.Slots());
  auto scratch_log = ckpt::CheckpointLog::Create(
      scratch_device.value().get(), layout);
  if (!scratch_log.ok()) return abort_migration(scratch_log.status());
  Status exported = src->ExportRange(bitmap, scratch_log.value().get());
  if (!exported.ok()) return abort_migration(exported);
  NotifyMigrationPhase("exported");
  if (node_down_[source] || node_down_[target]) {
    return abort_migration(Status::Unavailable("node died after export"));
  }

  // 3. Import on the target, then durably commit its expanded ownership:
  //    the imported records only survive a target crash once this root
  //    lands (recovery discards records outside committed ownership).
  Status import_status =
      dst->ImportRange(*scratch_log.value(), &imported);
  if (!import_status.ok()) return abort_migration(import_status);
  std::vector<bool> target_owned = OwnedBitmap(*table, target);
  for (const uint32_t slot : slots) target_owned[slot] = true;
  Status root_status = dst->SetOwnedSlots(table->epoch + 1, target_owned);
  if (!root_status.ok()) return abort_migration(root_status);
  target_root_expanded = true;
  NotifyMigrationPhase("imported");
  if (node_down_[source] || node_down_[target]) {
    return abort_migration(Status::Unavailable("node died after import"));
  }

  // 4. Publish epoch N+1 — the migration's commit point. Stale clients
  //    keep bouncing off the source and re-route here.
  std::vector<net::NodeId> owners = table->owners;
  for (const uint32_t slot : slots) owners[slot] = target;
  OE_RETURN_IF_ERROR(directory_->Publish(
      SlotTable::Make(table->epoch + 1, std::move(owners), table->active)));
  NotifyMigrationPhase("published");

  // 5. Source cleanup. The migration is committed; a source death from
  //    here only delays the purge until RestartNode reconciles its
  //    ownership against the published table.
  if (!node_down_[source]) {
    auto* s = dynamic_cast<storage::PipelinedStore*>(stores_[source].get());
    if (s != nullptr && services_[source] != nullptr) {
      std::vector<bool> source_owned = OwnedBitmap(*table, source);
      for (const uint32_t slot : slots) source_owned[slot] = false;
      OE_RETURN_IF_ERROR(s->SetOwnedSlots(table->epoch + 1, source_owned));
      OE_RETURN_IF_ERROR(s->PurgeSlots(bitmap));
      services_[source]->UnsealSlots(slots);
    }
  }
  return Status::OK();
}

Status PsCluster::DrainNode(uint32_t node) {
  if (node >= num_nodes_) {
    return Status::InvalidArgument("no such node: " + std::to_string(node));
  }
  if (node_down_[node]) {
    return Status::FailedPrecondition("cannot drain a down node");
  }
  auto table = directory_->Current();
  if (!table->IsActive(node)) {
    return Status::FailedPrecondition("node is not active");
  }
  std::vector<net::NodeId> rest;
  for (const net::NodeId n : table->active) {
    if (n != node && !node_down_[n]) rest.push_back(n);
  }
  if (rest.empty()) {
    return Status::FailedPrecondition("no remaining active node to drain to");
  }
  // Spread the drained range round-robin over the remaining nodes; one
  // migration leg (one epoch bump) per receiving node.
  const std::vector<uint32_t> owned = table->SlotsOwnedBy(node);
  std::vector<std::vector<uint32_t>> per_target(rest.size());
  for (size_t i = 0; i < owned.size(); ++i) {
    per_target[i % rest.size()].push_back(owned[i]);
  }
  for (size_t t = 0; t < rest.size(); ++t) {
    if (per_target[t].empty()) continue;
    OE_RETURN_IF_ERROR(
        MigrateSlots(per_target[t], static_cast<uint32_t>(rest[t])));
  }
  // Final epoch: drop out of the active list — broadcasts and aggregations
  // stop reaching the node; its id stays reserved.
  table = directory_->Current();
  std::vector<net::NodeId> active;
  for (const net::NodeId n : table->active) {
    if (n != node) active.push_back(n);
  }
  return directory_->Publish(
      SlotTable::Make(table->epoch + 1, table->owners, std::move(active)));
}

}  // namespace oe::ps
