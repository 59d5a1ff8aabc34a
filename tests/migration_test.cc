// Elastic cluster membership: versioned slot-table routing, live shard
// migration (snapshot-and-forward with seal + kWrongOwner redirect),
// scale-out / scale-in under faulty networks, kill-mid-migration rollback,
// and crash enumeration of the new migration persist sites (route-blob /
// route-root / migrate-entry / migrate-publish / migrate-gc). See
// DESIGN.md §11 "Membership & routing".

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "ckpt/checkpoint_log.h"
#include "common/logging.h"
#include "pmem/device.h"
#include "pmem/fault_plan.h"
#include "ps/ps_client.h"
#include "ps/ps_cluster.h"
#include "ps/ps_service.h"
#include "ps/slot_table.h"
#include "storage/entry_layout.h"
#include "storage/optimizer.h"
#include "storage/pipelined_store.h"
#include "test_util.h"

namespace oe {
namespace {

using storage::EntryId;
using storage::kNumRoutingSlots;
using storage::PipelinedStore;
using storage::SlotOfKey;

constexpr uint32_t kDim = 4;

// ---------- Slot table ----------

TEST(SlotTableTest, RoundRobinMatchesLegacyModuloRouter) {
  // kNumRoutingSlots is a multiple of every power-of-two node count, so
  // the round-robin table routes exactly like the legacy hash-modulo
  // router for the n the paper's experiments use.
  for (uint32_t n : {1u, 2u, 4u, 8u, 16u}) {
    const ps::Router router(n);
    EXPECT_EQ(router.num_nodes(), n);
    EXPECT_EQ(router.epoch(), 1u);
    for (EntryId key = 0; key < 4096; ++key) {
      EXPECT_EQ(router.NodeFor(key), SlotOfKey(key) % n) << "n=" << n;
    }
  }
}

TEST(SlotTableTest, RoundRobinPartitionsSlotsEvenly) {
  const auto table = ps::SlotTable::MakeRoundRobin(4);
  EXPECT_EQ(table->active, std::vector<net::NodeId>({0, 1, 2, 3}));
  size_t total = 0;
  for (net::NodeId node = 0; node < 4; ++node) {
    const auto owned = table->SlotsOwnedBy(node);
    EXPECT_EQ(owned.size(), kNumRoutingSlots / 4);
    total += owned.size();
    for (uint32_t slot : owned) EXPECT_EQ(table->owners[slot], node);
  }
  EXPECT_EQ(total, kNumRoutingSlots);
}

TEST(SlotTableTest, PublishRequiresStrictlyIncreasingEpoch) {
  ps::RoutingDirectory directory(ps::SlotTable::MakeRoundRobin(2));
  const auto table = directory.Current();
  ASSERT_EQ(table->epoch, 1u);

  // Same epoch: rejected — a rolled-back migration must not resurrect.
  EXPECT_FALSE(
      directory.Publish(ps::SlotTable::Make(1, table->owners, table->active))
          .ok());
  EXPECT_FALSE(
      directory.Publish(ps::SlotTable::Make(0, table->owners, table->active))
          .ok());
  EXPECT_EQ(directory.Current()->epoch, 1u);

  ASSERT_TRUE(
      directory.Publish(ps::SlotTable::Make(2, table->owners, table->active))
          .ok());
  EXPECT_EQ(directory.Current()->epoch, 2u);
}

// ---------- Store-level migration primitives ----------

storage::StoreConfig StoreCfg() {
  storage::StoreConfig config = test::SmallConfig(kDim);
  config.maintainer_threads = 1;
  return config;
}

// Pull-then-push training rounds on a bare store; gradients depend on the
// batch id only, so any two stores given the same batches agree bit-exactly.
void TrainStore(storage::EmbeddingStore* store, const std::vector<EntryId>& keys,
                uint64_t from, uint64_t to, float scale) {
  std::vector<float> weights(keys.size() * kDim);
  for (uint64_t batch = from; batch <= to; ++batch) {
    ASSERT_TRUE(
        store->Pull(keys.data(), keys.size(), batch, weights.data()).ok());
    store->FinishPullPhase(batch);
    std::vector<float> grads(keys.size() * kDim,
                             scale * static_cast<float>(batch));
    ASSERT_TRUE(
        store->Push(keys.data(), keys.size(), grads.data(), batch).ok());
  }
}

void Checkpoint(storage::EmbeddingStore* store, uint64_t batch) {
  ASSERT_TRUE(store->RequestCheckpoint(batch).ok());
  ASSERT_TRUE(store->DrainCheckpoints().ok());
}

std::vector<bool> BitmapOfKeys(const std::vector<EntryId>& keys) {
  std::vector<bool> bitmap(kNumRoutingSlots, false);
  for (EntryId key : keys) bitmap[SlotOfKey(key)] = true;
  return bitmap;
}

// First `n` ids >= `start` whose slot parity matches `odd` — two calls with
// opposite parity give key sets whose slot ranges never collide.
std::vector<EntryId> KeysBySlotParity(bool odd, size_t n, EntryId start) {
  std::vector<EntryId> keys;
  for (EntryId k = start; keys.size() < n; ++k) {
    if ((SlotOfKey(k) % 2 == 1) == odd) keys.push_back(k);
  }
  return keys;
}

TEST(StoreMigrationTest, OwnedSlotsRootRoundTrips) {
  auto device = test::MakeDevice();
  auto store = PipelinedStore::Create(StoreCfg(), device.get()).ValueOrDie();

  // Lazily written: a fresh store has no routing root.
  auto absent = store->ReadOwnedSlots().ValueOrDie();
  EXPECT_FALSE(absent.present);

  std::vector<bool> owned(kNumRoutingSlots, false);
  owned[7] = owned[4090] = true;
  ASSERT_TRUE(store->SetOwnedSlots(3, owned).ok());
  auto read = store->ReadOwnedSlots().ValueOrDie();
  EXPECT_TRUE(read.present);
  EXPECT_EQ(read.epoch, 3u);
  EXPECT_EQ(read.owned, owned);

  // A rewrite replaces (not merges) the previous root.
  std::vector<bool> owned2(kNumRoutingSlots, true);
  ASSERT_TRUE(store->SetOwnedSlots(4, owned2).ok());
  read = store->ReadOwnedSlots().ValueOrDie();
  EXPECT_EQ(read.epoch, 4u);
  EXPECT_EQ(read.owned, owned2);
}

TEST(StoreMigrationTest, ExportImportRoundTripsModelAndCheckpoint) {
  auto src_device = test::MakeDevice();
  auto src = PipelinedStore::Create(StoreCfg(), src_device.get()).ValueOrDie();
  std::vector<EntryId> keys(40);
  std::iota(keys.begin(), keys.end(), 1);
  TrainStore(src.get(), keys, 1, 3, 0.5f);
  Checkpoint(src.get(), 3);

  auto log_device =
      test::MakeDevice({.kind = pmem::DeviceKind::kDram,
                        .fidelity = pmem::CrashFidelity::kNone});
  const storage::EntryLayout layout(kDim, StoreCfg().optimizer.Slots());
  auto log =
      ckpt::CheckpointLog::Create(log_device.get(), layout).ValueOrDie();
  std::vector<bool> all(kNumRoutingSlots, true);
  ASSERT_TRUE(src->ExportRange(all, log.get()).ok());

  auto dst_device = test::MakeDevice();
  auto dst = PipelinedStore::Create(StoreCfg(), dst_device.get()).ValueOrDie();
  std::vector<EntryId> imported;
  ASSERT_TRUE(dst->ImportRange(*log, &imported).ok());
  EXPECT_EQ(imported.size(), keys.size());
  // The fresh target agrees with the cluster's serving version at once.
  EXPECT_EQ(dst->PublishedCheckpoint(), 3u);
  EXPECT_EQ(dst->EntryCount(), keys.size());
  for (EntryId key : keys) {
    EXPECT_EQ(dst->Peek(key).ValueOrDie(), src->Peek(key).ValueOrDie())
        << "key " << key;
  }
}

TEST(StoreMigrationTest, ExportRequiresPublishedCheckpointUnlessEmpty) {
  auto device = test::MakeDevice();
  auto store = PipelinedStore::Create(StoreCfg(), device.get()).ValueOrDie();
  std::vector<EntryId> keys = {1, 2, 3};
  TrainStore(store.get(), keys, 1, 1, 0.5f);

  auto log_device =
      test::MakeDevice({.kind = pmem::DeviceKind::kDram,
                        .fidelity = pmem::CrashFidelity::kNone});
  const storage::EntryLayout layout(kDim, StoreCfg().optimizer.Slots());
  auto log =
      ckpt::CheckpointLog::Create(log_device.get(), layout).ValueOrDie();

  // No checkpoint yet: a non-empty range has no snapshot to migrate.
  std::vector<bool> all(kNumRoutingSlots, true);
  EXPECT_EQ(store->ExportRange(all, log.get()).code(),
            StatusCode::kFailedPrecondition);
  // An empty range is legal without one (nothing to snapshot).
  std::vector<bool> none(kNumRoutingSlots, false);
  EXPECT_TRUE(store->ExportRange(none, log.get()).ok());
}

TEST(StoreMigrationTest, ImportPrefersLocalCopies) {
  // A key already present on the target (a re-delivered image) must win
  // over the imported record.
  auto src_device = test::MakeDevice();
  auto src = PipelinedStore::Create(StoreCfg(), src_device.get()).ValueOrDie();
  std::vector<EntryId> keys = {5, 6, 7, 8};
  TrainStore(src.get(), keys, 1, 2, 0.5f);
  Checkpoint(src.get(), 2);

  auto log_device =
      test::MakeDevice({.kind = pmem::DeviceKind::kDram,
                        .fidelity = pmem::CrashFidelity::kNone});
  const storage::EntryLayout layout(kDim, StoreCfg().optimizer.Slots());
  auto log =
      ckpt::CheckpointLog::Create(log_device.get(), layout).ValueOrDie();
  std::vector<bool> all(kNumRoutingSlots, true);
  ASSERT_TRUE(src->ExportRange(all, log.get()).ok());

  auto dst_device = test::MakeDevice();
  auto dst = PipelinedStore::Create(StoreCfg(), dst_device.get()).ValueOrDie();
  TrainStore(dst.get(), {7}, 1, 1, 9.0f);  // local, diverged copy of key 7
  const auto local = dst->Peek(7).ValueOrDie();

  std::vector<EntryId> imported;
  ASSERT_TRUE(dst->ImportRange(*log, &imported).ok());
  EXPECT_EQ(imported.size(), 3u);  // 5, 6, 8 — not the locally-present 7
  EXPECT_EQ(dst->Peek(7).ValueOrDie(), local);
  for (EntryId key : {5, 6, 8}) {
    EXPECT_EQ(dst->Peek(key).ValueOrDie(), src->Peek(key).ValueOrDie());
  }
}

TEST(StoreMigrationTest, PurgeSlotsDropsRange) {
  auto device = test::MakeDevice();
  auto store = PipelinedStore::Create(StoreCfg(), device.get()).ValueOrDie();
  const auto keep_keys = KeysBySlotParity(false, 12, 1);
  const auto purge_keys = KeysBySlotParity(true, 12, 1);
  std::vector<EntryId> all_keys = keep_keys;
  all_keys.insert(all_keys.end(), purge_keys.begin(), purge_keys.end());
  TrainStore(store.get(), all_keys, 1, 2, 0.5f);
  Checkpoint(store.get(), 2);

  ASSERT_TRUE(store->PurgeSlots(BitmapOfKeys(purge_keys)).ok());

  EXPECT_EQ(store->EntryCount(), keep_keys.size());
  for (EntryId key : keep_keys) EXPECT_TRUE(store->Peek(key).ok());
  for (EntryId key : purge_keys) {
    EXPECT_FALSE(store->Peek(key).ok()) << "key " << key;
  }
  // The purged range is re-usable: pulling a dropped key re-initializes it.
  std::vector<float> weights(kDim);
  EXPECT_TRUE(store->Pull(&purge_keys[1], 1, 3, weights.data()).ok());
}

TEST(StoreMigrationTest, RemoveKeysRollsBackAnImportedRange) {
  auto src_device = test::MakeDevice();
  auto src = PipelinedStore::Create(StoreCfg(), src_device.get()).ValueOrDie();
  std::vector<EntryId> keys = {21, 22, 23, 24, 25};
  TrainStore(src.get(), keys, 1, 2, 0.5f);
  Checkpoint(src.get(), 2);

  auto log_device =
      test::MakeDevice({.kind = pmem::DeviceKind::kDram,
                        .fidelity = pmem::CrashFidelity::kNone});
  const storage::EntryLayout layout(kDim, StoreCfg().optimizer.Slots());
  auto log =
      ckpt::CheckpointLog::Create(log_device.get(), layout).ValueOrDie();
  std::vector<bool> all(kNumRoutingSlots, true);
  ASSERT_TRUE(src->ExportRange(all, log.get()).ok());

  auto dst_device = test::MakeDevice();
  auto dst = PipelinedStore::Create(StoreCfg(), dst_device.get()).ValueOrDie();
  std::vector<EntryId> imported;
  ASSERT_TRUE(dst->ImportRange(*log, &imported).ok());
  ASSERT_EQ(dst->EntryCount(), keys.size());

  ASSERT_TRUE(dst->RemoveKeys(imported).ok());
  EXPECT_EQ(dst->EntryCount(), 0u);
  for (EntryId key : keys) EXPECT_FALSE(dst->Peek(key).ok());
}

TEST(StoreMigrationTest, RecoveryDiscardsRecordsOutsideCommittedOwnership) {
  auto device = test::MakeDevice();
  auto store = PipelinedStore::Create(StoreCfg(), device.get()).ValueOrDie();
  const auto owned_keys = KeysBySlotParity(false, 10, 1);
  const auto foreign_keys = KeysBySlotParity(true, 10, 1);
  std::vector<EntryId> all_keys = owned_keys;
  all_keys.insert(all_keys.end(), foreign_keys.begin(), foreign_keys.end());
  TrainStore(store.get(), all_keys, 1, 2, 0.5f);
  Checkpoint(store.get(), 2);
  std::vector<std::vector<float>> owned_values;
  for (EntryId key : owned_keys) {
    owned_values.push_back(store->Peek(key).ValueOrDie());
  }

  // Commit ownership of only the even-slot half.
  ASSERT_TRUE(store->SetOwnedSlots(2, BitmapOfKeys(owned_keys)).ok());

  store.reset();
  device->SimulateCrash();
  auto reopened = PipelinedStore::Open(StoreCfg(), device.get()).ValueOrDie();

  EXPECT_EQ(reopened->PublishedCheckpoint(), 2u);
  EXPECT_EQ(reopened->EntryCount(), owned_keys.size());
  for (size_t i = 0; i < owned_keys.size(); ++i) {
    EXPECT_EQ(reopened->Peek(owned_keys[i]).ValueOrDie(), owned_values[i]);
  }
  for (EntryId key : foreign_keys) {
    EXPECT_FALSE(reopened->Peek(key).ok()) << "key " << key;
  }
  // And the reopened root still names the committed ownership.
  auto root = reopened->ReadOwnedSlots().ValueOrDie();
  EXPECT_TRUE(root.present);
  EXPECT_EQ(root.epoch, 2u);
}

// ---------- Crash enumeration of the migration persist sites ----------

// One run of the target-side migration sequence (own a range, import a
// foreign image, commit the expanded root) with a crash at persist event
// `crash_at` (0 = fault-free reference run), followed by in-place recovery
// and invariant checks.
struct ImportCrashOutcome {
  uint64_t total_events = 0;
  std::vector<std::string> sites;
  uint64_t published = 0;
  size_t incoming_present = 0;
  uint64_t root_epoch = 0;  // 0 = no root committed
};

class TargetImportCrashRig {
 public:
  TargetImportCrashRig()
      : local_keys_(KeysBySlotParity(false, 10, 1)),
        incoming_keys_(KeysBySlotParity(true, 10, 1)) {
    // The migration image: a throwaway source trained past the target's
    // checkpoint (batch 5 > 3) so the import also bumps the target's
    // published checkpoint ("migrate-publish").
    src_device_ = test::MakeDevice({.fidelity = pmem::CrashFidelity::kNone});
    auto src =
        PipelinedStore::Create(StoreCfg(), src_device_.get()).ValueOrDie();
    TrainStore(src.get(), incoming_keys_, 1, 5, 0.25f);
    Checkpoint(src.get(), 5);
    for (EntryId key : incoming_keys_) {
      incoming_values_.push_back(src->Peek(key).ValueOrDie());
    }
    log_device_ = test::MakeDevice({.kind = pmem::DeviceKind::kDram,
                                    .fidelity = pmem::CrashFidelity::kNone});
    const storage::EntryLayout layout(kDim, StoreCfg().optimizer.Slots());
    log_ = ckpt::CheckpointLog::Create(log_device_.get(), layout).ValueOrDie();
    std::vector<bool> all(kNumRoutingSlots, true);
    OE_CHECK_OK(src->ExportRange(all, log_.get()));
  }

  // Runs the sequence; fills `out` and returns "" or the first violation.
  std::string Run(uint64_t crash_at, ImportCrashOutcome* out) {
    auto device = test::MakeDevice({.size_bytes = 8 << 20});
    auto target =
        PipelinedStore::Create(StoreCfg(), device.get()).ValueOrDie();
    TrainStore(target.get(), local_keys_, 1, 3, 0.5f);
    Checkpoint(target.get(), 3);
    std::vector<std::vector<float>> local_values;
    for (EntryId key : local_keys_) {
      local_values.push_back(target->Peek(key).ValueOrDie());
    }

    device->EnableEventTrace(crash_at == 0);
    pmem::FaultPlan plan;
    plan.crash_at = crash_at;
    device->InstallFaultPlan(plan);
    const uint64_t base = device->persist_events();

    // The migration sequence under test; statuses are ignored once the
    // device has crashed (the doomed execution continues, suppressed).
    (void)target->SetOwnedSlots(1, BitmapOfKeys(local_keys_));
    std::vector<EntryId> imported;
    (void)target->ImportRange(*log_, &imported);
    std::vector<bool> combined = BitmapOfKeys(local_keys_);
    for (EntryId key : incoming_keys_) combined[SlotOfKey(key)] = true;
    (void)target->SetOwnedSlots(2, combined);

    if (crash_at == 0) {
      out->total_events = device->persist_events() - base;
      out->sites = device->TakeEventTrace();
      if (device->crashed()) return "fault fired during the reference run";
    }
    device->SimulateCrash();
    device->ClearFault();
    Status recovered = target->RecoverFromCrash();
    if (!recovered.ok()) return "recovery failed: " + recovered.ToString();

    out->published = target->PublishedCheckpoint();
    if (out->published != 3 && out->published != 5) {
      return "recovered checkpoint " + std::to_string(out->published) +
             " is neither the target's (3) nor the image's (5)";
    }
    auto root = target->ReadOwnedSlots().ValueOrDie();
    out->root_epoch = root.present ? root.epoch : 0;

    // The target's own range must always survive at its checkpoint.
    for (size_t i = 0; i < local_keys_.size(); ++i) {
      auto peek = target->Peek(local_keys_[i]);
      if (!peek.ok()) {
        return "local key " + std::to_string(local_keys_[i]) + " lost";
      }
      if (peek.value() != local_values[i]) {
        return "local key " + std::to_string(local_keys_[i]) + " corrupted";
      }
    }
    // The imported range is all-or-nothing: present (bit-exact) only once
    // the expanded ownership root committed, never a partial import.
    out->incoming_present = 0;
    for (size_t i = 0; i < incoming_keys_.size(); ++i) {
      auto peek = target->Peek(incoming_keys_[i]);
      if (!peek.ok()) continue;
      if (peek.value() != incoming_values_[i]) {
        return "imported key " + std::to_string(incoming_keys_[i]) +
               " diverges from the source";
      }
      ++out->incoming_present;
    }
    if (out->incoming_present != 0 &&
        out->incoming_present != incoming_keys_.size()) {
      return "torn import: " + std::to_string(out->incoming_present) + "/" +
             std::to_string(incoming_keys_.size()) + " keys present";
    }
    if ((out->root_epoch == 2) !=
        (out->incoming_present == incoming_keys_.size())) {
      return "imported range does not match the committed root epoch " +
             std::to_string(out->root_epoch);
    }
    return "";
  }

  size_t num_incoming() const { return incoming_keys_.size(); }

 private:
  std::vector<EntryId> local_keys_;
  std::vector<EntryId> incoming_keys_;
  std::vector<std::vector<float>> incoming_values_;
  std::unique_ptr<pmem::PmemDevice> src_device_;
  std::unique_ptr<pmem::PmemDevice> log_device_;
  std::unique_ptr<ckpt::CheckpointLog> log_;
};

TEST(MigrationCrashTest, TargetImportAtomicAtEveryPersistSite) {
  TargetImportCrashRig rig;
  ImportCrashOutcome reference;
  ASSERT_EQ(rig.Run(0, &reference), "");
  ASSERT_GT(reference.total_events, 0u);
  ASSERT_EQ(reference.sites.size(), reference.total_events);
  ASSERT_EQ(reference.incoming_present, rig.num_incoming());

  // Every new persist site of the import path appears in the schedule.
  auto count_site = [&](const std::string& name) {
    size_t n = 0;
    for (const auto& site : reference.sites) {
      if (site.find(name) != std::string::npos) ++n;
    }
    return n;
  };
  EXPECT_GE(count_site("route-blob"), 2u);
  EXPECT_GE(count_site("route-root"), 2u);
  EXPECT_GE(count_site("migrate-entry"), rig.num_incoming());
  EXPECT_GE(count_site("migrate-publish"), 1u);

  // Crash once at every persist event; the import must be atomic (and the
  // import count monotone: once committed, later crash points keep it).
  bool committed = false;
  for (uint64_t e = 1; e <= reference.total_events; ++e) {
    ImportCrashOutcome out;
    const std::string violation = rig.Run(e, &out);
    EXPECT_EQ(violation, "")
        << "crash at event " << e << " (site " << reference.sites[e - 1]
        << ")";
    const bool present = out.incoming_present == rig.num_incoming();
    EXPECT_FALSE(committed && !present)
        << "import un-committed at event " << e;
    committed = committed || present;
  }
  EXPECT_TRUE(committed);  // the final crash point keeps the import
}

// Source-side handoff: shrink the committed ownership, then purge the
// handed-off range ("migrate-gc"). The shrunk root is the commit point —
// recovery after any crash yields either the full pre-migration range or
// exactly the kept range, never a partially purged store.
TEST(MigrationCrashTest, SourcePurgeAtomicAtEveryPersistSite) {
  const auto kept_keys = KeysBySlotParity(false, 10, 1);
  const auto handed_keys = KeysBySlotParity(true, 10, 1);

  struct Outcome {
    uint64_t total_events = 0;
    std::vector<std::string> sites;
    size_t handed_present = 0;
  };
  auto run = [&](uint64_t crash_at, Outcome* out) -> std::string {
    auto device = test::MakeDevice({.size_bytes = 8 << 20});
    auto store = PipelinedStore::Create(StoreCfg(), device.get()).ValueOrDie();
    std::vector<EntryId> all_keys = kept_keys;
    all_keys.insert(all_keys.end(), handed_keys.begin(), handed_keys.end());
    TrainStore(store.get(), all_keys, 1, 3, 0.5f);
    Checkpoint(store.get(), 3);
    std::vector<std::vector<float>> kept_values;
    for (EntryId key : kept_keys) {
      kept_values.push_back(store->Peek(key).ValueOrDie());
    }
    std::vector<bool> full(kNumRoutingSlots, true);

    device->EnableEventTrace(crash_at == 0);
    pmem::FaultPlan plan;
    plan.crash_at = crash_at;
    device->InstallFaultPlan(plan);
    const uint64_t base = device->persist_events();

    (void)store->SetOwnedSlots(1, full);
    (void)store->SetOwnedSlots(2, BitmapOfKeys(kept_keys));
    (void)store->PurgeSlots(BitmapOfKeys(handed_keys));

    if (crash_at == 0) {
      out->total_events = device->persist_events() - base;
      out->sites = device->TakeEventTrace();
      if (device->crashed()) return "fault fired during the reference run";
    }
    device->SimulateCrash();
    device->ClearFault();
    Status recovered = store->RecoverFromCrash();
    if (!recovered.ok()) return "recovery failed: " + recovered.ToString();

    for (size_t i = 0; i < kept_keys.size(); ++i) {
      auto peek = store->Peek(kept_keys[i]);
      if (!peek.ok() || peek.value() != kept_values[i]) {
        return "kept key " + std::to_string(kept_keys[i]) + " lost/corrupted";
      }
    }
    out->handed_present = 0;
    for (EntryId key : handed_keys) {
      if (store->Peek(key).ok()) ++out->handed_present;
    }
    if (out->handed_present != 0 &&
        out->handed_present != handed_keys.size()) {
      return "torn purge: " + std::to_string(out->handed_present) + "/" +
             std::to_string(handed_keys.size()) + " handed-off keys remain";
    }
    return "";
  };

  Outcome reference;
  ASSERT_EQ(run(0, &reference), "");
  ASSERT_GT(reference.total_events, 0u);
  size_t gc_events = 0;
  for (const auto& site : reference.sites) {
    if (site.find("migrate-gc") != std::string::npos) ++gc_events;
  }
  EXPECT_GT(gc_events, 0u);
  EXPECT_EQ(reference.handed_present, 0u);

  bool dropped = false;
  for (uint64_t e = 1; e <= reference.total_events; ++e) {
    Outcome out;
    const std::string violation = run(e, &out);
    EXPECT_EQ(violation, "")
        << "crash at event " << e << " (site " << reference.sites[e - 1]
        << ")";
    const bool gone = out.handed_present == 0;
    EXPECT_FALSE(dropped && !gone) << "purge un-committed at event " << e;
    dropped = dropped || gone;
  }
  EXPECT_TRUE(dropped);
}

// ---------- Cluster-level elastic membership ----------

ps::ClusterOptions ClusterCfg(uint32_t nodes) {
  ps::ClusterOptions options;
  options.num_nodes = nodes;
  options.kind = storage::StoreKind::kPipelined;
  options.store.dim = kDim;
  options.store.optimizer.kind = storage::OptimizerKind::kSgd;
  options.store.optimizer.learning_rate = 0.1f;
  options.pmem_bytes_per_node = 16ULL << 20;
  return options;
}

Status TrainBatches(ps::PsClient* client, const std::vector<EntryId>& keys,
                    uint64_t from, uint64_t to) {
  std::vector<float> weights(keys.size() * kDim);
  for (uint64_t batch = from; batch <= to; ++batch) {
    OE_RETURN_IF_ERROR(
        client->Pull(keys.data(), keys.size(), batch, weights.data()));
    OE_RETURN_IF_ERROR(client->FinishPullPhase(batch));
    std::vector<float> grads(keys.size() * kDim,
                             0.01f * static_cast<float>(batch));
    OE_RETURN_IF_ERROR(
        client->Push(keys.data(), keys.size(), grads.data(), batch));
  }
  return Status::OK();
}

std::vector<std::vector<float>> PeekAll(ps::PsClient* client,
                                        const std::vector<EntryId>& keys) {
  std::vector<std::vector<float>> values;
  values.reserve(keys.size());
  for (EntryId key : keys) values.push_back(client->Peek(key).ValueOrDie());
  return values;
}

std::vector<uint32_t> SlotsForResidue(uint32_t mod, uint32_t residue) {
  std::vector<uint32_t> slots;
  for (uint32_t s = residue; s < kNumRoutingSlots; s += mod) slots.push_back(s);
  return slots;
}

uint64_t TotalWrongOwnerRejects(ps::PsCluster* cluster) {
  uint64_t total = 0;
  for (uint32_t node = 0; node < cluster->num_nodes(); ++node) {
    if (cluster->service(node) != nullptr) {
      total += cluster->service(node)->WrongOwnerRejects();
    }
  }
  return total;
}

// The acceptance workload: 4 -> 8 scale-out under concurrent training and
// serving load on a lossy, duplicating, delaying network. The final model
// must be bit-identical to a no-migration golden run (zero lost or
// double-applied pushes across every redirect), and every mid-migration
// MultiGet must be a consistent snapshot.
TEST(ElasticClusterTest, ExpandFourToEightUnderLoadMatchesGoldenRun) {
  std::vector<EntryId> keys(192);
  std::iota(keys.begin(), keys.end(), 1);

  auto golden = ps::PsCluster::Create(ClusterCfg(4)).ValueOrDie();
  ASSERT_TRUE(TrainBatches(&golden->client(), keys, 1, 5).ok());
  ASSERT_TRUE(golden->client().RequestCheckpoint(5).ok());
  ASSERT_TRUE(golden->client().DrainCheckpoints().ok());
  ASSERT_TRUE(TrainBatches(&golden->client(), keys, 6, 16).ok());
  ASSERT_TRUE(golden->client().RequestCheckpoint(16).ok());
  ASSERT_TRUE(golden->client().DrainCheckpoints().ok());
  const auto golden_values = PeekAll(&golden->client(), keys);

  ps::ClusterOptions options = ClusterCfg(4);
  options.serving_cache_bytes = 32 << 10;
  options.inject_net_faults = true;
  options.net_fault_seed = 91;
  options.net_fault_spec.drop_rate = 0.1;
  options.net_fault_spec.fail_response_rate = 0.1;
  options.net_fault_spec.duplicate_rate = 0.15;
  options.net_fault_spec.delay_rate = 0.1;
  options.net_fault_spec.delay_ms = 1;
  options.rpc_options.max_retries = 50;
  options.rpc_options.backoff_initial_ms = 0;
  auto cluster = ps::PsCluster::Create(options).ValueOrDie();

  ASSERT_TRUE(TrainBatches(&cluster->client(), keys, 1, 5).ok());
  ASSERT_TRUE(cluster->client().RequestCheckpoint(5).ok());
  ASSERT_TRUE(cluster->client().DrainCheckpoints().ok());
  const auto snapshot5 = PeekAll(&cluster->client(), keys);

  // Trainer and serving reader run through the whole membership change.
  auto trainer_client = cluster->NewClient();
  Status trainer_status;
  std::thread trainer([&] {
    trainer_status = TrainBatches(trainer_client.get(), keys, 6, 16);
  });

  auto serving_client = cluster->NewClient();
  std::atomic<bool> stop_serving{false};
  std::string serving_violation;
  int serving_snapshot_reads = 0;
  std::thread server([&] {
    std::vector<float> out(keys.size() * kDim);
    std::vector<uint8_t> found(keys.size());
    while (!stop_serving.load()) {
      uint64_t cp = 0;
      const Status status = serving_client->MultiGet(
          keys.data(), keys.size(), out.data(), found.data(), &cp);
      if (!status.ok()) continue;  // retry budget dry on the lossy schedule
      if (cp != 5) {
        serving_violation = "unexpected snapshot version " +
                            std::to_string(cp) + " before checkpoint 16";
        return;
      }
      ++serving_snapshot_reads;
      for (size_t i = 0; i < keys.size(); ++i) {
        const std::vector<float> got(
            out.begin() + static_cast<long>(i) * kDim,
            out.begin() + static_cast<long>(i + 1) * kDim);
        if (found[i] != 1 || got != snapshot5[i]) {
          serving_violation =
              "torn read of key " + std::to_string(keys[i]);
          return;
        }
      }
    }
  });

  // 4 -> 8: provision four nodes, then hand each its round-robin-of-8
  // residue class so the final table matches MakeRoundRobin(8).
  for (uint32_t n = 0; n < 4; ++n) {
    auto added = cluster->AddNode();
    ASSERT_TRUE(added.ok());
    EXPECT_EQ(added.value(), 4 + n);
  }
  for (uint32_t target = 4; target < 8; ++target) {
    ASSERT_TRUE(
        cluster->MigrateSlots(SlotsForResidue(8, target), target).ok());
  }

  trainer.join();
  stop_serving.store(true);
  server.join();
  EXPECT_TRUE(trainer_status.ok()) << trainer_status.ToString();
  EXPECT_EQ(serving_violation, "");
  EXPECT_GT(serving_snapshot_reads, 0);

  ASSERT_TRUE(cluster->client().RequestCheckpoint(16).ok());
  ASSERT_TRUE(cluster->client().DrainCheckpoints().ok());

  // Epochs: 1 (init) + 4 AddNode + 4 migration legs.
  EXPECT_EQ(cluster->directory()->Current()->epoch, 9u);
  EXPECT_EQ(cluster->directory()->Current()->active.size(), 8u);
  // Stale routes really bounced and were retried.
  EXPECT_GT(TotalWrongOwnerRejects(cluster.get()), 0u);
  // Data moved: every node owns part of the model, nothing was lost or
  // duplicated (the key universe is partitioned).
  uint64_t total_entries = 0;
  for (uint32_t node = 0; node < 8; ++node) {
    const size_t count = cluster->store(node)->EntryCount();
    EXPECT_GT(count, 0u) << "node " << node;
    total_entries += count;
  }
  EXPECT_EQ(total_entries, keys.size());
  EXPECT_EQ(cluster->client().ClusterCheckpoint().ValueOrDie(), 16u);

  // The acceptance bar: per-key logical Peek comparison, bit-identical.
  const auto values = PeekAll(&cluster->client(), keys);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(values[i], golden_values[i]) << "key " << keys[i];
  }
}

// Scale-in mirror: 8 -> 4 drain under the same faulty schedule.
TEST(ElasticClusterTest, DrainEightToFourUnderLoadMatchesGoldenRun) {
  std::vector<EntryId> keys(192);
  std::iota(keys.begin(), keys.end(), 1);

  auto golden = ps::PsCluster::Create(ClusterCfg(8)).ValueOrDie();
  ASSERT_TRUE(TrainBatches(&golden->client(), keys, 1, 4).ok());
  ASSERT_TRUE(golden->client().RequestCheckpoint(4).ok());
  ASSERT_TRUE(golden->client().DrainCheckpoints().ok());
  ASSERT_TRUE(TrainBatches(&golden->client(), keys, 5, 12).ok());
  const auto golden_values = PeekAll(&golden->client(), keys);

  ps::ClusterOptions options = ClusterCfg(8);
  options.inject_net_faults = true;
  options.net_fault_seed = 17;
  options.net_fault_spec.drop_rate = 0.1;
  options.net_fault_spec.duplicate_rate = 0.15;
  options.net_fault_spec.fail_response_rate = 0.1;
  options.rpc_options.max_retries = 50;
  options.rpc_options.backoff_initial_ms = 0;
  auto cluster = ps::PsCluster::Create(options).ValueOrDie();

  ASSERT_TRUE(TrainBatches(&cluster->client(), keys, 1, 4).ok());
  ASSERT_TRUE(cluster->client().RequestCheckpoint(4).ok());
  ASSERT_TRUE(cluster->client().DrainCheckpoints().ok());

  auto trainer_client = cluster->NewClient();
  Status trainer_status;
  std::thread trainer([&] {
    trainer_status = TrainBatches(trainer_client.get(), keys, 5, 12);
  });
  for (uint32_t node = 7; node >= 4; --node) {
    ASSERT_TRUE(cluster->DrainNode(node).ok()) << "node " << node;
  }
  trainer.join();
  EXPECT_TRUE(trainer_status.ok()) << trainer_status.ToString();

  const auto table = cluster->directory()->Current();
  EXPECT_EQ(table->active, std::vector<net::NodeId>({0, 1, 2, 3}));
  for (uint32_t node = 4; node < 8; ++node) {
    EXPECT_EQ(cluster->store(node)->EntryCount(), 0u) << "node " << node;
    EXPECT_TRUE(table->SlotsOwnedBy(node).empty());
  }
  EXPECT_GT(TotalWrongOwnerRejects(cluster.get()), 0u);

  const auto values = PeekAll(&cluster->client(), keys);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(values[i], golden_values[i]) << "key " << keys[i];
  }
  // Broadcasts now skip the drained nodes: a fresh checkpoint needs only
  // the active four to publish.
  ASSERT_TRUE(cluster->client().RequestCheckpoint(12).ok());
  ASSERT_TRUE(cluster->client().DrainCheckpoints().ok());
  EXPECT_EQ(cluster->client().ClusterCheckpoint().ValueOrDie(), 12u);
}

// A client whose cached table predates the membership change must recover
// transparently: kWrongOwner -> refresh -> re-route, exactly-once.
TEST(ElasticClusterTest, StaleClientRetriesTransparentlyAfterMigration) {
  auto cluster = ps::PsCluster::Create(ClusterCfg(4)).ValueOrDie();
  std::vector<EntryId> keys(64);
  std::iota(keys.begin(), keys.end(), 1);
  ASSERT_TRUE(TrainBatches(&cluster->client(), keys, 1, 3).ok());
  ASSERT_TRUE(cluster->client().RequestCheckpoint(3).ok());
  ASSERT_TRUE(cluster->client().DrainCheckpoints().ok());

  auto stale = cluster->NewClient();
  ASSERT_TRUE(TrainBatches(stale.get(), keys, 4, 4).ok());
  const uint64_t epoch_before = stale->router().epoch();

  ASSERT_EQ(cluster->AddNode().ValueOrDie(), 4u);
  ASSERT_TRUE(cluster->MigrateSlots(SlotsForResidue(2, 0), 4).ok());
  const uint64_t rejects_before = TotalWrongOwnerRejects(cluster.get());

  // The stale client still routes half its keys at the old owners.
  ASSERT_TRUE(TrainBatches(stale.get(), keys, 5, 5).ok());
  EXPECT_GT(TotalWrongOwnerRejects(cluster.get()), rejects_before);
  EXPECT_GT(stale->router().epoch(), epoch_before);

  // Exactly-once across the redirect: the same workload on a golden
  // cluster (same batches, no migration) gives bit-identical weights.
  auto golden = ps::PsCluster::Create(ClusterCfg(4)).ValueOrDie();
  ASSERT_TRUE(TrainBatches(&golden->client(), keys, 1, 3).ok());
  ASSERT_TRUE(golden->client().RequestCheckpoint(3).ok());
  ASSERT_TRUE(golden->client().DrainCheckpoints().ok());
  ASSERT_TRUE(TrainBatches(&golden->client(), keys, 4, 5).ok());
  const auto golden_values = PeekAll(&golden->client(), keys);
  const auto values = PeekAll(&cluster->client(), keys);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(values[i], golden_values[i]) << "key " << keys[i];
  }
}

// Serving reads issued at every phase of a live migration (sealed,
// exported, imported, published) must be complete, version-consistent
// snapshots — never torn, never mixing checkpoints.
TEST(ElasticClusterTest, MultiGetConsistentAtEveryMigrationPhase) {
  ps::ClusterOptions options = ClusterCfg(4);
  options.serving_cache_bytes = 32 << 10;
  auto cluster = ps::PsCluster::Create(options).ValueOrDie();
  std::vector<EntryId> keys(64);
  std::iota(keys.begin(), keys.end(), 1);
  ASSERT_TRUE(TrainBatches(&cluster->client(), keys, 1, 5).ok());
  ASSERT_TRUE(cluster->client().RequestCheckpoint(5).ok());
  ASSERT_TRUE(cluster->client().DrainCheckpoints().ok());
  const auto snapshot = PeekAll(&cluster->client(), keys);
  // Live state moves past the checkpoint so torn reads would be visible.
  ASSERT_TRUE(TrainBatches(&cluster->client(), keys, 6, 7).ok());

  ASSERT_EQ(cluster->AddNode().ValueOrDie(), 4u);
  auto reader = cluster->NewClient();
  std::vector<std::string> phases;
  std::string violation;
  cluster->set_migration_hook([&](const std::string& phase) {
    phases.push_back(phase);
    std::vector<float> out(keys.size() * kDim);
    std::vector<uint8_t> found(keys.size());
    uint64_t cp = 0;
    const Status status = reader->MultiGet(keys.data(), keys.size(),
                                           out.data(), found.data(), &cp);
    if (!status.ok()) {
      violation = phase + ": " + status.ToString();
      return;
    }
    if (cp != 5) {
      violation = phase + ": snapshot version " + std::to_string(cp);
      return;
    }
    for (size_t i = 0; i < keys.size(); ++i) {
      const std::vector<float> got(
          out.begin() + static_cast<long>(i) * kDim,
          out.begin() + static_cast<long>(i + 1) * kDim);
      if (found[i] != 1 || got != snapshot[i]) {
        violation = phase + ": torn key " + std::to_string(keys[i]);
        return;
      }
    }
  });
  // One source leg (node 1's slots), so each phase fires exactly once.
  ASSERT_TRUE(
      cluster
          ->MigrateSlots(cluster->directory()->Current()->SlotsOwnedBy(1), 4)
          .ok());
  EXPECT_EQ(violation, "");
  EXPECT_EQ(phases, std::vector<std::string>(
                        {"sealed", "exported", "imported", "published"}));
}

// ---------- Kill-mid-migration rollback ----------

// Kill the source at the "exported" phase: the migration aborts, the
// routing epoch stays put, the target gets nothing, and after restart +
// recovery the same migration succeeds with the data intact.
TEST(ElasticClusterTest, SourceKillMidMigrationRollsBackAndRetries) {
  auto cluster = ps::PsCluster::Create(ClusterCfg(4)).ValueOrDie();
  std::vector<EntryId> keys(96);
  std::iota(keys.begin(), keys.end(), 1);
  ASSERT_TRUE(TrainBatches(&cluster->client(), keys, 1, 3).ok());
  ASSERT_TRUE(cluster->client().RequestCheckpoint(3).ok());
  ASSERT_TRUE(cluster->client().DrainCheckpoints().ok());
  const auto checkpointed = PeekAll(&cluster->client(), keys);

  ASSERT_EQ(cluster->AddNode().ValueOrDie(), 4u);
  const uint64_t epoch_before = cluster->directory()->Current()->epoch;
  const auto slots = cluster->directory()->Current()->SlotsOwnedBy(0);
  ASSERT_FALSE(slots.empty());

  cluster->set_migration_hook([&](const std::string& phase) {
    if (phase == "exported") {
      ASSERT_TRUE(cluster->KillNode(0).ok());
    }
  });
  const Status aborted = cluster->MigrateSlots(slots, 4);
  EXPECT_EQ(aborted.code(), StatusCode::kAborted) << aborted.ToString();
  cluster->set_migration_hook(nullptr);

  // Rolled back to the pre-migration epoch: no routing change, no import.
  EXPECT_EQ(cluster->directory()->Current()->epoch, epoch_before);
  EXPECT_EQ(cluster->store(4)->EntryCount(), 0u);
  EXPECT_TRUE(cluster->node_down(0));

  ASSERT_TRUE(cluster->RestartDownNodes().ok());
  ASSERT_TRUE(cluster->client().Recover().ok());
  const auto recovered = PeekAll(&cluster->client(), keys);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(recovered[i], checkpointed[i]) << "key " << keys[i];
  }

  // The retried migration completes and the moved range still serves.
  ASSERT_TRUE(cluster->MigrateSlots(slots, 4).ok());
  EXPECT_EQ(cluster->directory()->Current()->epoch, epoch_before + 1);
  EXPECT_GT(cluster->store(4)->EntryCount(), 0u);
  const auto after = PeekAll(&cluster->client(), keys);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(after[i], checkpointed[i]) << "key " << keys[i];
  }
}

// Kill the target after it durably committed its expanded ownership but
// before the routing publish: the epoch never moves, so the restarted
// target's ownership reconcile must purge the half-migrated range its
// stale root still claims.
TEST(ElasticClusterTest, TargetKillAfterImportReconcilesOnRestart) {
  auto cluster = ps::PsCluster::Create(ClusterCfg(4)).ValueOrDie();
  std::vector<EntryId> keys(96);
  std::iota(keys.begin(), keys.end(), 1);
  ASSERT_TRUE(TrainBatches(&cluster->client(), keys, 1, 3).ok());
  ASSERT_TRUE(cluster->client().RequestCheckpoint(3).ok());
  ASSERT_TRUE(cluster->client().DrainCheckpoints().ok());
  const auto checkpointed = PeekAll(&cluster->client(), keys);

  ASSERT_EQ(cluster->AddNode().ValueOrDie(), 4u);
  const uint64_t epoch_before = cluster->directory()->Current()->epoch;
  const auto slots = cluster->directory()->Current()->SlotsOwnedBy(1);

  cluster->set_migration_hook([&](const std::string& phase) {
    if (phase == "imported") {
      ASSERT_TRUE(cluster->KillNode(4).ok());
    }
  });
  EXPECT_EQ(cluster->MigrateSlots(slots, 4).code(), StatusCode::kAborted);
  cluster->set_migration_hook(nullptr);
  EXPECT_EQ(cluster->directory()->Current()->epoch, epoch_before);

  // Restart: the reconcile rewrites the stale root against the published
  // table and drops the imported-but-never-routed records.
  ASSERT_TRUE(cluster->RestartDownNodes().ok());
  EXPECT_EQ(cluster->store(4)->EntryCount(), 0u);
  ASSERT_TRUE(cluster->client().Recover().ok());
  const auto recovered = PeekAll(&cluster->client(), keys);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(recovered[i], checkpointed[i]) << "key " << keys[i];
  }
  // The source was unsealed by the abort: training proceeds normally.
  ASSERT_TRUE(TrainBatches(&cluster->client(), keys, 4, 5).ok());
  // And a retried migration lands.
  ASSERT_TRUE(cluster->MigrateSlots(slots, 4).ok());
  EXPECT_GT(cluster->store(4)->EntryCount(), 0u);
}

// Kill the source right after the publish: the migration is committed
// (the epoch moved), and the restarted source's reconcile garbage-collects
// the handed-off range its stale root still claims.
TEST(ElasticClusterTest, SourceKillAfterPublishCompletesViaReconcile) {
  auto cluster = ps::PsCluster::Create(ClusterCfg(4)).ValueOrDie();
  std::vector<EntryId> keys(96);
  std::iota(keys.begin(), keys.end(), 1);
  ASSERT_TRUE(TrainBatches(&cluster->client(), keys, 1, 3).ok());
  ASSERT_TRUE(cluster->client().RequestCheckpoint(3).ok());
  ASSERT_TRUE(cluster->client().DrainCheckpoints().ok());
  const auto checkpointed = PeekAll(&cluster->client(), keys);

  ASSERT_EQ(cluster->AddNode().ValueOrDie(), 4u);
  const uint64_t epoch_before = cluster->directory()->Current()->epoch;
  const auto slots = cluster->directory()->Current()->SlotsOwnedBy(2);

  cluster->set_migration_hook([&](const std::string& phase) {
    if (phase == "published") {
      ASSERT_TRUE(cluster->KillNode(2).ok());
    }
  });
  // Publish happened: the migration is committed despite the source death.
  ASSERT_TRUE(cluster->MigrateSlots(slots, 4).ok());
  cluster->set_migration_hook(nullptr);
  EXPECT_EQ(cluster->directory()->Current()->epoch, epoch_before + 1);
  EXPECT_GT(cluster->store(4)->EntryCount(), 0u);

  ASSERT_TRUE(cluster->RestartDownNodes().ok());
  ASSERT_TRUE(cluster->client().Recover().ok());
  // The restarted source no longer hoards the handed-off range: its keys
  // now live (only) on the target, and the model reads back intact.
  const auto table = cluster->directory()->Current();
  for (EntryId key : keys) {
    if (table->owners[SlotOfKey(key)] == 4) {
      EXPECT_FALSE(cluster->store(2)->Peek(key).ok()) << "key " << key;
    }
  }
  const auto recovered = PeekAll(&cluster->client(), keys);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(recovered[i], checkpointed[i]) << "key " << keys[i];
  }
}

// ---------- Node restart ----------

// A restarted node rebuilds its ServingCache: it comes back with a fresh,
// empty cache in front of its recovered store, refills it from snapshot
// reads, and the serving tier returns the identical snapshot.
TEST(ElasticClusterTest, RestartedNodeRebuildsServingCache) {
  ps::ClusterOptions options = ClusterCfg(4);
  options.serving_cache_bytes = 32 << 10;
  auto cluster = ps::PsCluster::Create(options).ValueOrDie();
  std::vector<EntryId> keys(32);
  std::iota(keys.begin(), keys.end(), 0);
  ASSERT_TRUE(TrainBatches(&cluster->client(), keys, 1, 3).ok());
  ASSERT_TRUE(cluster->client().RequestCheckpoint(3).ok());
  ASSERT_TRUE(cluster->client().DrainCheckpoints().ok());
  const uint32_t victim = cluster->client().router().NodeFor(0);

  // Snapshot serving state before the crash; the read fills the caches.
  std::vector<float> out(keys.size() * kDim);
  std::vector<uint8_t> found(keys.size());
  uint64_t cp = 0;
  ASSERT_TRUE(cluster->client()
                  .MultiGet(keys.data(), keys.size(), out.data(),
                            found.data(), &cp)
                  .ok());
  ASSERT_EQ(cp, 3u);
  const std::vector<float> serving_before = out;
  ASSERT_GT(cluster->service(victim)->serving_cache()->entries(), 0u);

  ASSERT_TRUE(cluster->KillNode(victim).ok());
  ASSERT_TRUE(cluster->RestartNode(victim).ok());
  ASSERT_TRUE(cluster->client().Recover().ok());

  // The restarted node has a fresh serving cache in front of its store.
  ASSERT_NE(cluster->service(victim), nullptr);
  const ps::ServingCache* cache = cluster->service(victim)->serving_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->entries(), 0u);

  // The serving tier returns the identical snapshot and refills the cache.
  std::fill(out.begin(), out.end(), -1.0f);
  ASSERT_TRUE(cluster->client()
                  .MultiGet(keys.data(), keys.size(), out.data(),
                            found.data(), &cp)
                  .ok());
  EXPECT_EQ(cp, 3u);
  EXPECT_EQ(out, serving_before);
  EXPECT_GT(cache->entries(), 0u);
  // Training resumes across the restarted node.
  ASSERT_TRUE(TrainBatches(&cluster->client(), keys, 4, 5).ok());
}

// ---------- Membership validation ----------

TEST(ElasticClusterTest, MembershipValidation) {
  auto cluster = ps::PsCluster::Create(ClusterCfg(2)).ValueOrDie();

  // Unknown / down targets are rejected up front.
  EXPECT_EQ(cluster->MigrateSlots({0}, 5).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(cluster->KillNode(1).ok());
  EXPECT_EQ(cluster->MigrateSlots({0}, 1).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(cluster->DrainNode(1).code(), StatusCode::kFailedPrecondition);
  // With the only peer down there is nowhere to drain to.
  EXPECT_EQ(cluster->DrainNode(0).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(cluster->RestartDownNodes().ok());

  // Draining an untrained node is legal (empty ranges need no checkpoint).
  ASSERT_TRUE(cluster->DrainNode(1).ok());
  EXPECT_EQ(cluster->directory()->Current()->active,
            std::vector<net::NodeId>({0}));
  // Already-inactive and last-active nodes refuse to drain.
  EXPECT_EQ(cluster->DrainNode(1).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(cluster->DrainNode(0).code(), StatusCode::kFailedPrecondition);

  // Out-of-range slot ids are rejected.
  ASSERT_EQ(cluster->AddNode().ValueOrDie(), 2u);
  EXPECT_EQ(cluster->MigrateSlots({kNumRoutingSlots}, 2).code(),
            StatusCode::kInvalidArgument);
  // Migrating slots a node already owns is a no-op, not an error.
  EXPECT_TRUE(cluster->MigrateSlots(SlotsForResidue(2, 0), 0).ok());
}

}  // namespace
}  // namespace oe
