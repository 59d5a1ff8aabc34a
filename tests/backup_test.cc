// Remote-backup tier (the paper's Section I two-tier checkpoint scheme).

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <vector>

#include "ckpt/checkpoint_log.h"
#include "storage/pipelined_store.h"
#include "test_util.h"

namespace oe::storage {
namespace {

using ckpt::CheckpointLog;
using pmem::CrashFidelity;
using pmem::DeviceKind;
using pmem::PmemDevice;
using pmem::PmemDeviceOptions;

constexpr uint32_t kDim = oe::test::kSmallDim;

using oe::test::SmallConfig;

std::unique_ptr<PmemDevice> MakeDevice(
    DeviceKind kind = DeviceKind::kPmem,
    CrashFidelity fidelity = CrashFidelity::kStrict) {
  return oe::test::MakeDevice(
      {.size_bytes = 32 << 20, .kind = kind, .fidelity = fidelity});
}

void TrainBatch(PipelinedStore* store, uint64_t batch,
                const std::vector<EntryId>& keys, float g) {
  std::vector<float> w(keys.size() * kDim);
  ASSERT_TRUE(store->Pull(keys.data(), keys.size(), batch, w.data()).ok());
  store->FinishPullPhase(batch);
  std::vector<float> grads(keys.size() * kDim, g);
  ASSERT_TRUE(
      store->Push(keys.data(), keys.size(), grads.data(), batch).ok());
}

TEST(RemoteBackupTest, ExportRequiresPublishedCheckpoint) {
  auto device = MakeDevice();
  auto store = PipelinedStore::Create(SmallConfig(), device.get())
                   .ValueOrDie();
  auto remote_device = MakeDevice(DeviceKind::kSsd);
  EntryLayout layout(kDim, 0);
  auto remote =
      CheckpointLog::Create(remote_device.get(), layout).ValueOrDie();
  EXPECT_FALSE(store->ExportCheckpoint(remote.get()).ok());
  EXPECT_FALSE(store->ExportCheckpoint(nullptr).ok());
}

TEST(RemoteBackupTest, TotalLossRestoreFromRemote) {
  EntryLayout layout(kDim, 0);
  auto remote_device = MakeDevice(DeviceKind::kSsd);
  auto remote =
      CheckpointLog::Create(remote_device.get(), layout).ValueOrDie();

  std::vector<EntryId> keys(64);
  std::iota(keys.begin(), keys.end(), 0);
  std::map<EntryId, std::vector<float>> expected;
  {
    auto device = MakeDevice();
    auto store = PipelinedStore::Create(SmallConfig(), device.get())
                     .ValueOrDie();
    TrainBatch(store.get(), 1, keys, 0.1f);
    TrainBatch(store.get(), 2, keys, 0.2f);
    ASSERT_TRUE(store->RequestCheckpoint(2).ok());
    ASSERT_TRUE(store->DrainCheckpoints().ok());
    // Periodic remote backup of the published checkpoint.
    ASSERT_TRUE(store->ExportCheckpoint(remote.get()).ok());
    for (EntryId key : keys) expected[key] = store->Peek(key).ValueOrDie();
    // Post-backup updates that the remote tier does not know about.
    TrainBatch(store.get(), 3, keys, 0.9f);
    // The entire PS node (device included) is now lost.
  }

  // Replacement node: fresh device, fresh store, import from remote.
  auto new_device = MakeDevice();
  auto store = PipelinedStore::Create(SmallConfig(), new_device.get())
                   .ValueOrDie();
  ASSERT_TRUE(store->ImportCheckpoint(*remote).ok());
  EXPECT_EQ(store->PublishedCheckpoint(), 2u);
  EXPECT_EQ(store->EntryCount(), keys.size());
  for (EntryId key : keys) {
    auto got = store->Peek(key).ValueOrDie();
    for (uint32_t d = 0; d < kDim; ++d) {
      EXPECT_NEAR(got[d], expected[key][d], 1e-6) << key;
    }
  }

  // The restored node trains and checkpoints normally.
  TrainBatch(store.get(), 3, keys, 0.1f);
  ASSERT_TRUE(store->RequestCheckpoint(3).ok());
  ASSERT_TRUE(store->DrainCheckpoints().ok());
  EXPECT_EQ(store->PublishedCheckpoint(), 3u);

  // And survives a local crash after the import.
  new_device->SimulateCrash();
  ASSERT_TRUE(store->RecoverFromCrash().ok());
  EXPECT_EQ(store->EntryCount(), keys.size());
}

TEST(RemoteBackupTest, ImportRejectsNonEmptyStore) {
  EntryLayout layout(kDim, 0);
  auto remote_device = MakeDevice(DeviceKind::kSsd);
  auto remote =
      CheckpointLog::Create(remote_device.get(), layout).ValueOrDie();
  std::vector<uint8_t> record(layout.record_bytes(), 0);
  EntryLayout::SetRecordHeader(record.data(), 7, 1);
  ASSERT_TRUE(remote->AppendChunk(1, record.data(), 1).ok());

  auto device = MakeDevice();
  auto store = PipelinedStore::Create(SmallConfig(), device.get())
                   .ValueOrDie();
  std::vector<EntryId> keys = {1};
  TrainBatch(store.get(), 1, keys, 0.1f);
  EXPECT_FALSE(store->ImportCheckpoint(*remote).ok());
}

TEST(RemoteBackupTest, ExportReflectsCheckpointNotLiveState) {
  EntryLayout layout(kDim, 0);
  auto remote_device = MakeDevice(DeviceKind::kPmem);
  auto remote =
      CheckpointLog::Create(remote_device.get(), layout).ValueOrDie();
  auto device = MakeDevice();
  auto store = PipelinedStore::Create(SmallConfig(), device.get())
                   .ValueOrDie();
  std::vector<EntryId> keys = {10, 11};
  TrainBatch(store.get(), 1, keys, 0.1f);
  ASSERT_TRUE(store->RequestCheckpoint(1).ok());
  ASSERT_TRUE(store->DrainCheckpoints().ok());
  auto at_ckpt = store->Peek(10).ValueOrDie();
  TrainBatch(store.get(), 2, keys, 0.5f);  // newer than the checkpoint
  ASSERT_TRUE(store->ExportCheckpoint(remote.get()).ok());

  auto new_device = MakeDevice();
  auto restored = PipelinedStore::Create(SmallConfig(), new_device.get())
                      .ValueOrDie();
  ASSERT_TRUE(restored->ImportCheckpoint(*remote).ok());
  EXPECT_EQ(restored->Peek(10).ValueOrDie(), at_ckpt);
}

// Two exports into one log: the import replays both chunks and must keep,
// per key, the later export's record. Keys trained only before the first
// export survive from its chunk, so the restored store holds the union.
TEST(RemoteBackupTest, LaterExportInSameLogOverridesEarlier) {
  EntryLayout layout(kDim, 0);
  auto remote_device = MakeDevice(DeviceKind::kSsd);
  auto remote =
      CheckpointLog::Create(remote_device.get(), layout).ValueOrDie();
  std::vector<EntryId> early(48);
  std::iota(early.begin(), early.end(), 0);  // keys 0..47
  std::vector<EntryId> late(48);
  std::iota(late.begin(), late.end(), 32);  // keys 32..79
  std::map<EntryId, std::vector<float>> expected;
  {
    auto device = MakeDevice();
    auto store = PipelinedStore::Create(SmallConfig(), device.get())
                     .ValueOrDie();
    TrainBatch(store.get(), 1, early, 0.1f);
    TrainBatch(store.get(), 2, early, 0.2f);
    ASSERT_TRUE(store->RequestCheckpoint(2).ok());
    ASSERT_TRUE(store->DrainCheckpoints().ok());
    ASSERT_TRUE(store->ExportCheckpoint(remote.get()).ok());
    TrainBatch(store.get(), 3, late, 0.3f);
    TrainBatch(store.get(), 4, late, 0.4f);
    ASSERT_TRUE(store->RequestCheckpoint(4).ok());
    ASSERT_TRUE(store->DrainCheckpoints().ok());
    ASSERT_TRUE(store->ExportCheckpoint(remote.get()).ok());
    for (EntryId key = 0; key < 80; ++key) {
      expected[key] = store->Peek(key).ValueOrDie();
    }
    TrainBatch(store.get(), 5, early, 0.9f);  // unknown to the backup
  }
  ASSERT_EQ(remote->LatestBatch(), 4u);

  auto device = MakeDevice();
  auto store = PipelinedStore::Create(SmallConfig(), device.get())
                   .ValueOrDie();
  ASSERT_TRUE(store->ImportCheckpoint(*remote).ok());
  auto expect_cp4_state = [&] {
    EXPECT_EQ(store->PublishedCheckpoint(), 4u);
    EXPECT_EQ(store->EntryCount(), expected.size());
    for (const auto& [key, weights] : expected) {
      auto got = store->Peek(key);
      ASSERT_TRUE(got.ok()) << "key " << key;
      EXPECT_EQ(got.value(), weights) << "key " << key;
    }
  };
  expect_cp4_state();
  device->SimulateCrash();
  ASSERT_TRUE(store->RecoverFromCrash().ok());
  expect_cp4_state();
}

}  // namespace
}  // namespace oe::storage
