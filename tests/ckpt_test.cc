#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>
#include <vector>

#include "ckpt/checkpoint_log.h"
#include "common/random.h"
#include "pmem/device.h"
#include "storage/ori_cache_store.h"
#include "test_util.h"

namespace oe::ckpt {
namespace {

using pmem::CrashFidelity;
using pmem::PmemDevice;
using pmem::PmemDeviceOptions;
using storage::EntryLayout;

using oe::test::MakeDevice;

std::vector<uint8_t> MakeRecords(const EntryLayout& layout,
                                 const std::vector<uint64_t>& keys,
                                 uint64_t version, float value) {
  std::vector<uint8_t> buffer(keys.size() * layout.record_bytes());
  for (size_t i = 0; i < keys.size(); ++i) {
    uint8_t* record = buffer.data() + i * layout.record_bytes();
    EntryLayout::SetRecordHeader(record, keys[i], version);
    float* data = EntryLayout::RecordData(record);
    for (uint32_t d = 0; d < layout.values_per_entry(); ++d) {
      data[d] = value + static_cast<float>(d);
    }
  }
  return buffer;
}

TEST(CheckpointLogTest, EmptyLogHasNoBatches) {
  auto device = MakeDevice();
  EntryLayout layout(4, 0);
  auto log = CheckpointLog::Create(device.get(), layout).ValueOrDie();
  EXPECT_EQ(log->LatestBatch(), 0u);
  EXPECT_EQ(log->UsedBytes(), 0u);
  int calls = 0;
  ASSERT_TRUE(log->Replay(100, [&](auto, auto, auto) { ++calls; }).ok());
  EXPECT_EQ(calls, 0);
}

TEST(CheckpointLogTest, AppendAndReplayRoundTrip) {
  auto device = MakeDevice();
  EntryLayout layout(4, 0);
  auto log = CheckpointLog::Create(device.get(), layout).ValueOrDie();
  auto records = MakeRecords(layout, {1, 2, 3}, 5, 10.0f);
  ASSERT_TRUE(log->AppendChunk(5, records.data(), 3).ok());
  EXPECT_EQ(log->LatestBatch(), 5u);

  std::map<uint64_t, float> seen;
  ASSERT_TRUE(log->Replay(5, [&](uint64_t key, uint64_t version,
                                 const float* data) {
                   EXPECT_EQ(version, 5u);
                   seen[key] = data[0];
                 })
                  .ok());
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_FLOAT_EQ(seen[1], 10.0f);
}

TEST(CheckpointLogTest, ReplayFiltersByBatch) {
  auto device = MakeDevice();
  EntryLayout layout(4, 0);
  auto log = CheckpointLog::Create(device.get(), layout).ValueOrDie();
  auto r1 = MakeRecords(layout, {1}, 1, 1.0f);
  auto r2 = MakeRecords(layout, {1}, 2, 2.0f);
  ASSERT_TRUE(log->AppendChunk(1, r1.data(), 1).ok());
  ASSERT_TRUE(log->AppendChunk(2, r2.data(), 1).ok());

  float last = 0;
  ASSERT_TRUE(
      log->Replay(1, [&](auto, auto, const float* d) { last = d[0]; }).ok());
  EXPECT_FLOAT_EQ(last, 1.0f);
  ASSERT_TRUE(
      log->Replay(2, [&](auto, auto, const float* d) { last = d[0]; }).ok());
  EXPECT_FLOAT_EQ(last, 2.0f);  // later chunk replayed last -> overrides
}

TEST(CheckpointLogTest, UncommittedChunkInvisibleAfterCrash) {
  auto device = MakeDevice();
  EntryLayout layout(4, 0);
  {
    auto log = CheckpointLog::Create(device.get(), layout).ValueOrDie();
    auto r1 = MakeRecords(layout, {1, 2}, 1, 1.0f);
    ASSERT_TRUE(log->AppendChunk(1, r1.data(), 2).ok());
  }
  device->SimulateCrash();
  auto log = CheckpointLog::Open(device.get(), layout).ValueOrDie();
  EXPECT_EQ(log->LatestBatch(), 1u);
  int count = 0;
  ASSERT_TRUE(log->Replay(1, [&](auto, auto, auto) { ++count; }).ok());
  EXPECT_EQ(count, 2);
}

TEST(CheckpointLogTest, OutOfSpaceReported) {
  auto device = MakeDevice({.size_bytes = 1 << 12});
  EntryLayout layout(16, 0);
  auto log = CheckpointLog::Create(device.get(), layout).ValueOrDie();
  std::vector<uint64_t> keys(200);
  std::iota(keys.begin(), keys.end(), 0);
  auto records = MakeRecords(layout, keys, 1, 0.0f);
  auto status = log->AppendChunk(1, records.data(), keys.size());
  EXPECT_TRUE(status.IsOutOfSpace());
}

// ChunkWriter splits a record stream into chunks of kChunkRecords, all
// tagged with one batch, and Replay returns the records in write order.
TEST(CheckpointLogTest, ChunkWriterSplitsAndReplaysInOrder) {
  auto device = MakeDevice();
  EntryLayout layout(4, 0);
  auto log = CheckpointLog::Create(device.get(), layout).ValueOrDie();
  constexpr uint64_t kRecords = CheckpointLog::ChunkWriter::kChunkRecords + 1;
  CheckpointLog::ChunkWriter writer(log.get(), 7);
  for (uint64_t key = 0; key < kRecords; ++key) {
    uint8_t* record = writer.Next();
    EntryLayout::SetRecordHeader(record, key, 1);
    std::fill_n(EntryLayout::RecordData(record), 4, static_cast<float>(key));
  }
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(log->LatestBatch(), 7u);
  // Two chunk headers (32 bytes each) plus every record.
  EXPECT_EQ(log->UsedBytes(), 2 * 32 + kRecords * layout.record_bytes());
  std::vector<uint64_t> replayed;
  ASSERT_TRUE(log->Replay(7, [&](uint64_t key, uint64_t, const float* data) {
                    EXPECT_EQ(data[0], static_cast<float>(key));
                    replayed.push_back(key);
                  }).ok());
  ASSERT_EQ(replayed.size(), kRecords);
  for (uint64_t i = 0; i < kRecords; ++i) EXPECT_EQ(replayed[i], i);
}

// Once an append fails the writer appends nothing more, even a tail chunk
// that would fit, and Finish reports the first error.
TEST(CheckpointLogTest, ChunkWriterFailureIsSticky) {
  auto device = MakeDevice({.size_bytes = 1 << 16});
  EntryLayout layout(4, 0);
  auto log = CheckpointLog::Create(device.get(), layout).ValueOrDie();
  CheckpointLog::ChunkWriter writer(log.get(), 1);
  for (uint64_t key = 0; key <= CheckpointLog::ChunkWriter::kChunkRecords;
       ++key) {
    EntryLayout::SetRecordHeader(writer.Next(), key, 1);
  }
  EXPECT_FALSE(writer.ok());  // the full first chunk did not fit
  EXPECT_TRUE(writer.Finish().IsOutOfSpace());
  EXPECT_EQ(log->UsedBytes(), 0u);
  EXPECT_EQ(log->LatestBatch(), 0u);
}

TEST(CheckpointLogTest, OpenRejectsWrongLayout) {
  auto device = MakeDevice();
  EntryLayout layout(4, 0);
  { auto log = CheckpointLog::Create(device.get(), layout).ValueOrDie(); }
  EntryLayout other(8, 0);
  EXPECT_FALSE(CheckpointLog::Open(device.get(), other).ok());
}

TEST(CheckpointLogTest, OpenRejectsUnformattedDevice) {
  auto device = MakeDevice();
  EntryLayout layout(4, 0);
  EXPECT_FALSE(CheckpointLog::Open(device.get(), layout).ok());
}

TEST(CheckpointLogTest, CorruptionDetectedByCrc) {
  auto device = MakeDevice();
  EntryLayout layout(4, 0);
  auto log = CheckpointLog::Create(device.get(), layout).ValueOrDie();
  auto records = MakeRecords(layout, {1, 2, 3}, 1, 1.0f);
  ASSERT_TRUE(log->AppendChunk(1, records.data(), 3).ok());
  // Flip a payload byte behind the log's back.
  device->base()[64 + 32 + 20] ^= 0xff;
  auto status = log->Replay(1, [](auto, auto, auto) {});
  EXPECT_TRUE(status.IsCorruption());
}

// ---------- Ori-Cache specific behaviour ----------

storage::StoreConfig OriConfig() {
  storage::StoreConfig config = oe::test::SmallConfig();
  config.cache_bytes = 4 * 1024;
  return config;
}

struct OriFixture {
  std::unique_ptr<PmemDevice> store_device = MakeDevice();
  std::unique_ptr<PmemDevice> log_device = MakeDevice();
  std::unique_ptr<CheckpointLog> log;
  std::unique_ptr<storage::OriCacheStore> store;

  explicit OriFixture(const storage::StoreConfig& config = OriConfig()) {
    EntryLayout layout(config.dim, config.optimizer.Slots());
    log = CheckpointLog::Create(log_device.get(), layout).ValueOrDie();
    store = storage::OriCacheStore::Create(config, store_device.get(),
                                           log.get())
                .ValueOrDie();
  }
};

TEST(OriCacheStoreTest, SyncOpsGrowPerAccess) {
  OriFixture f;
  std::vector<uint64_t> keys = {1, 2, 3, 4};
  std::vector<float> w(keys.size() * 8);
  ASSERT_TRUE(f.store->Pull(keys.data(), keys.size(), 1, w.data()).ok());
  const uint64_t after_pull = f.store->sync_ops();
  EXPECT_GE(after_pull, 2 * keys.size());  // hash op + LRU op per key
  std::vector<float> g(keys.size() * 8, 0.1f);
  ASSERT_TRUE(f.store->Push(keys.data(), keys.size(), g.data(), 1).ok());
  // Push touches the LRU again: "pair operations ... two independent
  // operations in cache".
  EXPECT_GE(f.store->sync_ops(), after_pull + 2 * keys.size());
}

TEST(OriCacheStoreTest, EvictionWritesBackSynchronously) {
  OriFixture f;
  const size_t capacity = f.store->CacheCapacityEntries();
  std::vector<uint64_t> keys(capacity * 2);
  std::iota(keys.begin(), keys.end(), 0);
  std::vector<float> w(keys.size() * 8);
  ASSERT_TRUE(f.store->Pull(keys.data(), keys.size(), 1, w.data()).ok());
  EXPECT_LE(f.store->CachedEntries(), capacity);
  EXPECT_GT(f.store->stats().evictions.load(), 0u);
  // Evicted entries still readable with correct values.
  for (uint64_t key : keys) {
    EXPECT_TRUE(f.store->Peek(key).ok()) << key;
  }
}

TEST(OriCacheStoreTest, CheckpointRecoverRoundTrip) {
  OriFixture f;
  std::vector<uint64_t> keys = {10, 20, 30};
  std::vector<float> w(keys.size() * 8);
  ASSERT_TRUE(f.store->Pull(keys.data(), keys.size(), 1, w.data()).ok());
  std::vector<float> g(keys.size() * 8, 0.25f);
  ASSERT_TRUE(f.store->Push(keys.data(), keys.size(), g.data(), 1).ok());
  ASSERT_TRUE(f.store->RequestCheckpoint(1).ok());
  auto expected = f.store->Peek(10).ValueOrDie();

  // Post-checkpoint noise.
  ASSERT_TRUE(f.store->Pull(keys.data(), keys.size(), 2, w.data()).ok());
  ASSERT_TRUE(f.store->Push(keys.data(), keys.size(), g.data(), 2).ok());

  f.store_device->SimulateCrash();
  ASSERT_TRUE(f.store->RecoverFromCrash().ok());
  EXPECT_EQ(f.store->PublishedCheckpoint(), 1u);
  EXPECT_EQ(f.store->EntryCount(), keys.size());
  EXPECT_EQ(f.store->Peek(10).ValueOrDie(), expected);
}

TEST(OriCacheStoreTest, CheckpointCopiesScaleWithDirtySet) {
  OriFixture f;
  std::vector<uint64_t> keys(50);
  std::iota(keys.begin(), keys.end(), 0);
  std::vector<float> w(keys.size() * 8);
  ASSERT_TRUE(f.store->Pull(keys.data(), keys.size(), 1, w.data()).ok());
  ASSERT_TRUE(f.store->RequestCheckpoint(1).ok());
  const uint64_t full = f.log->UsedBytes();

  std::vector<float> g(8, 0.1f);
  ASSERT_TRUE(f.store->Pull(keys.data(), 1, 2, w.data()).ok());
  ASSERT_TRUE(f.store->Push(keys.data(), 1, g.data(), 2).ok());
  ASSERT_TRUE(f.store->RequestCheckpoint(2).ok());
  EXPECT_LT(f.log->UsedBytes() - full, full / 4);
}


}  // namespace
}  // namespace oe::ckpt
