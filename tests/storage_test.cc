#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <map>
#include <numeric>
#include <thread>
#include <tuple>
#include <vector>

#include "ckpt/checkpoint_log.h"
#include "common/random.h"
#include "pmem/device.h"
#include "pmem/pool.h"
#include "pmem/slab_allocator.h"
#include "storage/dram_store.h"
#include "storage/ori_cache_store.h"
#include "storage/pipelined_store.h"
#include "storage/pmem_hash_store.h"
#include "test_util.h"

namespace oe::storage {
namespace {

using oe::test::MakeDevice;
using pmem::CrashFidelity;
using pmem::PmemDevice;
using pmem::PmemDeviceOptions;

constexpr uint32_t kDim = oe::test::kSmallDim;

StoreConfig SmallConfig() {
  StoreConfig config = oe::test::SmallConfig();
  config.initializer.kind = InitializerKind::kUniform;
  config.initializer.scale = 0.1f;  // nonzero init so fresh pulls differ
  return config;
}

// ---------- Optimizer unit tests ----------

TEST(OptimizerTest, SgdStep) {
  OptimizerSpec spec;
  spec.kind = OptimizerKind::kSgd;
  spec.learning_rate = 0.1f;
  float w[2] = {1.0f, -1.0f};
  float g[2] = {1.0f, 2.0f};
  spec.Apply(w, nullptr, g, 2, 1);
  EXPECT_FLOAT_EQ(w[0], 0.9f);
  EXPECT_FLOAT_EQ(w[1], -1.2f);
}

TEST(OptimizerTest, AdaGradAccumulates) {
  OptimizerSpec spec;
  spec.kind = OptimizerKind::kAdaGrad;
  spec.learning_rate = 1.0f;
  EXPECT_EQ(spec.Slots(), 1u);
  float w[1] = {0.0f};
  float acc[1] = {0.0f};
  float g[1] = {2.0f};
  spec.Apply(w, acc, g, 1, 1);
  EXPECT_FLOAT_EQ(acc[0], 4.0f);
  EXPECT_NEAR(w[0], -1.0f, 1e-5);  // -lr * 2/sqrt(4)
  spec.Apply(w, acc, g, 1, 2);
  EXPECT_FLOAT_EQ(acc[0], 8.0f);  // second step accumulates
}

TEST(OptimizerTest, AdamMovesTowardGradientDirection) {
  OptimizerSpec spec;
  spec.kind = OptimizerKind::kAdam;
  spec.learning_rate = 0.01f;
  EXPECT_EQ(spec.Slots(), 2u);
  float w[1] = {1.0f};
  float state[2] = {0.0f, 0.0f};
  float g[1] = {1.0f};
  for (uint64_t step = 1; step <= 10; ++step) {
    spec.Apply(w, state, g, 1, step);
  }
  EXPECT_LT(w[0], 1.0f);  // positive gradient decreases the weight
  EXPECT_GT(state[0], 0.0f);
  EXPECT_GT(state[1], 0.0f);
}

TEST(InitializerTest, DeterministicPerKey) {
  InitializerSpec spec;
  spec.kind = InitializerKind::kUniform;
  spec.scale = 0.5f;
  float a[4], b[4], c[4];
  spec.Fill(7, a, 4);
  spec.Fill(7, b, 4);
  spec.Fill(8, c, 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(a[i], b[i]);
    EXPECT_GE(a[i], -0.5f);
    EXPECT_LE(a[i], 0.5f);
  }
  bool any_diff = false;
  for (int i = 0; i < 4; ++i) any_diff |= (a[i] != c[i]);
  EXPECT_TRUE(any_diff);
}

TEST(InitializerTest, ZerosKind) {
  InitializerSpec spec;
  spec.kind = InitializerKind::kZeros;
  float a[4] = {9, 9, 9, 9};
  spec.Fill(1, a, 4);
  for (float v : a) EXPECT_EQ(v, 0.0f);
}

TEST(EntryLayoutTest, SizesAndAccessors) {
  EntryLayout layout(64, 1);
  EXPECT_EQ(layout.values_per_entry(), 128u);
  EXPECT_EQ(layout.data_bytes(), 512u);
  EXPECT_EQ(layout.record_bytes(), 528u);
  std::vector<uint8_t> rec(layout.record_bytes());
  EntryLayout::SetRecordHeader(rec.data(), 42, 7);
  EXPECT_EQ(EntryLayout::RecordKey(rec.data()), 42u);
  EXPECT_EQ(EntryLayout::RecordVersion(rec.data()), 7u);
  EntryLayout::SetRecordVersion(rec.data(), 9);
  EXPECT_EQ(EntryLayout::RecordVersion(rec.data()), 9u);
}

// ---------- Shared behavioural tests over both engines ----------

enum class Engine {
  kDram,
  kPipelined,
  kPipelinedNoPipe,
  kPipelinedNoCache,
  kOriCache,
  kPmemHash,
};

struct EngineFixture {
  std::unique_ptr<PmemDevice> store_device;
  std::unique_ptr<PmemDevice> log_device;
  std::unique_ptr<ckpt::CheckpointLog> log;
  std::unique_ptr<EmbeddingStore> store;
};

EngineFixture MakeEngine(Engine engine, StoreConfig config = SmallConfig()) {
  EngineFixture fixture;
  switch (engine) {
    case Engine::kDram: {
      fixture.log_device = MakeDevice();
      EntryLayout layout(config.dim, config.optimizer.Slots());
      fixture.log =
          ckpt::CheckpointLog::Create(fixture.log_device.get(), layout)
              .ValueOrDie();
      fixture.store = DramStore::Create(config, fixture.log.get()).ValueOrDie();
      break;
    }
    case Engine::kPipelined:
      fixture.store_device = MakeDevice();
      fixture.store =
          PipelinedStore::Create(config, fixture.store_device.get())
              .ValueOrDie();
      break;
    case Engine::kPipelinedNoPipe:
      config.pipeline_enabled = false;
      fixture.store_device = MakeDevice();
      fixture.store =
          PipelinedStore::Create(config, fixture.store_device.get())
              .ValueOrDie();
      break;
    case Engine::kPipelinedNoCache:
      config.cache_enabled = false;
      fixture.store_device = MakeDevice();
      fixture.store =
          PipelinedStore::Create(config, fixture.store_device.get())
              .ValueOrDie();
      break;
    case Engine::kOriCache: {
      fixture.store_device = MakeDevice();
      fixture.log_device = MakeDevice();
      EntryLayout layout(config.dim, config.optimizer.Slots());
      fixture.log =
          ckpt::CheckpointLog::Create(fixture.log_device.get(), layout)
              .ValueOrDie();
      fixture.store = OriCacheStore::Create(config, fixture.store_device.get(),
                                            fixture.log.get())
                          .ValueOrDie();
      break;
    }
    case Engine::kPmemHash:
      fixture.store_device = MakeDevice();
      fixture.store =
          PmemHashStore::Create(config, fixture.store_device.get())
              .ValueOrDie();
      break;
  }
  return fixture;
}

class StoreBehaviorTest : public ::testing::TestWithParam<Engine> {};

TEST_P(StoreBehaviorTest, PullInitializesDeterministically) {
  auto fixture = MakeEngine(GetParam());
  std::vector<EntryId> keys = {1, 2, 3};
  std::vector<float> out(keys.size() * kDim);
  ASSERT_TRUE(fixture.store->Pull(keys.data(), keys.size(), 1, out.data()).ok());

  // Same keys from a second engine instance produce identical weights.
  auto fixture2 = MakeEngine(GetParam());
  std::vector<float> out2(out.size());
  ASSERT_TRUE(
      fixture2.store->Pull(keys.data(), keys.size(), 1, out2.data()).ok());
  EXPECT_EQ(out, out2);
  EXPECT_EQ(fixture.store->EntryCount(), 3u);
}

TEST_P(StoreBehaviorTest, PushAppliesSgd) {
  auto fixture = MakeEngine(GetParam());
  EntryId key = 77;
  std::vector<float> before(kDim);
  ASSERT_TRUE(fixture.store->Pull(&key, 1, 1, before.data()).ok());
  fixture.store->FinishPullPhase(1);
  std::vector<float> grad(kDim, 1.0f);
  ASSERT_TRUE(fixture.store->Push(&key, 1, grad.data(), 1).ok());

  auto after = fixture.store->Peek(key);
  ASSERT_TRUE(after.ok());
  for (uint32_t i = 0; i < kDim; ++i) {
    EXPECT_NEAR(after.value()[i], before[i] - 0.5f, 1e-5);  // lr = 0.5
  }
}

TEST_P(StoreBehaviorTest, PushUnknownKeyFails) {
  auto fixture = MakeEngine(GetParam());
  EntryId key = 1;
  std::vector<float> grad(kDim, 1.0f);
  EXPECT_FALSE(fixture.store->Push(&key, 1, grad.data(), 1).ok());
}

TEST_P(StoreBehaviorTest, ManyBatchesConvergeLikeReference) {
  // Train every engine the same way; all must produce identical weights
  // (the engines differ in placement and durability, not math).
  auto fixture = MakeEngine(GetParam());
  Random rng(42);
  const size_t kKeys = 64;
  std::map<EntryId, std::vector<float>> reference;

  for (uint64_t batch = 1; batch <= 20; ++batch) {
    std::vector<EntryId> keys;
    for (int i = 0; i < 16; ++i) keys.push_back(rng.Uniform(kKeys));
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

    std::vector<float> weights(keys.size() * kDim);
    ASSERT_TRUE(fixture.store
                    ->Pull(keys.data(), keys.size(), batch, weights.data())
                    .ok());
    fixture.store->FinishPullPhase(batch);

    std::vector<float> grads(keys.size() * kDim);
    for (auto& g : grads) g = rng.UniformFloat(-0.1f, 0.1f);
    ASSERT_TRUE(fixture.store
                    ->Push(keys.data(), keys.size(), grads.data(), batch)
                    .ok());

    // Maintain an independent reference model.
    for (size_t i = 0; i < keys.size(); ++i) {
      auto& ref = reference[keys[i]];
      if (ref.empty()) {
        ref.resize(kDim);
        SmallConfig().initializer.Fill(keys[i], ref.data(), kDim);
      }
      for (uint32_t d = 0; d < kDim; ++d) {
        ref[d] -= 0.5f * grads[i * kDim + d];
      }
    }
  }

  for (const auto& [key, ref] : reference) {
    auto got = fixture.store->Peek(key);
    ASSERT_TRUE(got.ok()) << key;
    for (uint32_t d = 0; d < kDim; ++d) {
      EXPECT_NEAR(got.value()[d], ref[d], 1e-4) << "key " << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, StoreBehaviorTest,
                         ::testing::Values(Engine::kDram, Engine::kPipelined,
                                           Engine::kPipelinedNoPipe,
                                           Engine::kPipelinedNoCache,
                                           Engine::kOriCache,
                                           Engine::kPmemHash),
                         [](const auto& info) {
                           switch (info.param) {
                             case Engine::kDram:
                               return "DramPs";
                             case Engine::kPipelined:
                               return "PmemOe";
                             case Engine::kPipelinedNoPipe:
                               return "PmemOeNoPipeline";
                             case Engine::kPipelinedNoCache:
                               return "PmemOeNoCache";
                             case Engine::kOriCache:
                               return "OriCache";
                             case Engine::kPmemHash:
                               return "PmemHash";
                           }
                           return "Unknown";
                         });

// ---------- DramStore-specific: incremental checkpoint + recovery ----------

TEST(DramStoreTest, CheckpointAndRecoverRoundTrip) {
  auto fixture = MakeEngine(Engine::kDram);
  std::vector<EntryId> keys = {10, 20, 30};
  std::vector<float> w(keys.size() * kDim);
  ASSERT_TRUE(fixture.store->Pull(keys.data(), keys.size(), 1, w.data()).ok());
  std::vector<float> g(keys.size() * kDim, 0.2f);
  ASSERT_TRUE(fixture.store->Push(keys.data(), keys.size(), g.data(), 1).ok());
  ASSERT_TRUE(fixture.store->RequestCheckpoint(1).ok());
  EXPECT_EQ(fixture.store->PublishedCheckpoint(), 1u);

  auto expected = fixture.store->Peek(10).ValueOrDie();

  // Updates after the checkpoint must vanish on recovery.
  ASSERT_TRUE(fixture.store->Pull(keys.data(), keys.size(), 2, w.data()).ok());
  ASSERT_TRUE(fixture.store->Push(keys.data(), keys.size(), g.data(), 2).ok());
  ASSERT_TRUE(fixture.store->RecoverFromCrash().ok());

  EXPECT_EQ(fixture.store->EntryCount(), 3u);
  auto recovered = fixture.store->Peek(10).ValueOrDie();
  EXPECT_EQ(recovered, expected);
}

TEST(DramStoreTest, IncrementalCheckpointOnlyCopiesDirty) {
  auto fixture = MakeEngine(Engine::kDram);
  std::vector<EntryId> keys(100);
  std::iota(keys.begin(), keys.end(), 0);
  std::vector<float> w(keys.size() * kDim);
  ASSERT_TRUE(fixture.store->Pull(keys.data(), keys.size(), 1, w.data()).ok());
  ASSERT_TRUE(fixture.store->RequestCheckpoint(1).ok());
  const uint64_t after_full = fixture.log->UsedBytes();

  // Touch only 5 entries; the next checkpoint should be much smaller.
  std::vector<float> g(5 * kDim, 0.1f);
  ASSERT_TRUE(fixture.store->Pull(keys.data(), 5, 2, w.data()).ok());
  ASSERT_TRUE(fixture.store->Push(keys.data(), 5, g.data(), 2).ok());
  ASSERT_TRUE(fixture.store->RequestCheckpoint(2).ok());
  const uint64_t delta = fixture.log->UsedBytes() - after_full;
  EXPECT_LT(delta, after_full / 10);
}

TEST(DramStoreTest, RecoverWithoutLogFails) {
  auto store = DramStore::Create(SmallConfig(), nullptr).ValueOrDie();
  EXPECT_FALSE(store->RecoverFromCrash().ok());
  EXPECT_FALSE(store->RequestCheckpoint(1).ok());
}

// ---------- PipelinedStore-specific ----------

class PipelinedStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = MakeDevice();
    config_ = SmallConfig();
    store_ = PipelinedStore::Create(config_, device_.get()).ValueOrDie();
  }

  // One synchronous training batch over `keys` with constant gradient g.
  void RunBatch(uint64_t batch, const std::vector<EntryId>& keys, float g) {
    std::vector<float> w(keys.size() * kDim);
    ASSERT_TRUE(
        store_->Pull(keys.data(), keys.size(), batch, w.data()).ok());
    store_->FinishPullPhase(batch);
    std::vector<float> grads(keys.size() * kDim, g);
    ASSERT_TRUE(
        store_->Push(keys.data(), keys.size(), grads.data(), batch).ok());
  }

  std::unique_ptr<PmemDevice> device_;
  StoreConfig config_;
  std::unique_ptr<PipelinedStore> store_;
};

TEST_F(PipelinedStoreTest, CacheCapacityMatchesBudget) {
  EntryLayout layout(kDim, 0);
  EXPECT_EQ(store_->CacheCapacityEntries(),
            config_.cache_bytes / layout.record_bytes());
}

TEST_F(PipelinedStoreTest, EvictionKeepsCacheWithinCapacity) {
  const size_t capacity = store_->CacheCapacityEntries();
  std::vector<EntryId> keys(capacity * 3);
  std::iota(keys.begin(), keys.end(), 0);
  RunBatch(1, keys, 0.0f);
  store_->WaitMaintenance(1);
  EXPECT_LE(store_->CachedEntries(), capacity);
  EXPECT_GT(store_->stats().evictions.load(), 0u);
  EXPECT_EQ(store_->EntryCount(), keys.size());
}

TEST_F(PipelinedStoreTest, EvictedEntriesReadBackFromPmem) {
  const size_t capacity = store_->CacheCapacityEntries();
  std::vector<EntryId> keys(capacity * 2);
  std::iota(keys.begin(), keys.end(), 0);
  RunBatch(1, keys, 0.25f);
  store_->WaitMaintenance(1);

  // Every key must still return its updated value, cached or not.
  for (EntryId key : keys) {
    std::vector<float> init(kDim);
    config_.initializer.Fill(key, init.data(), kDim);
    auto got = store_->Peek(key).ValueOrDie();
    for (uint32_t d = 0; d < kDim; ++d) {
      EXPECT_NEAR(got[d], init[d] - 0.5f * 0.25f, 1e-5) << key;
    }
  }
  EXPECT_GT(store_->stats().flushes.load(), 0u);
}

TEST_F(PipelinedStoreTest, HitRateHighForRepeatedKeys) {
  std::vector<EntryId> keys = {1, 2, 3, 4};
  for (uint64_t batch = 1; batch <= 10; ++batch) RunBatch(batch, keys, 0.0f);
  // First batch misses (first touch) then all hits.
  EXPECT_GT(store_->stats_snapshot().HitRate(), 0.85);
}

TEST_F(PipelinedStoreTest, CheckpointRequestIsLightweight) {
  std::vector<EntryId> keys = {1, 2, 3};
  RunBatch(1, keys, 0.1f);
  const uint64_t flushes_before = store_->stats().flushes.load();
  ASSERT_TRUE(store_->RequestCheckpoint(1).ok());
  // Only the request is enqueued: no data movement yet.
  EXPECT_EQ(store_->stats().flushes.load(), flushes_before);
  EXPECT_EQ(store_->PublishedCheckpoint(), 0u);
}

TEST_F(PipelinedStoreTest, CheckpointPublishesViaEvictionPressure) {
  const size_t capacity = store_->CacheCapacityEntries();
  std::vector<EntryId> hot(capacity / 2);
  std::iota(hot.begin(), hot.end(), 0);
  RunBatch(1, hot, 0.1f);
  ASSERT_TRUE(store_->RequestCheckpoint(1).ok());

  // Subsequent batches over fresh keys force eviction; the victims carry
  // versions > 1 eventually, publishing checkpoint 1.
  EntryId next = 1000;
  for (uint64_t batch = 2; batch <= 6; ++batch) {
    std::vector<EntryId> keys(capacity);
    std::iota(keys.begin(), keys.end(), next);
    next += capacity;
    RunBatch(batch, keys, 0.1f);
  }
  store_->WaitMaintenance(6);
  EXPECT_EQ(store_->PublishedCheckpoint(), 1u);
}

TEST_F(PipelinedStoreTest, DrainCheckpointsPublishesAll) {
  std::vector<EntryId> keys = {1, 2, 3};
  RunBatch(1, keys, 0.1f);
  ASSERT_TRUE(store_->RequestCheckpoint(1).ok());
  RunBatch(2, keys, 0.1f);
  ASSERT_TRUE(store_->RequestCheckpoint(2).ok());
  ASSERT_TRUE(store_->DrainCheckpoints().ok());
  EXPECT_EQ(store_->PublishedCheckpoint(), 2u);
}

TEST_F(PipelinedStoreTest, CheckpointIdsMustIncrease) {
  std::vector<EntryId> keys = {1};
  RunBatch(1, keys, 0.1f);
  RunBatch(2, keys, 0.1f);
  ASSERT_TRUE(store_->RequestCheckpoint(2).ok());
  EXPECT_FALSE(store_->RequestCheckpoint(2).ok());
  EXPECT_FALSE(store_->RequestCheckpoint(1).ok());
}

TEST_F(PipelinedStoreTest, StaleCheckpointRequestRejected) {
  // A checkpoint of batch 1's state requested after batch 3 has trained
  // would publish an inconsistent snapshot (batch 1 state may already be
  // overwritten in place): the store must refuse.
  std::vector<EntryId> keys = {1, 2};
  RunBatch(1, keys, 0.1f);
  RunBatch(2, keys, 0.1f);
  RunBatch(3, keys, 0.1f);
  auto status = store_->RequestCheckpoint(1);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  // The current batch is still checkpointable.
  EXPECT_TRUE(store_->RequestCheckpoint(3).ok());
  ASSERT_TRUE(store_->DrainCheckpoints().ok());
  EXPECT_EQ(store_->PublishedCheckpoint(), 3u);
}

TEST_F(PipelinedStoreTest, RecoveryRestoresExactCheckpointState) {
  std::vector<EntryId> keys = {5, 6, 7, 8};
  RunBatch(1, keys, 0.1f);
  RunBatch(2, keys, 0.2f);
  ASSERT_TRUE(store_->RequestCheckpoint(2).ok());
  ASSERT_TRUE(store_->DrainCheckpoints().ok());

  std::map<EntryId, std::vector<float>> expected;
  for (EntryId key : keys) expected[key] = store_->Peek(key).ValueOrDie();

  // Post-checkpoint batches that must vanish.
  RunBatch(3, keys, 0.7f);
  RunBatch(4, keys, -0.3f);

  device_->SimulateCrash();
  ASSERT_TRUE(store_->RecoverFromCrash().ok());
  EXPECT_EQ(store_->PublishedCheckpoint(), 2u);
  EXPECT_EQ(store_->EntryCount(), keys.size());
  for (EntryId key : keys) {
    auto got = store_->Peek(key).ValueOrDie();
    for (uint32_t d = 0; d < kDim; ++d) {
      EXPECT_NEAR(got[d], expected[key][d], 1e-6) << key;
    }
  }
}

TEST_F(PipelinedStoreTest, RecoveryWithoutCheckpointYieldsEmptyModel) {
  std::vector<EntryId> keys = {1, 2, 3};
  RunBatch(1, keys, 0.1f);
  device_->SimulateCrash();
  ASSERT_TRUE(store_->RecoverFromCrash().ok());
  EXPECT_EQ(store_->PublishedCheckpoint(), 0u);
  EXPECT_EQ(store_->EntryCount(), 0u);
}

TEST_F(PipelinedStoreTest, EntriesCreatedAfterCheckpointVanishOnRecovery) {
  std::vector<EntryId> old_keys = {1, 2};
  RunBatch(1, old_keys, 0.1f);
  ASSERT_TRUE(store_->RequestCheckpoint(1).ok());
  ASSERT_TRUE(store_->DrainCheckpoints().ok());

  std::vector<EntryId> new_keys = {100, 200};
  RunBatch(2, new_keys, 0.1f);

  device_->SimulateCrash();
  ASSERT_TRUE(store_->RecoverFromCrash().ok());
  EXPECT_EQ(store_->EntryCount(), 2u);
  EXPECT_TRUE(store_->Peek(1).ok());
  EXPECT_FALSE(store_->Peek(100).ok());
}

TEST_F(PipelinedStoreTest, TrainingContinuesAfterRecovery) {
  std::vector<EntryId> keys = {1, 2, 3};
  RunBatch(1, keys, 0.1f);
  ASSERT_TRUE(store_->RequestCheckpoint(1).ok());
  ASSERT_TRUE(store_->DrainCheckpoints().ok());
  device_->SimulateCrash();
  ASSERT_TRUE(store_->RecoverFromCrash().ok());

  // Resume from batch 2.
  RunBatch(2, keys, 0.2f);
  ASSERT_TRUE(store_->RequestCheckpoint(2).ok());
  ASSERT_TRUE(store_->DrainCheckpoints().ok());
  EXPECT_EQ(store_->PublishedCheckpoint(), 2u);
}

TEST_F(PipelinedStoreTest, SpaceReclaimedAfterPublish) {
  // Flushing the same keys across many checkpoints must not leak PMem:
  // superseded records are freed when a newer checkpoint publishes.
  std::vector<EntryId> keys = {1, 2, 3, 4};
  RunBatch(1, keys, 0.1f);
  ASSERT_TRUE(store_->RequestCheckpoint(1).ok());
  ASSERT_TRUE(store_->DrainCheckpoints().ok());
  const uint64_t baseline = store_->pool()->AllocatedBytes();

  for (uint64_t batch = 2; batch <= 12; ++batch) {
    RunBatch(batch, keys, 0.1f);
    ASSERT_TRUE(store_->RequestCheckpoint(batch).ok());
    ASSERT_TRUE(store_->DrainCheckpoints().ok());
  }
  // At most a bounded number of live records per key (current + one
  // deferred), never 11 generations.
  EXPECT_LE(store_->pool()->AllocatedBytes(), baseline * 3);
}

TEST_F(PipelinedStoreTest, MultiGetMixesUnknownKeysWithSnapshotReads) {
  const size_t capacity = store_->CacheCapacityEntries();
  std::vector<EntryId> known(capacity / 2);
  std::iota(known.begin(), known.end(), 0);
  RunBatch(1, known, 0.1f);
  ASSERT_TRUE(store_->RequestCheckpoint(1).ok());
  ASSERT_TRUE(store_->DrainCheckpoints().ok());
  std::map<EntryId, std::vector<float>> at_checkpoint;
  for (EntryId key : known) at_checkpoint[key] = store_->Peek(key).ValueOrDie();

  // Batch 2 moves every known key past the checkpoint; fresh keys then
  // evict them, so their flushed records are newer than checkpoint 1 and
  // only the GC still holds the records it serves.
  RunBatch(2, known, 0.3f);
  EntryId next = 1000;
  for (uint64_t batch = 3; batch <= 5; ++batch) {
    std::vector<EntryId> fresh(capacity);
    std::iota(fresh.begin(), fresh.end(), next);
    next += capacity;
    RunBatch(batch, fresh, 0.0f);
  }
  store_->WaitMaintenance(5);
  ASSERT_EQ(store_->PublishedCheckpoint(), 1u);
  ASSERT_GT(store_->SnapshotIndexRecords(), 0u);

  // Every known key sits between two keys the store has never seen.
  std::vector<EntryId> keys;
  for (EntryId key : known) {
    keys.push_back(1'000'000 + 2 * key);
    keys.push_back(key);
  }
  keys.push_back(1'000'000 + 2 * known.size());
  std::vector<float> out(keys.size() * kDim, -1.0f);
  std::vector<uint8_t> found(keys.size(), 2);
  uint64_t version = 0;
  ASSERT_TRUE(store_->MultiGet(keys.data(), keys.size(), out.data(),
                               found.data(), &version)
                  .ok());
  EXPECT_EQ(version, 1u);
  for (size_t i = 0; i < keys.size(); ++i) {
    const std::vector<float> row(out.begin() + i * kDim,
                                 out.begin() + (i + 1) * kDim);
    auto expected = at_checkpoint.find(keys[i]);
    if (expected == at_checkpoint.end()) {
      EXPECT_EQ(found[i], 0) << "key " << keys[i];
      EXPECT_EQ(row, std::vector<float>(kDim, 0.0f)) << "key " << keys[i];
    } else {
      EXPECT_EQ(found[i], 1) << "key " << keys[i];
      EXPECT_EQ(row, expected->second) << "key " << keys[i];
    }
  }
}

TEST_F(PipelinedStoreTest, ExportSkipsRecordsNewerThanCheckpoint) {
  // Every known key holds its checkpoint-1 record and a newer flushed one
  // that the GC keeps until a later checkpoint publishes; the fresh keys
  // hold only records newer than checkpoint 1.
  const size_t capacity = store_->CacheCapacityEntries();
  std::vector<EntryId> known(capacity / 2);
  std::iota(known.begin(), known.end(), 0);
  RunBatch(1, known, 0.1f);
  ASSERT_TRUE(store_->RequestCheckpoint(1).ok());
  ASSERT_TRUE(store_->DrainCheckpoints().ok());
  std::map<EntryId, std::vector<float>> at_checkpoint;
  for (EntryId key : known) at_checkpoint[key] = store_->Peek(key).ValueOrDie();
  RunBatch(2, known, 0.3f);
  EntryId next = 1000;
  for (uint64_t batch = 3; batch <= 5; ++batch) {
    std::vector<EntryId> fresh(capacity);
    std::iota(fresh.begin(), fresh.end(), next);
    next += capacity;
    RunBatch(batch, fresh, 0.0f);
  }
  store_->WaitMaintenance(5);
  ASSERT_EQ(store_->PublishedCheckpoint(), 1u);
  size_t records = 0;
  store_->ForEachEntryRecord([&](uint64_t, uint64_t) { ++records; });
  ASSERT_GT(records, known.size());

  auto log_device = MakeDevice();
  auto log = ckpt::CheckpointLog::Create(log_device.get(), EntryLayout(kDim, 0))
                 .ValueOrDie();
  ASSERT_TRUE(store_->ExportCheckpoint(log.get()).ok());
  std::map<EntryId, size_t> copies;
  ASSERT_TRUE(log->Replay(1, [&](EntryId key, uint64_t version,
                                 const float* data) {
                   ++copies[key];
                   EXPECT_EQ(version, 1u) << key;
                   auto want = at_checkpoint.find(key);
                   ASSERT_NE(want, at_checkpoint.end()) << key;
                   EXPECT_EQ(std::vector<float>(data, data + kDim),
                             want->second)
                       << key;
                 })
                  .ok());
  EXPECT_EQ(copies.size(), known.size());
  for (const auto& [key, n] : copies) EXPECT_EQ(n, 1u) << key;
}

// Recovery over a crafted image. The store starts empty; a checkpoint id
// and committed records are then written into its pool through a second
// slab allocator, and the store crashes and recovers. Several records
// <= cp of one key are the copies a crash leaves behind when a snapshot
// pin or an unpersisted free kept superseded records alive; records > cp
// are an unpublished tail.
class RecoveryClassificationTest : public PipelinedStoreTest {
 protected:
  static constexpr uint64_t kCp = 10;

  // The weights of key's record at `version`.
  static float Weight(EntryId key, uint64_t version) {
    return static_cast<float>(key * 100 + version);
  }

  // The version recovery must keep: the newest <= kCp, or 0 for none.
  static uint64_t NewestAtCheckpoint(const std::vector<uint64_t>& versions) {
    uint64_t newest = 0;
    for (uint64_t v : versions) {
      if (v <= kCp) newest = std::max(newest, v);
    }
    return newest;
  }

  pmem::SlabAllocatorOptions SlabOptions() const {
    pmem::SlabAllocatorOptions options;
    options.lanes = static_cast<uint32_t>(store_->NumShards());
    return options;
  }

  // Publishes kCp and commits a record per listed version of each key.
  // Keys take turns, so one key's records are not written back to back.
  void WriteImage(const std::map<EntryId, std::vector<uint64_t>>& image) {
    auto pool = pmem::PmemPool::Open(device_.get()).ValueOrDie();
    pool->RootSet(PipelinedStore::kRootCheckpointId, kCp);
    auto slab =
        pmem::SlabAllocator::Attach(pool.get(), SlabOptions()).ValueOrDie();
    const EntryLayout layout(kDim, 0);
    std::vector<uint8_t> record(layout.record_bytes());
    for (size_t turn = 0;; ++turn) {
      bool wrote = false;
      for (const auto& [key, versions] : image) {
        if (turn >= versions.size()) continue;
        EntryLayout::SetRecordHeader(record.data(), key, versions[turn]);
        float* data = EntryLayout::RecordData(record.data());
        std::fill(data, data + kDim, Weight(key, versions[turn]));
        ASSERT_TRUE(slab->AllocWrite(record.data(), record.size(),
                                     static_cast<uint32_t>(
                                         store_->ShardOfKey(key)))
                        .ok());
        wrote = true;
      }
      if (!wrote) break;
    }
  }

  // The PMem reads a recovery makes besides the record headers: the pool
  // reopen, the checkpoint root, the slab attach and its bitmap scan.
  pmem::DeviceStats::Snapshot ScanReads() {
    const auto before = device_->stats().TakeSnapshot();
    {
      auto pool = pmem::PmemPool::Open(device_.get()).ValueOrDie();
      pool->RootGet(PipelinedStore::kRootCheckpointId);
      auto slab =
          pmem::SlabAllocator::Attach(pool.get(), SlabOptions()).ValueOrDie();
      slab->ForEachAllocated([](uint64_t, uint64_t) {});
    }
    return device_->stats().TakeSnapshot() - before;
  }

  // Crashes and recovers; returns the PMem and DRAM charges of the
  // RecoverFromCrash call.
  std::pair<pmem::DeviceStats::Snapshot, pmem::DeviceStats::Snapshot>
  CrashAndRecover() {
    device_->SimulateCrash();
    const auto pmem_before = device_->stats().TakeSnapshot();
    const auto dram_before = store_->dram_stats().TakeSnapshot();
    EXPECT_TRUE(store_->RecoverFromCrash().ok());
    return {device_->stats().TakeSnapshot() - pmem_before,
            store_->dram_stats().TakeSnapshot() - dram_before};
  }

  size_t LiveRecords() const {
    size_t live = 0;
    store_->ForEachEntryRecord([&](uint64_t, uint64_t) { ++live; });
    return live;
  }
};

TEST_F(RecoveryClassificationTest, KeepsNewestRecordAtOrBelowCheckpoint) {
  ASSERT_EQ(store_->NumShards(), 16u);
  // Each key's versions in write order: below, at and above cp in both
  // orders, two below in both orders, only above, and one alone.
  const std::vector<std::vector<uint64_t>> patterns = {
      {kCp - 3, kCp, kCp + 2}, {kCp + 2, kCp, kCp - 3}, {kCp - 1, kCp - 4},
      {kCp - 4, kCp - 1},      {kCp + 1, kCp + 5},      {kCp - 2}};
  std::map<EntryId, std::vector<uint64_t>> image;
  for (EntryId key = 0; key < 96; ++key) {
    image[key] = patterns[key % patterns.size()];
  }
  WriteImage(image);
  CrashAndRecover();
  EXPECT_EQ(store_->PublishedCheckpoint(), kCp);

  std::map<EntryId, uint64_t> kept;
  for (const auto& [key, versions] : image) {
    const uint64_t newest = NewestAtCheckpoint(versions);
    auto got = store_->Peek(key);
    if (newest == 0) {
      EXPECT_FALSE(got.ok()) << key;
      continue;
    }
    kept[key] = newest;
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(got.value(), std::vector<float>(kDim, Weight(key, newest)))
        << key;
  }
  EXPECT_EQ(store_->EntryCount(), kept.size());
  // Every discarded record was freed.
  EXPECT_EQ(LiveRecords(), kept.size());

  auto log_device = MakeDevice();
  auto log = ckpt::CheckpointLog::Create(log_device.get(), EntryLayout(kDim, 0))
                 .ValueOrDie();
  ASSERT_TRUE(store_->ExportCheckpoint(log.get()).ok());
  std::map<EntryId, uint64_t> exported;
  ASSERT_TRUE(log->Replay(kCp, [&](EntryId key, uint64_t version,
                                   const float* data) {
                   EXPECT_TRUE(exported.emplace(key, version).second) << key;
                   EXPECT_EQ(data[0], Weight(key, version)) << key;
                 })
                  .ok());
  EXPECT_EQ(exported, kept);
}

TEST_F(RecoveryClassificationTest, ChargesOneHeaderReadPerRecord) {
  constexpr uint64_t kHeader = EntryLayout::kHeaderBytes;
  constexpr uint64_t kSlot = sizeof(EntryId) + sizeof(cache::TaggedPtr);
  // No duplicates: one header read per record, one index write per key.
  std::map<EntryId, std::vector<uint64_t>> image;
  for (EntryId key = 0; key < 64; ++key) image[key] = {kCp - 2};
  WriteImage(image);
  auto scan = ScanReads();
  auto [pmem, dram] = CrashAndRecover();
  EXPECT_EQ(pmem.read_ops, scan.read_ops + 64);
  EXPECT_EQ(pmem.read_bytes, scan.read_bytes + 64 * kHeader);
  EXPECT_EQ(dram.write_ops, 64u);
  EXPECT_EQ(dram.write_bytes, 64 * kSlot);
  EXPECT_EQ(dram.read_ops, 0u);

  // A second record per key: older, newer than cp, newer but <= cp, or
  // none. Each second record <= cp re-reads the kept record's header; each
  // discarded record costs its Free one bitmap-word read.
  std::map<EntryId, std::vector<uint64_t>> extra;
  for (EntryId key = 0; key < 64; ++key) {
    if (key % 4 == 0) extra[key] = {kCp - 5};
    if (key % 4 == 1) extra[key] = {kCp + 3};
    if (key % 4 == 2) extra[key] = {kCp};
  }
  WriteImage(extra);
  scan = ScanReads();
  std::tie(pmem, dram) = CrashAndRecover();
  const uint64_t headers = 64 + 48;
  const uint64_t rereads = 32;
  const uint64_t frees = 48;
  EXPECT_EQ(pmem.read_ops, scan.read_ops + headers + rereads + frees);
  EXPECT_EQ(pmem.read_bytes,
            scan.read_bytes + (headers + rereads) * kHeader + frees * 8);
  EXPECT_EQ(dram.write_ops, 64u);
  EXPECT_EQ(dram.write_bytes, 64 * kSlot);
  EXPECT_EQ(LiveRecords(), 64u);
  for (EntryId key = 0; key < 64; ++key) {
    const uint64_t want = key % 4 == 2 ? kCp : kCp - 2;
    EXPECT_EQ(store_->Peek(key).ValueOrDie(),
              std::vector<float>(kDim, Weight(key, want)))
        << key;
  }
}

TEST(PipelinedStoreCounterTest, PullAndPushCountEveryKeyExactly) {
  // AdaGrad, so an entry's DRAM footprint (weights + accumulator) differs
  // from the weights a pull copies out.
  StoreConfig config = SmallConfig();
  config.optimizer.kind = OptimizerKind::kAdaGrad;
  auto device = MakeDevice();
  auto store = PipelinedStore::Create(config, device.get()).ValueOrDie();
  const EntryLayout layout(kDim, config.optimizer.Slots());
  const uint64_t weight_bytes = kDim * sizeof(float);
  ASSERT_NE(weight_bytes, layout.data_bytes());

  // Batch 1 touches three caches' worth of keys, so after its maintenance
  // some stay cached and the rest are PMem-resident.
  std::vector<EntryId> warm(store->CacheCapacityEntries() * 3);
  std::iota(warm.begin(), warm.end(), 0);
  std::vector<float> w(warm.size() * kDim);
  ASSERT_TRUE(store->Pull(warm.data(), warm.size(), 1, w.data()).ok());
  store->FinishPullPhase(1);
  std::vector<float> g(warm.size() * kDim, 0.25f);
  ASSERT_TRUE(store->Push(warm.data(), warm.size(), g.data(), 1).ok());
  store->WaitIdle();

  // The known mix: 12 cached keys, 12 PMem-resident keys, 6 new keys.
  std::vector<EntryId> keys;
  uint64_t cached = 0;
  uint64_t resident = 0;
  for (EntryId key : warm) {
    const bool in_dram = store->IsDramCached(key);
    if (in_dram && cached < 12) {
      ++cached;
      keys.push_back(key);
    } else if (!in_dram && resident < 12) {
      ++resident;
      keys.push_back(key);
    }
  }
  ASSERT_EQ(cached, 12u);
  ASSERT_EQ(resident, 12u);
  const uint64_t created = 6;
  for (EntryId key = 0; key < created; ++key) keys.push_back(1'000'000 + key);

  auto stats = store->stats_snapshot();
  auto dram = store->dram_stats_snapshot();
  w.assign(keys.size() * kDim, 0.0f);
  ASSERT_TRUE(store->Pull(keys.data(), keys.size(), 2, w.data()).ok());
  auto stats_after = store->stats_snapshot();
  auto dram_after = store->dram_stats_snapshot();
  // A new key counts neither as a hit nor as a miss: it is one entry
  // write plus one weight read.
  EXPECT_EQ(stats_after.cache_hits - stats.cache_hits, cached);
  EXPECT_EQ(stats_after.cache_misses - stats.cache_misses, resident);
  EXPECT_EQ(stats_after.new_entries - stats.new_entries, created);
  EXPECT_EQ(stats_after.pull_keys - stats.pull_keys, keys.size());
  EXPECT_EQ(dram_after.read_ops - dram.read_ops, cached + created);
  EXPECT_EQ(dram_after.read_bytes - dram.read_bytes,
            (cached + created) * weight_bytes);
  EXPECT_EQ(dram_after.write_ops - dram.write_ops, created);
  EXPECT_EQ(dram_after.write_bytes - dram.write_bytes,
            created * layout.data_bytes());

  // Batch 2's maintenance loads the PMem-resident keys; every key that is
  // cached when the push lands costs one entry write, the rest go straight
  // to their PMem records.
  store->FinishPullPhase(2);
  store->WaitIdle();
  uint64_t pushed_in_dram = 0;
  for (EntryId key : keys) pushed_in_dram += store->IsDramCached(key);
  stats = store->stats_snapshot();
  dram = store->dram_stats_snapshot();
  g.assign(keys.size() * kDim, 0.5f);
  ASSERT_TRUE(store->Push(keys.data(), keys.size(), g.data(), 2).ok());
  stats_after = store->stats_snapshot();
  dram_after = store->dram_stats_snapshot();
  EXPECT_EQ(stats_after.cache_hits, stats.cache_hits);
  EXPECT_EQ(stats_after.cache_misses, stats.cache_misses);
  EXPECT_EQ(stats_after.push_keys - stats.push_keys, keys.size());
  EXPECT_EQ(dram_after.read_ops, dram.read_ops);
  EXPECT_EQ(dram_after.write_ops - dram.write_ops, pushed_in_dram);
  EXPECT_EQ(dram_after.write_bytes - dram.write_bytes,
            pushed_in_dram * layout.data_bytes());
}

// ---------- Lock-striped sharding ----------

TEST(ShardedPipelinedStoreTest, ShardCountIsConfigurableAndClamped) {
  auto device = MakeDevice();
  StoreConfig config = SmallConfig();
  config.store_shards = 4;
  auto store = PipelinedStore::Create(config, device.get()).ValueOrDie();
  EXPECT_EQ(store->NumShards(), 4u);

  auto device1 = MakeDevice();
  config.store_shards = 0;  // clamped to the single-lock layout
  auto single = PipelinedStore::Create(config, device1.get()).ValueOrDie();
  EXPECT_EQ(single->NumShards(), 1u);

  // Per-shard capacity slices must sum to exactly the budget.
  EntryLayout layout(kDim, 0);
  EXPECT_EQ(store->CacheCapacityEntries(),
            config.cache_bytes / layout.record_bytes());
}

TEST(ShardedPipelinedStoreTest, ShardedAndSingleShardStoresAgree) {
  StoreConfig sharded_config = SmallConfig();
  sharded_config.store_shards = 16;
  sharded_config.maintainer_threads = 4;
  StoreConfig single_config = SmallConfig();
  single_config.store_shards = 1;

  auto sharded_device = MakeDevice();
  auto single_device = MakeDevice();
  auto sharded =
      PipelinedStore::Create(sharded_config, sharded_device.get())
          .ValueOrDie();
  auto single =
      PipelinedStore::Create(single_config, single_device.get()).ValueOrDie();

  const size_t capacity = sharded->CacheCapacityEntries();
  std::vector<float> w;
  std::vector<float> grads;
  for (uint64_t batch = 1; batch <= 8; ++batch) {
    // Overlapping hot set + rotating cold slice, sized to force evictions.
    std::vector<EntryId> keys;
    for (EntryId k = 0; k < 16; ++k) keys.push_back(k);
    for (size_t j = 0; j < capacity; ++j) {
      keys.push_back(100 + batch * 37 + j);
    }
    w.resize(keys.size() * kDim);
    grads.assign(keys.size() * kDim, 0.25f);
    for (PipelinedStore* store : {sharded.get(), single.get()}) {
      ASSERT_TRUE(
          store->Pull(keys.data(), keys.size(), batch, w.data()).ok());
      store->FinishPullPhase(batch);
      ASSERT_TRUE(
          store->Push(keys.data(), keys.size(), grads.data(), batch).ok());
    }
    if (batch == 4) {
      ASSERT_TRUE(sharded->RequestCheckpoint(batch).ok());
      ASSERT_TRUE(single->RequestCheckpoint(batch).ok());
    }
  }
  sharded->WaitMaintenance(8);
  single->WaitMaintenance(8);

  ASSERT_EQ(sharded->EntryCount(), single->EntryCount());
  for (EntryId k = 0; k < 16; ++k) {
    const auto got = sharded->Peek(k).ValueOrDie();
    const auto want = single->Peek(k).ValueOrDie();
    for (uint32_t d = 0; d < kDim; ++d) EXPECT_EQ(got[d], want[d]) << k;
  }
}

/// Keys that hash into `shard`, starting the probe at `probe`.
std::vector<EntryId> KeysInShard(const PipelinedStore& store, size_t shard,
                                 size_t count, EntryId probe) {
  std::vector<EntryId> keys;
  while (keys.size() < count) {
    if (store.ShardOfKey(probe) == shard) keys.push_back(probe);
    ++probe;
  }
  return keys;
}

TEST(ShardedPipelinedStoreTest, CheckpointBarrierWaitsForEveryShard) {
  auto device = MakeDevice();
  StoreConfig config = SmallConfig();
  config.store_shards = 4;
  auto store = PipelinedStore::Create(config, device.get()).ValueOrDie();
  const size_t per_shard = store->CacheCapacityEntries() / 4;

  auto run_batch = [&](uint64_t batch, const std::vector<EntryId>& keys) {
    std::vector<float> w(keys.size() * kDim);
    ASSERT_TRUE(
        store->Pull(keys.data(), keys.size(), batch, w.data()).ok());
    store->FinishPullPhase(batch);
    std::vector<float> grads(keys.size() * kDim, 0.1f);
    ASSERT_TRUE(
        store->Push(keys.data(), keys.size(), grads.data(), batch).ok());
  };

  // Batch 1 leaves dirty version-1 state in shards 0 and 1.
  const auto shard0_hot = KeysInShard(*store, 0, 4, 0);
  const auto shard1_hot = KeysInShard(*store, 1, 4, 0);
  std::vector<EntryId> both(shard0_hot);
  both.insert(both.end(), shard1_hot.begin(), shard1_hot.end());
  run_batch(1, both);
  ASSERT_TRUE(store->RequestCheckpoint(1).ok());

  // Churning only shard 0 makes *it* durable for checkpoint 1, but the
  // publish barrier must keep waiting on shard 1's stale dirty entries.
  EntryId probe = 1000;
  for (uint64_t batch = 2; batch <= 5; ++batch) {
    const auto churn = KeysInShard(*store, 0, per_shard * 2, probe);
    probe = churn.back() + 1;
    run_batch(batch, churn);
  }
  store->WaitMaintenance(5);
  EXPECT_EQ(store->PublishedCheckpoint(), 0u);

  // Churning shard 1 flushes its version-1 state; the last shard to
  // acknowledge publishes the checkpoint.
  for (uint64_t batch = 6; batch <= 9; ++batch) {
    const auto churn = KeysInShard(*store, 1, per_shard * 2, probe);
    probe = churn.back() + 1;
    run_batch(batch, churn);
  }
  store->WaitMaintenance(9);
  EXPECT_EQ(store->PublishedCheckpoint(), 1u);

  // The published state must round-trip through recovery.
  device->SimulateCrash();
  ASSERT_TRUE(store->RecoverFromCrash().ok());
  for (EntryId key : both) {
    std::vector<float> init(kDim);
    config.initializer.Fill(key, init.data(), kDim);
    const auto got = store->Peek(key).ValueOrDie();
    for (uint32_t d = 0; d < kDim; ++d) {
      EXPECT_NEAR(got[d], init[d] - 0.5f * 0.1f, 1e-5) << key;
    }
  }
}

// ---------- Checkpoint write-back on the maintainer ----------

// Checkpoint cp is written back once a chunk of batch cp + 1 has run: each
// shard flushes its dirty entries with version <= cp and acknowledges, so
// cp publishes with no drain — and a drain then has nothing left to flush.
TEST_F(PipelinedStoreTest, CheckpointPublishesInNextBatchMaintenance) {
  // Two keys per shard at batch 1; batch 2 re-touches one of them, so the
  // write-back (not batch 2's gated chunk flush) must make the other one
  // durable.
  std::vector<EntryId> all;
  std::vector<EntryId> half;
  for (size_t s = 0; s < store_->NumShards(); ++s) {
    const auto keys = KeysInShard(*store_, s, 2, 0);
    all.insert(all.end(), keys.begin(), keys.end());
    half.push_back(keys[0]);
  }
  RunBatch(1, all, 0.1f);
  ASSERT_TRUE(store_->RequestCheckpoint(1).ok());
  EXPECT_EQ(store_->PublishedCheckpoint(), 0u);
  RunBatch(2, half, 0.1f);
  store_->WaitIdle();
  EXPECT_EQ(store_->PublishedCheckpoint(), 1u);

  const uint64_t flushes = store_->stats().flushes.load();
  ASSERT_TRUE(store_->DrainCheckpoints().ok());
  EXPECT_EQ(store_->stats().flushes.load(), flushes);

  // Checkpoint 1 holds batch 1's update of every key, batch 2's of none.
  device_->SimulateCrash();
  ASSERT_TRUE(store_->RecoverFromCrash().ok());
  EXPECT_EQ(store_->PublishedCheckpoint(), 1u);
  for (EntryId key : all) {
    std::vector<float> init(kDim);
    config_.initializer.Fill(key, init.data(), kDim);
    const auto got = store_->Peek(key).ValueOrDie();
    for (uint32_t d = 0; d < kDim; ++d) {
      EXPECT_NEAR(got[d], init[d] - 0.5f * 0.1f, 1e-6) << key;
    }
  }
}

// RequestCheckpoint(cp) may come before Push(cp): the "surpassed" rule
// rejects only cp < the sealed batch. Batch cp's own chunks must not write
// cp back — its pushes have not landed — so the publish waits for batch
// cp + 1's maintenance, and recovery returns cp's push.
TEST_F(PipelinedStoreTest, RequestBeforePushIsNotAckedEarly) {
  std::vector<EntryId> keys(40);
  std::iota(keys.begin(), keys.end(), 1);
  std::vector<float> w(keys.size() * kDim);
  ASSERT_TRUE(store_->Pull(keys.data(), keys.size(), 1, w.data()).ok());
  store_->FinishPullPhase(1);
  ASSERT_TRUE(store_->RequestCheckpoint(1).ok());
  store_->WaitIdle();
  EXPECT_EQ(store_->PublishedCheckpoint(), 0u);
  std::vector<float> grads(keys.size() * kDim, 0.2f);
  ASSERT_TRUE(
      store_->Push(keys.data(), keys.size(), grads.data(), 1).ok());
  RunBatch(2, keys, 0.7f);
  store_->WaitIdle();
  EXPECT_EQ(store_->PublishedCheckpoint(), 1u);

  device_->SimulateCrash();
  ASSERT_TRUE(store_->RecoverFromCrash().ok());
  EXPECT_EQ(store_->PublishedCheckpoint(), 1u);
  EXPECT_EQ(store_->EntryCount(), keys.size());
  for (EntryId key : keys) {
    std::vector<float> init(kDim);
    config_.initializer.Fill(key, init.data(), kDim);
    const auto got = store_->Peek(key).ValueOrDie();
    for (uint32_t d = 0; d < kDim; ++d) {
      EXPECT_NEAR(got[d], init[d] - 0.5f * 0.2f, 1e-6) << key;
    }
  }
}

// bench_ablation_design's row [1], on its workload: 20 batches of 1,024
// hot keys, everything cached. Without a pending checkpoint nothing is
// written back; with one requested every 5 batches, each checkpoint writes
// every dirty entry back exactly once — 4 x 1,024 flushes, whether batch
// cp + 1's chunk, the maintainer's write-back or the final drain does it.
TEST(PipelinedWriteBackTest, VersionGatedFlushCountMatchesAblation) {
  StoreConfig config;
  config.dim = 64;
  config.cache_bytes = 64ULL << 20;
  std::vector<EntryId> keys(1024);
  std::iota(keys.begin(), keys.end(), 0);
  std::vector<float> scratch(keys.size() * config.dim);
  std::vector<float> grads(keys.size() * config.dim, 0.01f);
  auto run = [&](PipelinedStore* store, bool checkpoints) {
    for (uint64_t batch = 1; batch <= 20; ++batch) {
      ASSERT_TRUE(
          store->Pull(keys.data(), keys.size(), batch, scratch.data()).ok());
      store->FinishPullPhase(batch);
      store->WaitMaintenance(batch);
      ASSERT_TRUE(
          store->Push(keys.data(), keys.size(), grads.data(), batch).ok());
      if (checkpoints && batch % 5 == 0) {
        ASSERT_TRUE(store->RequestCheckpoint(batch).ok());
      }
    }
    ASSERT_TRUE(store->DrainCheckpoints().ok());
  };

  auto device_a = MakeDevice({64 << 20});
  auto no_ckpt = PipelinedStore::Create(config, device_a.get()).ValueOrDie();
  run(no_ckpt.get(), false);
  EXPECT_EQ(no_ckpt->stats().flushes.load(), 0u);

  auto device_b = MakeDevice({64 << 20});
  auto gated = PipelinedStore::Create(config, device_b.get()).ValueOrDie();
  run(gated.get(), true);
  EXPECT_EQ(gated->stats().flushes.load(), 4u * keys.size());
  EXPECT_EQ(gated->PublishedCheckpoint(), 20u);
}

// The write-back pass of batch cp + 1 publishes checkpoint cp while that
// batch's Push runs. Keys the chunk evicted again stay PMem-resident, and
// Push updates their records directly: copy-on-write if the newest
// published-or-pending checkpoint may need the old record, else in place.
// A choice that misses the checkpoint being published overwrites a record
// it needs. Each round trains a hot set that exactly fills the last
// shard's cache and a cold set on the other shards that overflows theirs
// in batch cp. Batch cp + 1 trains the cold set and one hot key: the cold
// shards evict their batch-cp state in the chunk and acknowledge there,
// while the last shard keeps dirty batch-cp entries that only the pass
// flushes, so the pass publishes cp beside Push's cold-key records. Then
// it crashes and compares the recovered model with checkpoint cp.
TEST(PipelinedWriteBackTest, PushBesidePublishKeepsCheckpoint) {
  auto device = MakeDevice();
  StoreConfig config = SmallConfig();
  config.store_shards = 4;
  auto store = PipelinedStore::Create(config, device.get()).ValueOrDie();
  const size_t last = store->NumShards() - 1;
  const size_t hot_count = store->CacheCapacityEntries() / store->NumShards();
  std::vector<EntryId> hot;
  std::vector<EntryId> cold;
  for (EntryId key = 1; hot.size() < hot_count || cold.size() < 1024; ++key) {
    if (store->ShardOfKey(key) == last) {
      if (hot.size() < hot_count) hot.push_back(key);
    } else if (cold.size() < 1024) {
      cold.push_back(key);
    }
  }
  std::vector<EntryId> all = cold;
  all.insert(all.end(), hot.begin(), hot.end());
  std::vector<EntryId> next = cold;
  next.push_back(hot.front());
  std::vector<float> scratch(all.size() * kDim);
  std::vector<float> grads(all.size() * kDim, 0.125f);
  uint64_t batch = 1;
  for (int round = 0; round < 24; ++round) {
    const uint64_t cp = batch;
    batch += 2;
    ASSERT_TRUE(store->Pull(all.data(), all.size(), cp, scratch.data()).ok());
    store->FinishPullPhase(cp);
    ASSERT_TRUE(store->Push(all.data(), all.size(), grads.data(), cp).ok());
    std::vector<std::vector<float>> want;
    for (EntryId key : all) want.push_back(store->Peek(key).ValueOrDie());
    ASSERT_TRUE(store->RequestCheckpoint(cp).ok());
    ASSERT_TRUE(
        store->Pull(next.data(), next.size(), cp + 1, scratch.data()).ok());
    store->FinishPullPhase(cp + 1);
    ASSERT_TRUE(
        store->Push(next.data(), next.size(), grads.data(), cp + 1).ok());
    store->WaitIdle();
    ASSERT_EQ(store->PublishedCheckpoint(), cp);
    // Residency of the cold shards has not changed since their chunk: the
    // keys not cached now were PMem-resident when Push applied them.
    size_t pmem_resident = 0;
    for (EntryId key : cold) pmem_resident += !store->IsDramCached(key);
    ASSERT_GT(pmem_resident, 0u);
    device->SimulateCrash();
    ASSERT_TRUE(store->RecoverFromCrash().ok());
    ASSERT_EQ(store->PublishedCheckpoint(), cp);
    for (size_t i = 0; i < all.size(); ++i) {
      auto got = store->Peek(all[i]);
      ASSERT_TRUE(got.ok()) << "checkpoint " << cp << " lost key " << all[i];
      ASSERT_EQ(got.value(), want[i])
          << "checkpoint " << cp << " key " << all[i];
    }
  }
}

// Every path that destroys cached entries must unlink them from the shard's
// dirty list; a dangling link is walked by the next write-back (an ASan
// finding). Each case leaves dirty entries — first-touch and pushed — runs
// one destroying path, then trains one more batch, drains, and checks that
// a crash recovers exactly the drained state.
class DirtyListLifetimeTest : public PipelinedStoreTest {
 protected:
  static std::vector<EntryId> Range(EntryId first, size_t n) {
    std::vector<EntryId> keys(n);
    std::iota(keys.begin(), keys.end(), first);
    return keys;
  }

  // Batches 1-2 over `keys`, checkpoint 1 published and checkpoint 2
  // pending: every entry is dirty at version 2 when the path runs.
  void LeaveDirty(PipelinedStore* store, const std::vector<EntryId>& keys) {
    for (uint64_t batch = 1; batch <= 2; ++batch) {
      std::vector<float> w(keys.size() * kDim);
      ASSERT_TRUE(
          store->Pull(keys.data(), keys.size(), batch, w.data()).ok());
      store->FinishPullPhase(batch);
      std::vector<float> grads(keys.size() * kDim, 0.1f);
      ASSERT_TRUE(
          store->Push(keys.data(), keys.size(), grads.data(), batch).ok());
      ASSERT_TRUE(store->RequestCheckpoint(batch).ok());
      if (batch == 1) {
        ASSERT_TRUE(store->DrainCheckpoints().ok());
      }
    }
  }

  // One more batch over `keys`, its checkpoint drained; a crash must land
  // on it.
  void FinishAndRecover(uint64_t batch, const std::vector<EntryId>& keys) {
    RunBatch(batch, keys, 0.3f);
    ASSERT_TRUE(store_->RequestCheckpoint(batch).ok());
    ASSERT_TRUE(store_->DrainCheckpoints().ok());
    ASSERT_EQ(store_->PublishedCheckpoint(), batch);
    std::map<EntryId, std::vector<float>> want;
    for (EntryId key : keys) want[key] = store_->Peek(key).ValueOrDie();
    const size_t entries = store_->EntryCount();
    device_->SimulateCrash();
    ASSERT_TRUE(store_->RecoverFromCrash().ok());
    EXPECT_EQ(store_->PublishedCheckpoint(), batch);
    EXPECT_EQ(store_->EntryCount(), entries);
    for (const auto& [key, weights] : want) {
      EXPECT_EQ(store_->Peek(key).ValueOrDie(), weights) << key;
    }
  }
};

TEST_F(DirtyListLifetimeTest, Eviction) {
  const size_t capacity = store_->CacheCapacityEntries();
  const auto hot = Range(1, capacity / 2);
  LeaveDirty(store_.get(), hot);
  // A batch of fresh keys three times the cache evicts the dirty entries.
  const auto churn = Range(100000, capacity * 3);
  RunBatch(3, churn, 0.2f);
  EXPECT_GT(store_->stats().evictions.load(), capacity);
  FinishAndRecover(4, hot);
}

TEST_F(DirtyListLifetimeTest, ImportCheckpoint) {
  auto source_device = MakeDevice();
  auto source = PipelinedStore::Create(config_, source_device.get())
                    .ValueOrDie();
  const auto keys = Range(1, 60);
  LeaveDirty(source.get(), keys);
  ASSERT_TRUE(source->DrainCheckpoints().ok());
  auto log_device = MakeDevice();
  auto log = ckpt::CheckpointLog::Create(log_device.get(),
                                         EntryLayout(kDim, 0))
                 .ValueOrDie();
  ASSERT_TRUE(source->ExportCheckpoint(log.get()).ok());
  ASSERT_TRUE(store_->ImportCheckpoint(*log).ok());
  EXPECT_EQ(store_->PublishedCheckpoint(), 2u);
  FinishAndRecover(3, keys);
}

TEST_F(DirtyListLifetimeTest, RecoverFromCrash) {
  const auto keys = Range(1, 60);
  LeaveDirty(store_.get(), keys);
  device_->SimulateCrash();
  ASSERT_TRUE(store_->RecoverFromCrash().ok());
  EXPECT_EQ(store_->PublishedCheckpoint(), 1u);
  FinishAndRecover(3, keys);
}

// Property sweep: random workloads with checkpoints and adversarial
// crashes must always recover the exact checkpoint state.
class PipelinedCrashPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(PipelinedCrashPropertyTest, BatchAtomicityUnderAdversarialCrash) {
  auto device = MakeDevice({.size_bytes = 32 << 20, .fidelity = CrashFidelity::kAdversarial});
  StoreConfig config = SmallConfig();
  config.cache_bytes = 4 * 1024;  // heavy eviction traffic
  auto store = PipelinedStore::Create(config, device.get()).ValueOrDie();
  Random rng(GetParam());

  // Reference model mirrors every applied update.
  std::map<EntryId, std::vector<float>> model;
  std::map<EntryId, std::vector<float>> at_checkpoint;
  uint64_t checkpoint_batch = 0;

  const uint64_t total_batches = 30;
  const uint64_t crash_batch = 10 + rng.Uniform(15);
  for (uint64_t batch = 1; batch <= total_batches; ++batch) {
    std::vector<EntryId> keys;
    const size_t nkeys = 4 + rng.Uniform(12);
    for (size_t i = 0; i < nkeys; ++i) keys.push_back(rng.Uniform(200));
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

    std::vector<float> w(keys.size() * kDim);
    ASSERT_TRUE(store->Pull(keys.data(), keys.size(), batch, w.data()).ok());
    store->FinishPullPhase(batch);
    std::vector<float> grads(keys.size() * kDim);
    for (auto& g : grads) g = rng.UniformFloat(-1.0f, 1.0f);
    ASSERT_TRUE(
        store->Push(keys.data(), keys.size(), grads.data(), batch).ok());

    for (size_t i = 0; i < keys.size(); ++i) {
      auto& ref = model[keys[i]];
      if (ref.empty()) {
        ref.resize(kDim);
        config.initializer.Fill(keys[i], ref.data(), kDim);
      }
      for (uint32_t d = 0; d < kDim; ++d) {
        ref[d] -= config.optimizer.learning_rate * grads[i * kDim + d];
      }
    }

    if (batch % 7 == 0) {
      ASSERT_TRUE(store->RequestCheckpoint(batch).ok());
      ASSERT_TRUE(store->DrainCheckpoints().ok());
      at_checkpoint = model;
      checkpoint_batch = batch;
    }
    if (batch == crash_batch) break;
  }

  device->SimulateCrash();
  ASSERT_TRUE(store->RecoverFromCrash().ok());
  EXPECT_EQ(store->PublishedCheckpoint(), checkpoint_batch);
  EXPECT_EQ(store->EntryCount(), at_checkpoint.size());
  for (const auto& [key, ref] : at_checkpoint) {
    auto got = store->Peek(key);
    ASSERT_TRUE(got.ok()) << "lost key " << key;
    for (uint32_t d = 0; d < kDim; ++d) {
      EXPECT_NEAR(got.value()[d], ref[d], 1e-5)
          << "key " << key << " dim " << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinedCrashPropertyTest,
                         ::testing::Values(1, 7, 21, 42, 1234, 777, 31337,
                                           2026));

}  // namespace
}  // namespace oe::storage
