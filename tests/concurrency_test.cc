// Multi-threaded stress tests for the push-path index fixes and the
// concurrent worker<->PS fan-out. Built to run under ThreadSanitizer:
//   cmake -B build-tsan -S . -DOE_SANITIZE=thread
//   cmake --build build-tsan -j && ctest --test-dir build-tsan -L tsan
//
// The tests follow the synchronous training protocol (pull phase -> seal ->
// push phase, separated by barriers) because that is the concurrency the
// store promises to support: concurrent pulls with concurrent pulls,
// concurrent pushes with concurrent pushes and checkpoint requests — never
// a pull overlapping a push of the same batch.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "net/tcp.h"
#include "pmem/device.h"
#include "ps/ps_client.h"
#include "ps/ps_service.h"
#include "storage/pipelined_store.h"

namespace oe {
namespace {

using pmem::CrashFidelity;
using pmem::PmemDevice;
using pmem::PmemDeviceOptions;
using storage::EntryId;
using storage::InitializerKind;
using storage::InitializerSpec;
using storage::OptimizerKind;
using storage::PipelinedStore;
using storage::StoreConfig;

constexpr uint32_t kDim = 8;
constexpr float kLearningRate = 0.5f;
constexpr float kGrad = 1.0f;

StoreConfig StressConfig() {
  StoreConfig config;
  config.dim = kDim;
  config.optimizer.kind = OptimizerKind::kSgd;
  config.optimizer.learning_rate = kLearningRate;
  config.initializer.kind = InitializerKind::kUniform;
  config.initializer.scale = 0.1f;
  config.cache_bytes = 4 * 1024;  // tiny: forces evictions + PMem pushes
  config.maintainer_threads = 2;
  return config;
}

std::unique_ptr<PmemDevice> MakeDevice(uint64_t size = 32 << 20) {
  PmemDeviceOptions options;
  options.size_bytes = size;
  options.crash_fidelity = CrashFidelity::kStrict;
  return PmemDevice::Create(options).ValueOrDie();
}

/// The deterministic key set thread `t` works on in `batch`: a hot set all
/// threads share (same-key contention on the push spinlocks) plus a rotating
/// cold slice (cache churn: misses, evictions, PMem-resident pushes).
std::vector<EntryId> KeysFor(int thread, int batch, uint64_t universe,
                             uint64_t hot, int cold) {
  std::set<EntryId> keys;
  for (EntryId k = 0; k < hot; ++k) keys.insert(k);
  for (int j = 0; j < cold; ++j) {
    keys.insert(hot + (static_cast<uint64_t>(thread) * 31 +
                       static_cast<uint64_t>(j) * 7 +
                       static_cast<uint64_t>(batch) * 13) %
                          (universe - hot));
  }
  return {keys.begin(), keys.end()};
}

/// Replays the optimizer arithmetic serially: SGD with a constant gradient
/// is order-independent, so the concurrent store must land on exactly this.
std::vector<float> ExpectedWeights(const InitializerSpec& init, EntryId key,
                                   int pushes) {
  std::vector<float> w(kDim);
  init.Fill(key, w.data(), kDim);
  for (int p = 0; p < pushes; ++p) {
    for (uint32_t i = 0; i < kDim; ++i) w[i] -= kLearningRate * kGrad;
  }
  return w;
}

bool SameWeights(const float* got, const std::vector<float>& want) {
  for (uint32_t i = 0; i < kDim; ++i) {
    if (got[i] != want[i]) return false;
  }
  return true;
}

TEST(PipelinedStoreConcurrencyTest, ParallelPullPushCheckpointConverges) {
  constexpr int kThreads = 4;
  constexpr int kBatches = 16;
  constexpr uint64_t kUniverse = 128;
  constexpr uint64_t kHot = 8;
  constexpr int kCold = 24;

  auto device = MakeDevice();
  auto store = PipelinedStore::Create(StressConfig(), device.get())
                   .ValueOrDie();
  const InitializerSpec init = store->config().initializer;

  // Precompute every key set plus the cumulative push count before each
  // batch, so worker threads can verify pulled values without sharing
  // mutable state.
  std::vector<std::vector<std::vector<EntryId>>> keysets(kBatches + 1);
  std::vector<std::vector<int>> count_before(kBatches + 2,
                                             std::vector<int>(kUniverse, 0));
  for (int b = 1; b <= kBatches; ++b) {
    keysets[b].resize(kThreads);
    count_before[b + 1] = count_before[b];
    for (int t = 0; t < kThreads; ++t) {
      keysets[b][t] = KeysFor(t, b, kUniverse, kHot, kCold);
      for (EntryId key : keysets[b][t]) count_before[b + 1][key]++;
    }
  }

  Barrier barrier(kThreads);
  std::atomic<int> pull_mismatches{0};
  std::atomic<int> op_failures{0};

  auto worker = [&](int t) {
    std::vector<float> weights;
    std::vector<float> grads;
    for (int b = 1; b <= kBatches; ++b) {
      const auto& keys = keysets[b][t];
      weights.resize(keys.size() * kDim);

      barrier.ArriveAndWait();
      if (!store->Pull(keys.data(), keys.size(), b, weights.data()).ok()) {
        op_failures.fetch_add(1);
      }
      for (size_t j = 0; j < keys.size(); ++j) {
        const auto want =
            ExpectedWeights(init, keys[j], count_before[b][keys[j]]);
        if (!SameWeights(weights.data() + j * kDim, want)) {
          pull_mismatches.fetch_add(1);
        }
      }

      if (barrier.ArriveAndWait()) store->FinishPullPhase(b);
      barrier.ArriveAndWait();

      // The leader races a checkpoint request against the push phase.
      if (t == 0 && b % 3 == 0) {
        if (!store->RequestCheckpoint(b).ok()) op_failures.fetch_add(1);
      }
      grads.assign(keys.size() * kDim, kGrad);
      if (!store->Push(keys.data(), keys.size(), grads.data(), b).ok()) {
        op_failures.fetch_add(1);
      }
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();

  EXPECT_EQ(op_failures.load(), 0);
  EXPECT_EQ(pull_mismatches.load(), 0);
  ASSERT_TRUE(store->DrainCheckpoints().ok());
  EXPECT_GT(store->PublishedCheckpoint(), 0u);

  // Every touched key must hold exactly init - lr * total_pushes: any lost
  // update (stale slot read, torn pointer, dropped COW) shows up here.
  const auto& final_count = count_before[kBatches + 1];
  size_t touched = 0;
  for (EntryId key = 0; key < kUniverse; ++key) {
    if (final_count[key] == 0) continue;
    ++touched;
    auto got = store->Peek(key);
    ASSERT_TRUE(got.ok()) << "key " << key;
    const std::vector<float> values = std::move(got).ValueOrDie();
    const auto want = ExpectedWeights(init, key, final_count[key]);
    EXPECT_TRUE(SameWeights(values.data(), want))
        << "key " << key << " after " << final_count[key] << " pushes";
  }
  EXPECT_EQ(store->EntryCount(), touched);
}

// The sharded-store stress test: concurrent pullers + pushers + checkpoint
// requests across many shards with several maintainer threads draining
// disjoint shards in parallel, verified against a serial replay; then a
// restart_test-style crash + recovery back to the mid-stream published
// checkpoint, and one more training batch on the recovered store.
TEST(PipelinedStoreConcurrencyTest, ShardedStoreStressAndMidStreamRecovery) {
  constexpr int kThreads = 4;
  constexpr int kBatches = 15;
  constexpr uint64_t kUniverse = 256;
  constexpr uint64_t kHot = 8;
  constexpr int kCold = 24;

  auto device = MakeDevice();
  StoreConfig config = StressConfig();
  config.store_shards = 8;
  config.maintainer_threads = 4;
  auto store = PipelinedStore::Create(config, device.get()).ValueOrDie();
  const InitializerSpec init = store->config().initializer;

  std::vector<std::vector<std::vector<EntryId>>> keysets(kBatches + 1);
  std::vector<std::vector<int>> count_before(kBatches + 2,
                                             std::vector<int>(kUniverse, 0));
  for (int b = 1; b <= kBatches; ++b) {
    keysets[b].resize(kThreads);
    count_before[b + 1] = count_before[b];
    for (int t = 0; t < kThreads; ++t) {
      keysets[b][t] = KeysFor(t, b, kUniverse, kHot, kCold);
      for (EntryId key : keysets[b][t]) count_before[b + 1][key]++;
    }
  }

  Barrier barrier(kThreads);
  std::atomic<int> pull_mismatches{0};
  std::atomic<int> op_failures{0};

  auto worker = [&](int t) {
    std::vector<float> weights;
    std::vector<float> grads;
    for (int b = 1; b <= kBatches; ++b) {
      const auto& keys = keysets[b][t];
      weights.resize(keys.size() * kDim);

      barrier.ArriveAndWait();
      if (!store->Pull(keys.data(), keys.size(), b, weights.data()).ok()) {
        op_failures.fetch_add(1);
      }
      for (size_t j = 0; j < keys.size(); ++j) {
        const auto want =
            ExpectedWeights(init, keys[j], count_before[b][keys[j]]);
        if (!SameWeights(weights.data() + j * kDim, want)) {
          pull_mismatches.fetch_add(1);
        }
      }

      if (barrier.ArriveAndWait()) store->FinishPullPhase(b);
      barrier.ArriveAndWait();

      // The leader races checkpoint requests against the push phase and
      // the maintainers' cross-shard acknowledgement sweeps.
      if (t == 0 && b % 3 == 0) {
        if (!store->RequestCheckpoint(b).ok()) op_failures.fetch_add(1);
      }
      grads.assign(keys.size() * kDim, kGrad);
      if (!store->Push(keys.data(), keys.size(), grads.data(), b).ok()) {
        op_failures.fetch_add(1);
      }
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();

  EXPECT_EQ(op_failures.load(), 0);
  EXPECT_EQ(pull_mismatches.load(), 0);
  store->WaitMaintenance(kBatches);

  // Every touched key must hold exactly init - lr * total_pushes even with
  // maintainers flushing/evicting concurrently across shards.
  const auto& final_count = count_before[kBatches + 1];
  size_t touched = 0;
  for (EntryId key = 0; key < kUniverse; ++key) {
    if (final_count[key] == 0) continue;
    ++touched;
    auto got = store->Peek(key);
    ASSERT_TRUE(got.ok()) << "key " << key;
    const std::vector<float> values = std::move(got).ValueOrDie();
    const auto want = ExpectedWeights(init, key, final_count[key]);
    EXPECT_TRUE(SameWeights(values.data(), want))
        << "key " << key << " after " << final_count[key] << " pushes";
  }
  EXPECT_EQ(store->EntryCount(), touched);

  // Some checkpoint must have published mid-stream via eviction pressure
  // (4 KiB cache, 200+ distinct keys per batch) — no DrainCheckpoints here.
  const uint64_t cp = store->PublishedCheckpoint();
  ASSERT_GT(cp, 0u);
  ASSERT_EQ(cp % 3, 0u);
  ASSERT_LE(cp, static_cast<uint64_t>(kBatches));

  // Crash and recover: the store must land exactly on the published
  // checkpoint's state — batch `cp` applied in full, nothing newer.
  device->SimulateCrash();
  ASSERT_TRUE(store->RecoverFromCrash().ok());
  EXPECT_EQ(store->PublishedCheckpoint(), cp);
  const auto& count_at_cp = count_before[cp + 1];
  size_t expected_entries = 0;
  for (EntryId key = 0; key < kUniverse; ++key) {
    if (count_at_cp[key] == 0) {
      EXPECT_FALSE(store->Peek(key).ok()) << "key " << key;
      continue;
    }
    ++expected_entries;
    auto got = store->Peek(key);
    ASSERT_TRUE(got.ok()) << "key " << key;
    const std::vector<float> values = std::move(got).ValueOrDie();
    const auto want = ExpectedWeights(init, key, count_at_cp[key]);
    EXPECT_TRUE(SameWeights(values.data(), want))
        << "key " << key << " after " << count_at_cp[key] << " pushes";
  }
  EXPECT_EQ(store->EntryCount(), expected_entries);

  // Training continues on the recovered store.
  const uint64_t next = kBatches + 1;
  std::vector<EntryId> keys(kHot);
  for (EntryId k = 0; k < kHot; ++k) keys[k] = k;
  std::vector<float> weights(keys.size() * kDim);
  ASSERT_TRUE(
      store->Pull(keys.data(), keys.size(), next, weights.data()).ok());
  store->FinishPullPhase(next);
  std::vector<float> grads(keys.size() * kDim, kGrad);
  ASSERT_TRUE(
      store->Push(keys.data(), keys.size(), grads.data(), next).ok());
  for (EntryId key : keys) {
    const auto got = store->Peek(key).ValueOrDie();
    const auto want = ExpectedWeights(init, key, count_at_cp[key] + 1);
    EXPECT_TRUE(SameWeights(got.data(), want)) << "key " << key;
  }
}

TEST(TcpClusterConcurrencyTest, MultiClientFanOutConverges) {
  constexpr int kNodes = 4;
  constexpr int kThreads = 4;
  constexpr int kBatches = 6;
  constexpr uint64_t kUniverse = 160;
  constexpr uint64_t kHot = 8;
  constexpr int kCold = 24;

  std::vector<std::unique_ptr<PmemDevice>> devices;
  std::vector<std::unique_ptr<PipelinedStore>> stores;
  std::vector<std::unique_ptr<ps::PsService>> services;
  std::vector<std::unique_ptr<net::TcpServer>> servers;
  net::TcpTransport transport;
  for (int i = 0; i < kNodes; ++i) {
    devices.push_back(MakeDevice());
    stores.push_back(
        PipelinedStore::Create(StressConfig(), devices.back().get())
            .ValueOrDie());
    services.push_back(std::make_unique<ps::PsService>(stores.back().get()));
    servers.push_back(
        net::TcpServer::Start(0, services.back()->AsHandler()).ValueOrDie());
    transport.AddNode(static_cast<net::NodeId>(i), "127.0.0.1",
                      servers.back()->port());
  }
  const InitializerSpec init = StressConfig().initializer;

  std::vector<std::vector<std::vector<EntryId>>> keysets(kBatches + 1);
  std::vector<std::vector<int>> count_before(kBatches + 2,
                                             std::vector<int>(kUniverse, 0));
  for (int b = 1; b <= kBatches; ++b) {
    keysets[b].resize(kThreads);
    count_before[b + 1] = count_before[b];
    for (int t = 0; t < kThreads; ++t) {
      keysets[b][t] = KeysFor(t, b, kUniverse, kHot, kCold);
      for (EntryId key : keysets[b][t]) count_before[b + 1][key]++;
    }
  }

  Barrier barrier(kThreads);
  std::atomic<int> pull_mismatches{0};
  std::atomic<int> op_failures{0};

  auto worker = [&](int t) {
    // One client per worker over the shared transport, as in SyncTrainer.
    ps::PsClient client(&transport, kNodes, kDim);
    std::vector<float> weights;
    std::vector<float> grads;
    for (int b = 1; b <= kBatches; ++b) {
      const auto& keys = keysets[b][t];
      weights.resize(keys.size() * kDim);

      barrier.ArriveAndWait();
      if (!client.Pull(keys.data(), keys.size(), b, weights.data()).ok()) {
        op_failures.fetch_add(1);
      }
      for (size_t j = 0; j < keys.size(); ++j) {
        const auto want =
            ExpectedWeights(init, keys[j], count_before[b][keys[j]]);
        if (!SameWeights(weights.data() + j * kDim, want)) {
          pull_mismatches.fetch_add(1);
        }
      }

      if (barrier.ArriveAndWait()) {
        if (!client.FinishPullPhase(b).ok()) op_failures.fetch_add(1);
      }
      barrier.ArriveAndWait();

      if (t == 0 && b % 2 == 0) {
        if (!client.RequestCheckpoint(b).ok()) op_failures.fetch_add(1);
      }
      grads.assign(keys.size() * kDim, kGrad);
      if (!client.Push(keys.data(), keys.size(), grads.data(), b).ok()) {
        op_failures.fetch_add(1);
      }
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();

  EXPECT_EQ(op_failures.load(), 0);
  EXPECT_EQ(pull_mismatches.load(), 0);

  ps::PsClient client(&transport, kNodes, kDim);
  ASSERT_TRUE(client.DrainCheckpoints().ok());

  const auto& final_count = count_before[kBatches + 1];
  uint64_t touched = 0;
  for (EntryId key = 0; key < kUniverse; ++key) {
    if (final_count[key] == 0) continue;
    ++touched;
    auto got = client.Peek(key);
    ASSERT_TRUE(got.ok()) << "key " << key;
    const std::vector<float> values = std::move(got).ValueOrDie();
    const auto want = ExpectedWeights(init, key, final_count[key]);
    EXPECT_TRUE(SameWeights(values.data(), want))
        << "key " << key << " after " << final_count[key] << " pushes";
  }
  EXPECT_EQ(client.TotalEntries().ValueOrDie(), touched);
}

}  // namespace
}  // namespace oe
