// Online serving tier: snapshot-read consistency of PipelinedStore::MultiGet
// against concurrent training pushes, the ServingCache, and the cluster-level
// MultiGet fan-out.
//
// The property tests use an analytically-solvable model: zero initialization
// plus SGD (lr 0.5) with gradient 1.0 pushed to EVERY key on EVERY batch
// makes each weight exactly -0.5 * batch after batch `batch` (all values
// are exact in fp32 for small batch counts). A snapshot read pinned to
// checkpoint `cp` must therefore return -0.5 * cp bit-exactly in every
// dimension of every key — any torn read, any mix of two checkpoint
// versions, and any stale-cache serve breaks the equality.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "net/message.h"
#include "ps/ps_cluster.h"
#include "ps/ps_service.h"
#include "ps/serving_cache.h"
#include "storage/pipelined_store.h"
#include "test_util.h"

namespace oe {
namespace {

using ps::ClusterOptions;
using ps::PsCluster;
using ps::ServingCache;
using storage::EntryId;
using storage::PipelinedStore;
using storage::StoreConfig;
using test::MakeDevice;
using test::SmallConfig;
using test::TestSeed;

constexpr uint32_t kDim = test::kSmallDim;

/// SmallConfig with the deterministic serving model: zeros init, so value
/// after batch b is exactly -0.5 * b (see file comment).
StoreConfig ServingConfig() {
  StoreConfig config = SmallConfig();
  config.initializer.kind = storage::InitializerKind::kZeros;
  return config;
}

/// Runs one training step: pull/finish/push gradient 1.0 on all `keys`.
void TrainStep(storage::EmbeddingStore* store, const std::vector<EntryId>& keys,
               uint64_t batch) {
  std::vector<float> weights(keys.size() * kDim);
  ASSERT_TRUE(
      store->Pull(keys.data(), keys.size(), batch, weights.data()).ok());
  store->FinishPullPhase(batch);
  std::vector<float> grads(keys.size() * kDim, 1.0f);
  ASSERT_TRUE(store->Push(keys.data(), keys.size(), grads.data(), batch).ok());
}

TEST(ServingTest, MultiGetServesPublishedCheckpointExactly) {
  auto device = MakeDevice();
  auto store = PipelinedStore::Create(ServingConfig(), device.get())
                   .ValueOrDie();
  const std::vector<EntryId> keys = {1, 2, 3, 4, 5, 6, 7, 8};
  TrainStep(store.get(), keys, 1);
  ASSERT_TRUE(store->RequestCheckpoint(1).ok());
  ASSERT_TRUE(store->DrainCheckpoints().ok());

  // Advance training past the checkpoint: served values must not move.
  TrainStep(store.get(), keys, 2);

  std::vector<float> out(keys.size() * kDim);
  std::vector<uint8_t> found(keys.size());
  uint64_t cp = 0;
  ASSERT_TRUE(store
                  ->MultiGet(keys.data(), keys.size(), out.data(),
                             found.data(), &cp)
                  .ok());
  EXPECT_EQ(cp, 1u);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(found[i], 1) << "key " << keys[i];
    for (uint32_t d = 0; d < kDim; ++d) {
      EXPECT_EQ(out[i * kDim + d], -0.5f) << "key " << keys[i];
    }
  }
}

TEST(ServingTest, MultiGetBeforeFirstCheckpointFindsNothing) {
  auto device = MakeDevice();
  auto store = PipelinedStore::Create(ServingConfig(), device.get())
                   .ValueOrDie();
  const std::vector<EntryId> keys = {1, 2, 3};
  TrainStep(store.get(), keys, 1);  // live data, but nothing published

  std::vector<float> out(keys.size() * kDim, 42.0f);
  std::vector<uint8_t> found(keys.size(), 1);
  uint64_t cp = 99;
  ASSERT_TRUE(store
                  ->MultiGet(keys.data(), keys.size(), out.data(),
                             found.data(), &cp)
                  .ok());
  EXPECT_EQ(cp, 0u);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(found[i], 0);
    for (uint32_t d = 0; d < kDim; ++d) EXPECT_EQ(out[i * kDim + d], 0.0f);
  }
}

TEST(ServingTest, MultiGetZeroFillsMissingKeys) {
  auto device = MakeDevice();
  auto store = PipelinedStore::Create(ServingConfig(), device.get())
                   .ValueOrDie();
  const std::vector<EntryId> trained = {1, 2};
  TrainStep(store.get(), trained, 1);
  ASSERT_TRUE(store->RequestCheckpoint(1).ok());
  ASSERT_TRUE(store->DrainCheckpoints().ok());

  const std::vector<EntryId> keys = {1, 777, 2};  // 777 never existed
  std::vector<float> out(keys.size() * kDim, 42.0f);
  std::vector<uint8_t> found(keys.size(), 1);
  uint64_t cp = 0;
  ASSERT_TRUE(store
                  ->MultiGet(keys.data(), keys.size(), out.data(),
                             found.data(), &cp)
                  .ok());
  EXPECT_EQ(found[0], 1);
  EXPECT_EQ(found[1], 0);
  EXPECT_EQ(found[2], 1);
  for (uint32_t d = 0; d < kDim; ++d) {
    EXPECT_EQ(out[0 * kDim + d], -0.5f);
    EXPECT_EQ(out[1 * kDim + d], 0.0f);
    EXPECT_EQ(out[2 * kDim + d], -0.5f);
  }
}

TEST(ServingTest, SnapshotIndexDrainsWhenUnpinned) {
  auto device = MakeDevice();
  StoreConfig config = ServingConfig();
  config.cache_bytes = 2 * 1024;  // force eviction/flush churn
  auto store = PipelinedStore::Create(config, device.get()).ValueOrDie();
  std::vector<EntryId> keys(64);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i;
  for (uint64_t batch = 1; batch <= 8; ++batch) {
    TrainStep(store.get(), keys, batch);
    ASSERT_TRUE(store->RequestCheckpoint(batch).ok());
    ASSERT_TRUE(store->DrainCheckpoints().ok());
  }
  // Every superseded record's GC batch has published and no reader holds a
  // snapshot pin, so the version index must be fully garbage-collected —
  // deferred records must not leak across checkpoints.
  EXPECT_EQ(store->SnapshotIndexRecords(), 0u);
}

// The tentpole property test: concurrent MultiGet readers against a live
// training loop never observe a mix of two checkpoint versions. Randomized
// (OE_TEST_SEED reruns a failure); run across >= 3 seeds. The reader
// threads make this binary the serving TSan workload as well.
TEST(ServingTest, SnapshotReadsNeverMixVersionsUnderConcurrentPushes) {
  const uint64_t base_seed = TestSeed(7);
  for (uint64_t seed = base_seed; seed < base_seed + 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto device = MakeDevice();
    StoreConfig config = ServingConfig();
    config.cache_bytes = 2 * 1024;  // eviction churn: flushes defer records
    config.maintainer_threads = 2;
    auto store = PipelinedStore::Create(config, device.get()).ValueOrDie();

    std::vector<EntryId> keys(48);
    for (size_t i = 0; i < keys.size(); ++i) keys[i] = i;
    constexpr uint64_t kBatches = 12;
    constexpr int kReaders = 3;

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> max_requested{0};
    std::mutex failure_mutex;
    std::vector<std::string> failures;  // gtest asserts are not thread-safe
    auto record_failure = [&](const std::string& message) {
      std::lock_guard<std::mutex> lock(failure_mutex);
      if (failures.size() < 5) failures.push_back(message);
    };

    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        Random rng(seed * 1000 + r);
        std::vector<EntryId> query;
        std::vector<float> out;
        std::vector<uint8_t> found;
        while (!stop.load(std::memory_order_acquire)) {
          query.clear();
          const size_t count = 1 + rng.Uniform(keys.size());
          for (size_t i = 0; i < count; ++i) {
            query.push_back(keys[rng.Uniform(keys.size())]);
          }
          out.assign(query.size() * kDim, -1.0f);
          found.assign(query.size(), 2);
          uint64_t cp = ~0ULL;
          const Status status = store->MultiGet(
              query.data(), query.size(), out.data(), found.data(), &cp);
          if (!status.ok()) {
            record_failure("MultiGet failed: " + status.ToString());
            return;
          }
          // A version can publish (maintainer thread) before this test's
          // main thread observes the drain, so the tight bound readers can
          // check is "was ever requested", recorded before the request.
          if (cp > max_requested.load(std::memory_order_acquire)) {
            record_failure("snapshot version " + std::to_string(cp) +
                           " exceeds every requested checkpoint");
            return;
          }
          // Every key exists from checkpoint 1 on, and every weight is
          // exactly -0.5 * cp at checkpoint cp. A single value from any
          // other checkpoint version breaks the equality.
          const float expected = -0.5f * static_cast<float>(cp);
          for (size_t i = 0; i < query.size(); ++i) {
            if (found[i] != (cp >= 1 ? 1 : 0)) {
              record_failure("found[" + std::to_string(i) + "] = " +
                             std::to_string(found[i]) + " at snapshot " +
                             std::to_string(cp));
              return;
            }
            if (cp == 0) continue;
            for (uint32_t d = 0; d < kDim; ++d) {
              const float got = out[i * kDim + d];
              if (got != expected) {
                std::ostringstream os;
                os << "torn snapshot: key " << query[i] << " dim " << d
                   << " = " << got << ", want " << expected << " at cp "
                   << cp;
                record_failure(os.str());
                return;
              }
            }
          }
        }
      });
    }

    for (uint64_t batch = 1; batch <= kBatches; ++batch) {
      TrainStep(store.get(), keys, batch);
      if (::testing::Test::HasFatalFailure()) break;
      max_requested.store(batch, std::memory_order_release);
      ASSERT_TRUE(store->RequestCheckpoint(batch).ok());
      ASSERT_TRUE(store->DrainCheckpoints().ok());
    }
    stop.store(true, std::memory_order_release);
    for (auto& reader : readers) reader.join();
    for (const auto& failure : failures) ADD_FAILURE() << failure;
  }
}

TEST(ServingCacheTest, TagMismatchInvalidatesLazily) {
  ServingCache cache(/*capacity_bytes=*/64 * 1024, kDim);
  std::vector<float> value(kDim, 1.5f);
  cache.Insert(42, /*cp=*/1, value.data());

  std::vector<float> out(kDim, 0.0f);
  uint8_t* out_bytes = reinterpret_cast<uint8_t*>(out.data());
  EXPECT_TRUE(cache.Lookup(42, /*cp=*/1, out_bytes));
  EXPECT_EQ(out[0], 1.5f);

  // Same key at a newer checkpoint: stale entry must not be served.
  EXPECT_FALSE(cache.Lookup(42, /*cp=*/2, out_bytes));
  EXPECT_EQ(cache.stats().invalidated.load(), 1u);
  // And the stale entry is gone entirely.
  EXPECT_FALSE(cache.Lookup(42, /*cp=*/1, out_bytes));
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(ServingCacheTest, FullShardsEvictLeastRecentlyUsed) {
  ServingCache cache(/*capacity_bytes=*/4 * 1024, kDim);
  const size_t capacity = cache.capacity();
  ASSERT_GT(capacity, 0u);
  std::vector<float> value(kDim);
  // One spare byte puts the destination at an odd address: Lookup copies
  // bytes and needs no alignment.
  std::vector<uint8_t> out(1 + kDim * sizeof(float));
  uint64_t inserted = 0;
  for (uint64_t key = 0; key < 4 * capacity; ++key) {
    value.assign(kDim, static_cast<float>(key));
    cache.Insert(key, /*cp=*/1, value.data());
    ++inserted;
    ASSERT_LE(cache.entries(), capacity);
    // The key inserted last is always resident, with its value.
    ASSERT_TRUE(cache.Lookup(key, /*cp=*/1, out.data() + 1)) << "key " << key;
    float first = 0.0f;
    std::memcpy(&first, out.data() + 1, sizeof(first));
    ASSERT_EQ(first, static_cast<float>(key));
    // Key 0 is read after every insert, so it is never its shard's least
    // recently used entry and is never displaced.
    ASSERT_TRUE(cache.Lookup(0, /*cp=*/1, out.data() + 1)) << "after " << key;
    // Every key inserted is either resident or was displaced exactly once.
    ASSERT_EQ(cache.stats().evicted.load() + cache.entries(), inserted);
  }
  EXPECT_GT(cache.stats().evicted.load(), 0u);
  EXPECT_EQ(cache.stats().invalidated.load(), 0u);
}

/// Forwards to a PipelinedStore, except that its first MultiGet call first
/// trains and publishes checkpoint `batch`: a publish that lands between
/// PsService's cache probe and its store fetch.
class PublishOnFirstMultiGetStore final : public storage::EmbeddingStore {
 public:
  PublishOnFirstMultiGetStore(storage::EmbeddingStore* inner,
                              std::vector<EntryId> keys, uint64_t batch)
      : inner_(inner), keys_(std::move(keys)), batch_(batch) {}

  Status MultiGet(const EntryId* keys, size_t n, float* out, uint8_t* found,
                  uint64_t* snapshot_version) override {
    if (!published_) {
      published_ = true;
      TrainStep(inner_, keys_, batch_);
      OE_RETURN_IF_ERROR(inner_->RequestCheckpoint(batch_));
      OE_RETURN_IF_ERROR(inner_->DrainCheckpoints());
    }
    ++multigets_;
    return inner_->MultiGet(keys, n, out, found, snapshot_version);
  }
  Status Pull(const EntryId* keys, size_t n, uint64_t batch,
              float* out) override {
    return inner_->Pull(keys, n, batch, out);
  }
  void FinishPullPhase(uint64_t batch) override {
    inner_->FinishPullPhase(batch);
  }
  Status Push(const EntryId* keys, size_t n, const float* grads,
              uint64_t batch) override {
    return inner_->Push(keys, n, grads, batch);
  }
  Status RequestCheckpoint(uint64_t batch) override {
    return inner_->RequestCheckpoint(batch);
  }
  Status DrainCheckpoints() override { return inner_->DrainCheckpoints(); }
  uint64_t PublishedCheckpoint() const override {
    return inner_->PublishedCheckpoint();
  }
  Status RecoverFromCrash() override { return inner_->RecoverFromCrash(); }
  size_t EntryCount() const override { return inner_->EntryCount(); }
  Result<std::vector<float>> Peek(EntryId key) const override {
    return inner_->Peek(key);
  }
  const storage::StoreStats& stats() const override { return inner_->stats(); }
  const StoreConfig& config() const override { return inner_->config(); }
  const pmem::DeviceStats& dram_stats() const override {
    return inner_->dram_stats();
  }

  /// Store reads issued so far.
  int multigets() const { return multigets_; }

 private:
  storage::EmbeddingStore* inner_;
  const std::vector<EntryId> keys_;
  const uint64_t batch_;
  bool published_ = false;
  int multigets_ = 0;
};

struct MultiGetReply {
  uint64_t cp = 0;
  std::vector<uint8_t> found;
  std::vector<float> weights;
};

/// Sends one kMultiGet through `service` and decodes the reply.
MultiGetReply ServiceMultiGet(ps::PsService* service,
                              const std::vector<EntryId>& keys) {
  net::Buffer request;
  net::Writer writer(&request);
  writer.PutU64(0);  // client id: reads opt out of dedup
  writer.PutU64(0);  // seq
  writer.PutU64Span(keys.data(), keys.size());
  net::Buffer response;
  MultiGetReply reply;
  EXPECT_TRUE(service
                  ->Handle(static_cast<uint32_t>(ps::PsMethod::kMultiGet),
                           request, &response)
                  .ok());
  net::Reader reader(response);
  reply.found.resize(keys.size());
  EXPECT_TRUE(reader.GetU64(&reply.cp).ok());
  EXPECT_TRUE(reader.GetRaw(reply.found.data(), keys.size()).ok());
  EXPECT_TRUE(reader.GetFloatSpan(&reply.weights).ok());
  EXPECT_EQ(reader.remaining(), 0u);
  return reply;
}

/// Publishes checkpoint 2, warms the first `warm` of 10 keys into a
/// PsService's ServingCache at checkpoint 2, and then serves all 10 keys
/// through the service while checkpoint 3 publishes between the cache probe
/// and the store fetch. The reply must be checkpoint 3 throughout: the
/// warmed hits are checkpoint-2 values and may not be mixed in. With 10
/// keys the reply's rows start at byte 22, off float alignment.
void ExpectPublishRaceServesNewCheckpoint(size_t warm) {
  auto device = MakeDevice();
  auto inner = PipelinedStore::Create(ServingConfig(), device.get())
                   .ValueOrDie();
  std::vector<EntryId> keys(10);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = 100 + i;
  for (uint64_t batch = 1; batch <= 2; ++batch) {
    TrainStep(inner.get(), keys, batch);
    ASSERT_TRUE(inner->RequestCheckpoint(batch).ok());
    ASSERT_TRUE(inner->DrainCheckpoints().ok());
  }
  ASSERT_EQ(inner->PublishedCheckpoint(), 2u);

  PublishOnFirstMultiGetStore store(inner.get(), keys, /*batch=*/3);
  ps::PsService service(&store);
  service.EnableServingCache(64 * 1024);
  ServingCache* cache = service.serving_cache();
  std::vector<float> row(kDim);
  std::vector<uint8_t> row_found(1);
  for (size_t i = 0; i < warm; ++i) {
    uint64_t cp = 0;
    ASSERT_TRUE(
        inner->MultiGet(&keys[i], 1, row.data(), row_found.data(), &cp).ok());
    ASSERT_EQ(cp, 2u);
    ASSERT_EQ(row[0], -1.0f);
    cache->Insert(keys[i], cp, row.data());
  }

  const MultiGetReply reply = ServiceMultiGet(&service, keys);
  EXPECT_EQ(reply.cp, 3u);
  ASSERT_EQ(reply.weights.size(), keys.size() * kDim);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(reply.found[i], 1) << "key " << keys[i];
    for (uint32_t d = 0; d < kDim; ++d) {
      EXPECT_EQ(reply.weights[i * kDim + d], -1.5f)
          << "key " << keys[i] << " dim " << d << " is not checkpoint 3's";
    }
  }

  // The rows just served are cached at checkpoint 3: the next read hits
  // every key and touches the store no more.
  const int store_reads = store.multigets();
  const uint64_t hits = cache->stats().hits.load();
  const MultiGetReply again = ServiceMultiGet(&service, keys);
  EXPECT_EQ(again.cp, 3u);
  EXPECT_EQ(again.weights, reply.weights);
  EXPECT_EQ(cache->stats().hits.load() - hits, keys.size());
  EXPECT_EQ(store.multigets(), store_reads);
}

TEST(ServingServiceTest, PublishBetweenProbeAndFetchRereadsEveryKey) {
  ExpectPublishRaceServesNewCheckpoint(/*warm=*/5);
}

TEST(ServingServiceTest, PublishBeforeFetchWithEveryKeyMissing) {
  ExpectPublishRaceServesNewCheckpoint(/*warm=*/0);
}

TEST(ServingClusterTest, ClientMultiGetServesConsistentClusterSnapshot) {
  ClusterOptions options;
  options.num_nodes = 2;
  options.store = ServingConfig();
  options.serving_cache_bytes = 256 * 1024;
  auto cluster = PsCluster::Create(options).ValueOrDie();
  auto& client = cluster->client();

  std::vector<EntryId> keys(32);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i;
  std::vector<float> weights(keys.size() * kDim);
  std::vector<float> grads(keys.size() * kDim, 1.0f);
  for (uint64_t batch = 1; batch <= 3; ++batch) {
    ASSERT_TRUE(
        client.Pull(keys.data(), keys.size(), batch, weights.data()).ok());
    ASSERT_TRUE(client.FinishPullPhase(batch).ok());
    ASSERT_TRUE(
        client.Push(keys.data(), keys.size(), grads.data(), batch).ok());
    ASSERT_TRUE(client.RequestCheckpoint(batch).ok());
    ASSERT_TRUE(client.DrainCheckpoints().ok());
  }

  std::vector<float> out(keys.size() * kDim);
  std::vector<uint8_t> found(keys.size());
  uint64_t cp = 0;
  ASSERT_TRUE(client
                  .MultiGet(keys.data(), keys.size(), out.data(),
                            found.data(), &cp)
                  .ok());
  EXPECT_EQ(cp, 3u);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(found[i], 1);
    for (uint32_t d = 0; d < kDim; ++d) {
      EXPECT_EQ(out[i * kDim + d], -1.5f) << "key " << keys[i];
    }
  }

  // Second round hits the per-node serving caches.
  ASSERT_TRUE(client
                  .MultiGet(keys.data(), keys.size(), out.data(),
                            found.data(), &cp)
                  .ok());
  uint64_t hits = 0;
  for (uint32_t node = 0; node < options.num_nodes; ++node) {
    ASSERT_NE(cluster->service(node)->serving_cache(), nullptr);
    hits += cluster->service(node)->serving_cache()->stats().hits.load();
  }
  EXPECT_GT(hits, 0u);
  for (size_t i = 0; i < keys.size(); ++i) {
    for (uint32_t d = 0; d < kDim; ++d) {
      EXPECT_EQ(out[i * kDim + d], -1.5f);
    }
  }
}

TEST(ServingClusterTest, ServingCacheDoesNotServeStaleAfterNewCheckpoint) {
  ClusterOptions options;
  options.num_nodes = 2;
  options.store = ServingConfig();
  options.serving_cache_bytes = 256 * 1024;
  auto cluster = PsCluster::Create(options).ValueOrDie();
  auto& client = cluster->client();

  std::vector<EntryId> keys(16);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i;
  std::vector<float> weights(keys.size() * kDim);
  std::vector<float> grads(keys.size() * kDim, 1.0f);
  std::vector<float> out(keys.size() * kDim);
  std::vector<uint8_t> found(keys.size());

  for (uint64_t batch = 1; batch <= 4; ++batch) {
    ASSERT_TRUE(
        client.Pull(keys.data(), keys.size(), batch, weights.data()).ok());
    ASSERT_TRUE(client.FinishPullPhase(batch).ok());
    ASSERT_TRUE(
        client.Push(keys.data(), keys.size(), grads.data(), batch).ok());
    ASSERT_TRUE(client.RequestCheckpoint(batch).ok());
    ASSERT_TRUE(client.DrainCheckpoints().ok());

    // A read right after every publish must serve the fresh version even
    // though the previous round populated the caches with the old one.
    uint64_t cp = 0;
    ASSERT_TRUE(client
                    .MultiGet(keys.data(), keys.size(), out.data(),
                              found.data(), &cp)
                    .ok());
    ASSERT_EQ(cp, batch);
    const float expected = -0.5f * static_cast<float>(batch);
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(found[i], 1);
      for (uint32_t d = 0; d < kDim; ++d) {
        ASSERT_EQ(out[i * kDim + d], expected)
            << "stale cache serve at batch " << batch;
      }
    }
  }
}

TEST(ServingDefaultEngineTest, BaseClassMultiGetServesLiveValues) {
  // Engines without a versioned read path fall back to the Peek-based
  // default: live values, found flags, PublishedCheckpoint as the version.
  ClusterOptions options;
  options.num_nodes = 1;
  options.kind = storage::StoreKind::kDram;
  options.store = ServingConfig();
  auto cluster = PsCluster::Create(options).ValueOrDie();
  auto* store = cluster->store(0);

  std::vector<EntryId> keys = {5, 6};
  std::vector<float> weights(keys.size() * kDim);
  ASSERT_TRUE(
      store->Pull(keys.data(), keys.size(), 1, weights.data()).ok());
  store->FinishPullPhase(1);
  std::vector<float> grads(keys.size() * kDim, 1.0f);
  ASSERT_TRUE(store->Push(keys.data(), keys.size(), grads.data(), 1).ok());

  const std::vector<EntryId> query = {5, 999, 6};
  std::vector<float> out(query.size() * kDim, 42.0f);
  std::vector<uint8_t> found(query.size(), 2);
  uint64_t cp = ~0ULL;
  ASSERT_TRUE(store
                  ->MultiGet(query.data(), query.size(), out.data(),
                             found.data(), &cp)
                  .ok());
  EXPECT_EQ(cp, store->PublishedCheckpoint());
  EXPECT_EQ(found[0], 1);
  EXPECT_EQ(found[1], 0);
  EXPECT_EQ(found[2], 1);
  for (uint32_t d = 0; d < kDim; ++d) {
    EXPECT_EQ(out[0 * kDim + d], -0.5f);
    EXPECT_EQ(out[1 * kDim + d], 0.0f);
    EXPECT_EQ(out[2 * kDim + d], -0.5f);
  }
}

// ---------- Node restart ----------

/// A Pipelined-store cluster of `nodes` nodes, SGD at lr 0.1.
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

/// Trains batches [from, to] on `keys`: pull, finish-pull, then push the
/// gradient 0.01 * batch to every key.
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

}  // namespace
}  // namespace oe
