// Cross-cutting property tests: optimizer state must survive eviction and
// recovery, malformed RPC bytes must never crash a PS node, the simulator
// must be deterministic, and assorted edge cases across modules.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <numeric>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "ps/ps_service.h"
#include "sim/training_sim.h"
#include "storage/dram_store.h"
#include "storage/pipelined_store.h"
#include "test_util.h"

namespace oe {
namespace {

using storage::DramStore;
using storage::EntryId;
using storage::OptimizerKind;
using storage::PipelinedStore;
using storage::StoreConfig;

constexpr uint32_t kDim = 8;

std::unique_ptr<pmem::PmemDevice> MakeDevice(uint64_t size = 32 << 20) {
  return oe::test::MakeDevice({.size_bytes = size});
}

// ---------- Optimizer state durability ----------

// The same gradient sequence applied through a store whose cache is so
// small that every entry round-trips through PMem between batches must
// produce exactly the trajectory of an all-DRAM reference. This fails if
// optimizer state (AdaGrad accumulators, Adam moments) is dropped or
// corrupted by flush/evict/load.
class OptimizerDurabilityTest
    : public ::testing::TestWithParam<OptimizerKind> {};

TEST_P(OptimizerDurabilityTest, StateSurvivesEvictionRoundTrips) {
  StoreConfig config;
  config.dim = kDim;
  config.optimizer.kind = GetParam();
  config.optimizer.learning_rate = 0.1f;
  config.cache_bytes = 1;  // capacity clamps to one entry: constant churn

  auto device = MakeDevice();
  auto pmem_store = PipelinedStore::Create(config, device.get()).ValueOrDie();
  StoreConfig dram_config = config;
  dram_config.cache_bytes = 64 << 20;
  auto dram_store = DramStore::Create(dram_config, nullptr).ValueOrDie();

  const uint64_t seed = oe::test::TestSeed(55);
  SCOPED_TRACE("OE_TEST_SEED=" + std::to_string(seed));
  Random rng(seed);
  std::vector<EntryId> keys = {1, 2, 3, 4, 5, 6, 7, 8};
  for (uint64_t batch = 1; batch <= 15; ++batch) {
    std::vector<float> w(keys.size() * kDim);
    ASSERT_TRUE(
        pmem_store->Pull(keys.data(), keys.size(), batch, w.data()).ok());
    pmem_store->FinishPullPhase(batch);
    ASSERT_TRUE(
        dram_store->Pull(keys.data(), keys.size(), batch, w.data()).ok());
    std::vector<float> grads(keys.size() * kDim);
    for (auto& g : grads) g = rng.UniformFloat(-1.0f, 1.0f);
    ASSERT_TRUE(
        pmem_store->Push(keys.data(), keys.size(), grads.data(), batch).ok());
    ASSERT_TRUE(
        dram_store->Push(keys.data(), keys.size(), grads.data(), batch).ok());
  }
  pmem_store->WaitMaintenance(15);
  EXPECT_GT(pmem_store->stats().evictions.load(), 50u);  // real churn
  for (EntryId key : keys) {
    auto pmem_weights = pmem_store->Peek(key).ValueOrDie();
    auto dram_weights = dram_store->Peek(key).ValueOrDie();
    for (uint32_t d = 0; d < kDim; ++d) {
      EXPECT_NEAR(pmem_weights[d], dram_weights[d], 1e-5)
          << "key " << key << " " << OptimizerKindToString(GetParam());
    }
  }
}

TEST_P(OptimizerDurabilityTest, StateSurvivesCrashRecovery) {
  StoreConfig config;
  config.dim = kDim;
  config.optimizer.kind = GetParam();
  config.optimizer.learning_rate = 0.1f;
  config.cache_bytes = 8 * 1024;

  auto device = MakeDevice();
  auto store = PipelinedStore::Create(config, device.get()).ValueOrDie();
  std::vector<EntryId> keys = {10, 20};
  const uint64_t seed = oe::test::TestSeed(7);
  SCOPED_TRACE("OE_TEST_SEED=" + std::to_string(seed));
  Random rng(seed);

  auto run_batch = [&](uint64_t batch) {
    std::vector<float> w(keys.size() * kDim);
    ASSERT_TRUE(store->Pull(keys.data(), keys.size(), batch, w.data()).ok());
    store->FinishPullPhase(batch);
    std::vector<float> grads(keys.size() * kDim);
    for (auto& g : grads) g = rng.UniformFloat(-1.0f, 1.0f);
    ASSERT_TRUE(
        store->Push(keys.data(), keys.size(), grads.data(), batch).ok());
  };

  for (uint64_t batch = 1; batch <= 5; ++batch) run_batch(batch);
  ASSERT_TRUE(store->RequestCheckpoint(5).ok());
  ASSERT_TRUE(store->DrainCheckpoints().ok());

  // Record the trajectory continuing WITHOUT a crash...
  Random continuation_rng = rng;
  std::vector<float> grads6(keys.size() * kDim);
  for (auto& g : grads6) g = continuation_rng.UniformFloat(-1.0f, 1.0f);

  device->SimulateCrash();
  ASSERT_TRUE(store->RecoverFromCrash().ok());

  // ...and replay the same batch 6 post-recovery. With intact optimizer
  // state the result must be deterministic and finite.
  std::vector<float> w(keys.size() * kDim);
  ASSERT_TRUE(store->Pull(keys.data(), keys.size(), 6, w.data()).ok());
  store->FinishPullPhase(6);
  ASSERT_TRUE(store->Push(keys.data(), keys.size(), grads6.data(), 6).ok());
  for (EntryId key : keys) {
    for (float v : store->Peek(key).ValueOrDie()) {
      EXPECT_TRUE(std::isfinite(v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Optimizers, OptimizerDurabilityTest,
                         ::testing::Values(OptimizerKind::kSgd,
                                           OptimizerKind::kAdaGrad,
                                           OptimizerKind::kAdam),
                         [](const auto& info) {
                           return std::string(
                               storage::OptimizerKindToString(info.param));
                         });

// ---------- RPC robustness: fuzzing the service decoder ----------

TEST(PsServiceFuzzTest, MalformedRequestsNeverCrash) {
  StoreConfig config;
  config.dim = kDim;
  auto device = MakeDevice();
  auto store = PipelinedStore::Create(config, device.get()).ValueOrDie();
  ps::PsService service(store.get());

  const uint64_t seed = oe::test::TestSeed(1234);
  SCOPED_TRACE("OE_TEST_SEED=" + std::to_string(seed));
  Random rng(seed);
  net::Buffer request;
  net::Buffer response;
  int rejected = 0;
  for (int i = 0; i < 3000; ++i) {
    const uint32_t method = static_cast<uint32_t>(rng.Uniform(14));
    request.resize(rng.Uniform(64));
    for (auto& b : request) b = static_cast<uint8_t>(rng.Next());
    const Status status = service.Handle(method, request, &response);
    if (!status.ok()) ++rejected;
    // The store must stay intact regardless.
  }
  EXPECT_GT(rejected, 0);
  auto peek = store->Peek(0);
  EXPECT_TRUE(peek.ok() || peek.status().IsNotFound());
}

TEST(PsServiceFuzzTest, TruncatedValidRequestsRejectedCleanly) {
  StoreConfig config;
  config.dim = kDim;
  auto device = MakeDevice();
  auto store = PipelinedStore::Create(config, device.get()).ValueOrDie();
  ps::PsService service(store.get());

  // A well-formed pull request (RpcHeader + batch + keys), truncated at
  // every length.
  net::Buffer good;
  net::Writer writer(&good);
  writer.PutU64(7);  // header: client_id
  writer.PutU64(0);  // header: seq (read: no dedup)
  writer.PutU64(1);
  std::vector<uint64_t> keys = {1, 2, 3};
  writer.PutU64Span(keys.data(), keys.size());

  net::Buffer response;
  for (size_t cut = 0; cut < good.size(); ++cut) {
    net::Buffer truncated(good.begin(), good.begin() + cut);
    const Status status = service.Handle(
        static_cast<uint32_t>(ps::PsMethod::kPull), truncated, &response);
    EXPECT_FALSE(status.ok()) << "cut=" << cut;
  }
  // The untruncated request works.
  EXPECT_TRUE(service
                  .Handle(static_cast<uint32_t>(ps::PsMethod::kPull), good,
                          &response)
                  .ok());
}

/// A push request: RpcHeader (client 7, no dedup), batch, keys, then a
/// gradient span that claims `grad_count` floats and carries `grads`.
net::Buffer PushRequest(uint64_t batch, const std::vector<uint64_t>& keys,
                        uint32_t grad_count, const std::vector<float>& grads) {
  net::Buffer request;
  net::Writer writer(&request);
  writer.PutU64(7);
  writer.PutU64(0);
  writer.PutU64(batch);
  writer.PutU64Span(keys.data(), keys.size());
  writer.PutU32(grad_count);
  writer.PutRaw(grads.data(), grads.size() * sizeof(float));
  return request;
}

net::Buffer PullRequest(uint64_t batch, const std::vector<uint64_t>& keys) {
  net::Buffer request;
  net::Writer writer(&request);
  writer.PutU64(7);
  writer.PutU64(0);
  writer.PutU64(batch);
  writer.PutU64Span(keys.data(), keys.size());
  return request;
}

TEST(PsServiceWireTest, PushSpansApplyExactlyOrNotAtAll) {
  StoreConfig config;
  config.dim = kDim;
  auto device = MakeDevice();
  auto store = PipelinedStore::Create(config, device.get()).ValueOrDie();
  ps::PsService service(store.get());
  // The reference store receives the same valid push through its own API.
  auto ref_device = MakeDevice();
  auto reference =
      PipelinedStore::Create(config, ref_device.get()).ValueOrDie();

  const std::vector<uint64_t> keys = {1, 2, 3};
  const uint32_t want = static_cast<uint32_t>(keys.size() * kDim);
  net::Buffer response;
  ASSERT_TRUE(service
                  .Handle(static_cast<uint32_t>(ps::PsMethod::kPull),
                          PullRequest(1, keys), &response)
                  .ok());
  std::vector<float> scratch(want);
  ASSERT_TRUE(
      reference->Pull(keys.data(), keys.size(), 1, scratch.data()).ok());
  auto peek_all = [&](const storage::EmbeddingStore& s) {
    std::vector<std::vector<float>> all;
    for (uint64_t key : keys) all.push_back(s.Peek(key).ValueOrDie());
    return all;
  };
  const auto initial = peek_all(*store);

  std::vector<float> grads(want + 1);
  for (size_t i = 0; i < grads.size(); ++i) {
    grads[i] = 0.125f * static_cast<float>(i % 7) - 0.25f;
  }
  const std::vector<float> exact(grads.begin(), grads.begin() + want);
  const std::vector<float> short_grads(grads.begin(), grads.begin() + want - 1);
  const uint32_t push = static_cast<uint32_t>(ps::PsMethod::kPush);

  // Short, long and truncated gradient spans are rejected whole.
  EXPECT_EQ(service.Handle(push, PushRequest(1, keys, want - 1, short_grads),
                           &response)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.Handle(push, PushRequest(1, keys, want + 1, grads),
                           &response)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.Handle(push, PushRequest(1, keys, want, short_grads),
                           &response)
                .code(),
            StatusCode::kCorruption);
  EXPECT_EQ(peek_all(*store), initial) << "a rejected push applied";

  // A valid push whose bytes start at an odd offset: its gradient span is
  // not float-aligned, and it applies exactly once.
  const net::Buffer valid = PushRequest(1, keys, want, exact);
  net::Buffer shifted(valid.size() + 1);
  std::memcpy(shifted.data() + 1, valid.data(), valid.size());
  ASSERT_TRUE(
      service.Handle(push, shifted.data() + 1, valid.size(), &response).ok());
  ASSERT_TRUE(
      reference->Push(keys.data(), keys.size(), exact.data(), 1).ok());
  const auto applied = peek_all(*store);
  EXPECT_NE(applied, initial);
  EXPECT_EQ(applied, peek_all(*reference));
}

/// Forwards to a DramStore, except that Pull scribbles into `out` and then
/// fails.
class FailingPullStore final : public storage::EmbeddingStore {
 public:
  explicit FailingPullStore(storage::EmbeddingStore* inner) : inner_(inner) {}
  Status Pull(const EntryId*, size_t n, uint64_t, float* out) override {
    std::fill_n(out, n * config().dim, 9.0f);
    return Status::IoError("injected pull failure");
  }
  Status Push(const EntryId* keys, size_t n, const float* grads,
              uint64_t batch) override {
    return inner_->Push(keys, n, grads, batch);
  }
  Status RequestCheckpoint(uint64_t batch) override {
    return inner_->RequestCheckpoint(batch);
  }
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

 private:
  storage::EmbeddingStore* inner_;
};

TEST(PsServiceWireTest, FailingPullLeavesAnEmptyResponse) {
  StoreConfig config;
  config.dim = kDim;
  auto inner = DramStore::Create(config, nullptr).ValueOrDie();
  FailingPullStore store(inner.get());
  ps::PsService service(&store);
  net::Buffer response;
  const Status status =
      service.Handle(static_cast<uint32_t>(ps::PsMethod::kPull),
                     PullRequest(1, {1, 2, 3}), &response);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_TRUE(response.empty());
}

// ---------- Simulator determinism ----------

TEST(SimDeterminismTest, IdenticalSeedsIdenticalReports) {
  sim::SimOptions options;
  options.kind = storage::StoreKind::kPipelined;
  options.num_gpus = 4;
  options.num_keys = 1 << 16;
  options.keys_per_worker_batch = 1024;
  options.rounds = 6;
  options.num_nodes = 2;
  options.store.dim = 16;
  options.store.cache_bytes = 1 << 20;
  options.pmem_bytes_per_node = 128ULL << 20;

  auto a = sim::TrainingSimulator(options).Run();
  auto b = sim::TrainingSimulator(options).Run();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().epoch_ns, b.value().epoch_ns);
  EXPECT_EQ(a.value().miss_rate, b.value().miss_rate);
  EXPECT_EQ(a.value().pmem_write_bytes, b.value().pmem_write_bytes);
}

// ---------- Store edge cases ----------

TEST(StoreEdgeTest, ZeroKeyPullAndPushSucceed) {
  StoreConfig config;
  config.dim = kDim;
  auto device = MakeDevice();
  auto store = PipelinedStore::Create(config, device.get()).ValueOrDie();
  EXPECT_TRUE(store->Pull(nullptr, 0, 1, nullptr).ok());
  store->FinishPullPhase(1);
  EXPECT_TRUE(store->Push(nullptr, 0, nullptr, 1).ok());
}

TEST(StoreEdgeTest, DuplicateKeysInOnePull) {
  StoreConfig config;
  config.dim = kDim;
  auto device = MakeDevice();
  auto store = PipelinedStore::Create(config, device.get()).ValueOrDie();
  std::vector<EntryId> keys = {7, 7, 7, 8};
  std::vector<float> w(keys.size() * kDim);
  ASSERT_TRUE(store->Pull(keys.data(), keys.size(), 1, w.data()).ok());
  // All duplicates return identical weights.
  for (uint32_t d = 0; d < kDim; ++d) {
    EXPECT_EQ(w[d], w[kDim + d]);
    EXPECT_EQ(w[d], w[2 * kDim + d]);
  }
  EXPECT_EQ(store->EntryCount(), 2u);
}

TEST(StoreEdgeTest, PoolExhaustionSurfacesAsError) {
  StoreConfig config;
  config.dim = 64;
  config.cache_bytes = 1;  // force every entry through PMem
  pmem::PmemDeviceOptions device_options;
  device_options.size_bytes = 1 << 20;  // tiny pool
  device_options.crash_fidelity = pmem::CrashFidelity::kNone;
  auto device = pmem::PmemDevice::Create(device_options).ValueOrDie();
  auto store = PipelinedStore::Create(config, device.get()).ValueOrDie();

  std::vector<EntryId> keys(64);
  std::vector<float> w(keys.size() * 64);
  bool saw_failure = false;
  SetLogLevel(LogLevel::kFatal);  // expected OutOfSpace noise
  for (uint64_t batch = 1; batch <= 64 && !saw_failure; ++batch) {
    std::iota(keys.begin(), keys.end(), batch * 1000);
    Status status = store->Pull(keys.data(), keys.size(), batch, w.data());
    store->FinishPullPhase(batch);
    store->WaitMaintenance(batch);
    saw_failure = !status.ok();
  }
  SetLogLevel(LogLevel::kInfo);
  // Exhaustion must surface as a Status (via direct create) or be logged
  // by maintenance; the store must not crash and must stay readable.
  EXPECT_TRUE(store->EntryCount() > 0);
}

TEST(StoreEdgeTest, RecoverTwiceIsIdempotent) {
  StoreConfig config;
  config.dim = kDim;
  auto device = MakeDevice();
  auto store = PipelinedStore::Create(config, device.get()).ValueOrDie();
  std::vector<EntryId> keys = {1, 2, 3};
  std::vector<float> w(keys.size() * kDim);
  ASSERT_TRUE(store->Pull(keys.data(), keys.size(), 1, w.data()).ok());
  store->FinishPullPhase(1);
  std::vector<float> g(keys.size() * kDim, 0.5f);
  ASSERT_TRUE(store->Push(keys.data(), keys.size(), g.data(), 1).ok());
  ASSERT_TRUE(store->RequestCheckpoint(1).ok());
  ASSERT_TRUE(store->DrainCheckpoints().ok());

  device->SimulateCrash();
  ASSERT_TRUE(store->RecoverFromCrash().ok());
  auto first = store->Peek(1).ValueOrDie();
  ASSERT_TRUE(store->RecoverFromCrash().ok());
  EXPECT_EQ(store->Peek(1).ValueOrDie(), first);
  EXPECT_EQ(store->EntryCount(), keys.size());
}

}  // namespace
}  // namespace oe
