#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "net/message.h"
#include "net/transport.h"
#include "ps/ps_cluster.h"
#include "ps/router.h"

namespace oe::ps {
namespace {

using storage::StoreKind;

constexpr uint32_t kDim = 8;

ClusterOptions BaseOptions(StoreKind kind, uint32_t nodes) {
  ClusterOptions options;
  options.num_nodes = nodes;
  options.kind = kind;
  options.store.dim = kDim;
  options.store.optimizer.learning_rate = 0.5f;
  options.store.cache_bytes = 16 * 1024;
  options.crash_fidelity = pmem::CrashFidelity::kStrict;
  return options;
}

TEST(RouterTest, CoversAllNodesRoughlyEvenly) {
  Router router(4);
  std::vector<int> counts(4, 0);
  for (uint64_t key = 0; key < 4000; ++key) ++counts[router.NodeFor(key)];
  for (int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(RouterTest, Deterministic) {
  Router a(8), b(8);
  for (uint64_t key = 0; key < 100; ++key) {
    EXPECT_EQ(a.NodeFor(key), b.NodeFor(key));
  }
  // Slot s lives on node s % n, so for power-of-two n the route is the
  // plain hash % n.
  for (uint32_t n : {1u, 2u, 3u, 4u, 8u, 16u}) {
    const Router router(n);
    EXPECT_EQ(router.num_nodes(), n);
    for (uint64_t key = 0; key < 4096; ++key) {
      EXPECT_EQ(router.NodeFor(key), SlotOfKey(key) % n) << "n=" << n;
    }
  }
}

class PsClusterTest : public ::testing::TestWithParam<StoreKind> {};

TEST_P(PsClusterTest, PullPushAcrossShards) {
  auto cluster = PsCluster::Create(BaseOptions(GetParam(), 4)).ValueOrDie();
  auto& client = cluster->client();

  std::vector<uint64_t> keys(32);
  std::iota(keys.begin(), keys.end(), 100);
  std::vector<float> weights(keys.size() * kDim);
  ASSERT_TRUE(client.Pull(keys.data(), keys.size(), 1, weights.data()).ok());
  ASSERT_TRUE(client.FinishPullPhase(1).ok());

  std::vector<float> grads(keys.size() * kDim, 1.0f);
  ASSERT_TRUE(client.Push(keys.data(), keys.size(), grads.data(), 1).ok());

  // Every key moved by -lr * grad regardless of which shard owns it.
  for (size_t i = 0; i < keys.size(); ++i) {
    auto after = client.Peek(keys[i]).ValueOrDie();
    for (uint32_t d = 0; d < kDim; ++d) {
      EXPECT_NEAR(after[d], weights[i * kDim + d] - 0.5f, 1e-5) << keys[i];
    }
  }
  EXPECT_EQ(client.TotalEntries().ValueOrDie(), keys.size());
}

TEST_P(PsClusterTest, ShardsPartitionKeys) {
  auto cluster = PsCluster::Create(BaseOptions(GetParam(), 4)).ValueOrDie();
  auto& client = cluster->client();
  std::vector<uint64_t> keys(64);
  std::iota(keys.begin(), keys.end(), 0);
  std::vector<float> weights(keys.size() * kDim);
  ASSERT_TRUE(client.Pull(keys.data(), keys.size(), 1, weights.data()).ok());

  size_t sum = 0;
  bool multiple_used = false;
  size_t nonzero = 0;
  for (uint32_t node = 0; node < 4; ++node) {
    const size_t count = cluster->store(node)->EntryCount();
    sum += count;
    if (count > 0) ++nonzero;
  }
  multiple_used = nonzero >= 2;
  EXPECT_EQ(sum, keys.size());
  EXPECT_TRUE(multiple_used);
}

INSTANTIATE_TEST_SUITE_P(Kinds, PsClusterTest,
                         ::testing::Values(StoreKind::kDram,
                                           StoreKind::kPipelined,
                                           StoreKind::kOriCache,
                                           StoreKind::kPmemHash),
                         [](const auto& info) {
                           return std::string(
                               storage::StoreKindToString(info.param) ==
                                       "PMem-OE"
                                   ? "PmemOe"
                               : storage::StoreKindToString(info.param) ==
                                       "DRAM-PS"
                                   ? "DramPs"
                               : storage::StoreKindToString(info.param) ==
                                       "Ori-Cache"
                                   ? "OriCache"
                                   : "PmemHash");
                         });

// Two workers push the same keys in the same batch, concurrently, so each
// owner applies their gradients in arrival order. SGD from zero with
// gradients in multiples of 1/64 and learning rate 1/2 is exact in any
// apply order: every key must equal the exact sum of both workers'
// updates, held by exactly one node.
TEST(PsClusterMultiWorkerTest, ConcurrentPushesOfOneKeySumExactly) {
  ClusterOptions options = BaseOptions(StoreKind::kPipelined, 2);
  options.store.initializer.kind = storage::InitializerKind::kZeros;
  auto cluster = PsCluster::Create(options).ValueOrDie();
  std::vector<std::unique_ptr<PsClient>> workers;
  workers.push_back(cluster->NewClient());
  workers.push_back(cluster->NewClient());
  std::vector<uint64_t> keys(8);
  std::iota(keys.begin(), keys.end(), 0);
  std::set<uint32_t> owners;
  for (uint64_t key : keys) {
    owners.insert(cluster->client().router().NodeFor(key));
  }
  ASSERT_EQ(owners.size(), 2u) << "the keys should span both nodes";

  auto grad = [](size_t worker, uint64_t batch, size_t i, uint32_t d) {
    const int m =
        static_cast<int>((worker * 7 + batch * 5 + i * 3 + d) % 17) - 8;
    return static_cast<float>(m) / 64.0f;
  };
  // Runs step(worker) on one thread per worker and checks every status.
  auto run_workers = [&](auto&& step) {
    std::vector<Status> status(workers.size());
    std::vector<std::thread> threads;
    for (size_t w = 0; w < workers.size(); ++w) {
      threads.emplace_back([&, w] { status[w] = step(w); });
    }
    for (auto& thread : threads) thread.join();
    for (const Status& s : status) ASSERT_TRUE(s.ok()) << s.ToString();
  };

  std::vector<double> want(keys.size() * kDim, 0.0);
  for (uint64_t batch = 1; batch <= 50; ++batch) {
    run_workers([&](size_t w) {
      std::vector<float> weights(keys.size() * kDim);
      return workers[w]->Pull(keys.data(), keys.size(), batch,
                              weights.data());
    });
    ASSERT_TRUE(cluster->client().FinishPullPhase(batch).ok());
    run_workers([&](size_t w) {
      std::vector<float> grads(keys.size() * kDim);
      for (size_t i = 0; i < keys.size(); ++i) {
        for (uint32_t d = 0; d < kDim; ++d) {
          grads[i * kDim + d] = grad(w, batch, i, d);
        }
      }
      return workers[w]->Push(keys.data(), keys.size(), grads.data(), batch);
    });
    for (size_t w = 0; w < workers.size(); ++w) {
      for (size_t i = 0; i < keys.size(); ++i) {
        for (uint32_t d = 0; d < kDim; ++d) {
          want[i * kDim + d] -= 0.5 * grad(w, batch, i, d);
        }
      }
    }
  }

  for (size_t i = 0; i < keys.size(); ++i) {
    const std::vector<float> got =
        cluster->client().Peek(keys[i]).ValueOrDie();
    ASSERT_EQ(got.size(), kDim);
    for (uint32_t d = 0; d < kDim; ++d) {
      EXPECT_EQ(got[d], static_cast<float>(want[i * kDim + d]))
          << "key " << keys[i] << " dim " << d;
    }
    int holders = 0;
    for (uint32_t node = 0; node < 2; ++node) {
      holders += cluster->store(node)->Peek(keys[i]).ok();
    }
    EXPECT_EQ(holders, 1) << "key " << keys[i];
  }
}

TEST(PsClusterLoadTest, NodePullKeysAccumulate) {
  auto cluster =
      PsCluster::Create(BaseOptions(StoreKind::kPipelined, 2)).ValueOrDie();
  auto& client = cluster->client();
  std::vector<uint64_t> keys(16);
  std::iota(keys.begin(), keys.end(), 0);
  std::vector<float> weights(keys.size() * kDim);
  std::vector<uint64_t> want(2, 0);
  for (uint64_t key : keys) want[client.router().NodeFor(key)] += 6;
  ASSERT_GT(want[0], 0u);
  ASSERT_GT(want[1], 0u);
  for (uint64_t batch = 1; batch <= 6; ++batch) {
    ASSERT_TRUE(
        client.Pull(keys.data(), keys.size(), batch, weights.data()).ok());
    ASSERT_TRUE(client.FinishPullPhase(batch).ok());
  }
  for (uint32_t node = 0; node < 2; ++node) {
    EXPECT_EQ(cluster->store(node)->stats_snapshot().pull_keys, want[node])
        << "node " << node;
  }
}

TEST(PsClusterCheckpointTest, DistributedCheckpointAndRecovery) {
  auto cluster =
      PsCluster::Create(BaseOptions(StoreKind::kPipelined, 3)).ValueOrDie();
  auto& client = cluster->client();
  Random rng(7);

  std::map<uint64_t, std::vector<float>> at_checkpoint;
  for (uint64_t batch = 1; batch <= 10; ++batch) {
    std::vector<uint64_t> keys;
    for (int i = 0; i < 24; ++i) keys.push_back(rng.Uniform(100));
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    std::vector<float> weights(keys.size() * kDim);
    ASSERT_TRUE(
        client.Pull(keys.data(), keys.size(), batch, weights.data()).ok());
    ASSERT_TRUE(client.FinishPullPhase(batch).ok());
    std::vector<float> grads(keys.size() * kDim);
    for (auto& g : grads) g = rng.UniformFloat(-0.5f, 0.5f);
    ASSERT_TRUE(
        client.Push(keys.data(), keys.size(), grads.data(), batch).ok());

    if (batch == 6) {
      ASSERT_TRUE(client.RequestCheckpoint(batch).ok());
      ASSERT_TRUE(client.DrainCheckpoints().ok());
      EXPECT_EQ(client.ClusterCheckpoint().ValueOrDie(), 6u);
      const uint64_t total = client.TotalEntries().ValueOrDie();
      for (uint64_t key = 0; key < 100; ++key) {
        auto r = client.Peek(key);
        if (r.ok()) at_checkpoint[key] = std::move(r).ValueOrDie();
      }
      EXPECT_EQ(at_checkpoint.size(), total);
    }
  }

  cluster->SimulateCrashAll();
  ASSERT_TRUE(client.Recover().ok());
  EXPECT_EQ(client.ClusterCheckpoint().ValueOrDie(), 6u);
  EXPECT_EQ(client.TotalEntries().ValueOrDie(), at_checkpoint.size());
  for (const auto& [key, expected] : at_checkpoint) {
    auto got = client.Peek(key);
    ASSERT_TRUE(got.ok()) << key;
    for (uint32_t d = 0; d < kDim; ++d) {
      EXPECT_NEAR(got.value()[d], expected[d], 1e-5) << key;
    }
  }
}

TEST(PsClusterTest, NetStatsAccumulate) {
  auto cluster =
      PsCluster::Create(BaseOptions(StoreKind::kDram, 2)).ValueOrDie();
  auto& client = cluster->client();
  std::vector<uint64_t> keys = {1, 2, 3, 4};
  std::vector<float> weights(keys.size() * kDim);
  ASSERT_TRUE(client.Pull(keys.data(), keys.size(), 1, weights.data()).ok());
  EXPECT_GT(cluster->net_stats().requests.load(), 0u);
  EXPECT_GT(cluster->net_stats().bytes_received.load(),
            keys.size() * kDim * sizeof(float) - 1);
}

TEST(PsClusterTest, ZeroNodesRejected) {
  ClusterOptions options = BaseOptions(StoreKind::kDram, 0);
  EXPECT_FALSE(PsCluster::Create(options).ok());
}

TEST(PsClusterTest, MultipleClientsShareState) {
  auto cluster =
      PsCluster::Create(BaseOptions(StoreKind::kPipelined, 2)).ValueOrDie();
  auto client_a = cluster->NewClient();
  auto client_b = cluster->NewClient();
  uint64_t key = 42;
  std::vector<float> w(kDim);
  ASSERT_TRUE(client_a->Pull(&key, 1, 1, w.data()).ok());
  ASSERT_TRUE(client_a->FinishPullPhase(1).ok());
  std::vector<float> g(kDim, 1.0f);
  ASSERT_TRUE(client_a->Push(&key, 1, g.data(), 1).ok());
  auto seen_by_b = client_b->Peek(key).ValueOrDie();
  for (uint32_t d = 0; d < kDim; ++d) {
    EXPECT_NEAR(seen_by_b[d], w[d] - 0.5f, 1e-5);
  }
}

// Pins the exact wire traffic of every client operation: one request per
// node that owns at least one key (every active node for a broadcast), each
// sized by the request and response formats. A change here moves
// perfbench's net.rpcs_per_batch and net.bytes_per_key.
TEST(PsClientTest, WireTrafficMatchesFormat) {
  constexpr uint32_t kNodes = 4;
  constexpr uint64_t kSmallDim = 4;
  ClusterOptions options = BaseOptions(StoreKind::kPipelined, kNodes);
  options.store.dim = kSmallDim;
  auto cluster = PsCluster::Create(options).ValueOrDie();
  auto& client = cluster->client();

  // Node n owns n + 1 of the keys, and the last node owns none.
  std::map<uint32_t, uint64_t> per_node;
  std::vector<uint64_t> keys;
  for (uint64_t key = 0; keys.size() < 6; ++key) {
    const uint32_t node = client.router().NodeFor(key);
    if (node + 1 < kNodes && per_node[node] < node + 1) {
      ++per_node[node];
      keys.push_back(key);
    }
  }

  struct Traffic {
    uint64_t requests = 0;
    uint64_t sent = 0;
    uint64_t received = 0;
  };
  constexpr uint64_t kHeader = 16;  // client id, seq
  constexpr uint64_t kRow = 4 * kSmallDim;
  auto keyed = [&](auto sent, auto received) {
    Traffic want;
    for (const auto& [node, k] : per_node) {
      ++want.requests;
      want.sent += sent(k);
      want.received += received(k);
    }
    return want;
  };
  auto broadcast = [&](uint64_t sent, uint64_t received) {
    return Traffic{kNodes, kNodes * sent, kNodes * received};
  };
  auto expect = [&](const char* op, Traffic want, auto call) {
    const net::NetStats::Snapshot before = cluster->net_stats().TakeSnapshot();
    const Status status = call();
    ASSERT_TRUE(status.ok()) << op << ": " << status.ToString();
    const net::NetStats::Snapshot after = cluster->net_stats().TakeSnapshot();
    EXPECT_EQ(after.requests - before.requests, want.requests) << op;
    EXPECT_EQ(after.bytes_sent - before.bytes_sent, want.sent) << op;
    EXPECT_EQ(after.bytes_received - before.bytes_received, want.received)
        << op;
  };

  const size_t n = keys.size();
  std::vector<float> weights(n * kSmallDim);
  std::vector<float> grads(n * kSmallDim, 1.0f);
  std::vector<uint8_t> found(n);
  expect("pull",
         keyed([](uint64_t k) { return kHeader + 8 + 4 + 8 * k; },
               [](uint64_t k) { return 4 + kRow * k; }),
         [&] { return client.Pull(keys.data(), n, 1, weights.data()); });
  expect("finish-pull", broadcast(kHeader + 8, 0),
         [&] { return client.FinishPullPhase(1); });
  expect("push",
         keyed(
             [](uint64_t k) { return kHeader + 8 + 4 + 8 * k + 4 + kRow * k; },
             [](uint64_t) { return uint64_t{0}; }),
         [&] { return client.Push(keys.data(), n, grads.data(), 1); });
  expect("wait-maintenance", broadcast(kHeader + 8, 0),
         [&] { return client.WaitMaintenance(1); });
  expect("request-checkpoint", broadcast(kHeader + 8, 0),
         [&] { return client.RequestCheckpoint(1); });
  expect("drain", broadcast(kHeader, 0),
         [&] { return client.DrainCheckpoints(); });
  expect("cluster-checkpoint", broadcast(kHeader, 8),
         [&] { return client.ClusterCheckpoint().status(); });
  expect("total-entries", broadcast(kHeader, 8),
         [&] { return client.TotalEntries().status(); });
  expect("multi-get",
         keyed([](uint64_t k) { return kHeader + 4 + 8 * k; },
               [](uint64_t k) { return 8 + k + 4 + kRow * k; }),
         [&] {
           uint64_t version = 0;
           return client.MultiGet(keys.data(), n, weights.data(),
                                   found.data(), &version);
         });
  expect("peek", Traffic{1, kHeader + 8, 4 + kRow},
         [&] { return client.Peek(keys[0]).status(); });
  cluster->SimulateCrashAll();
  expect("recover", broadcast(kHeader, 0), [&] { return client.Recover(); });
}

// Pull, Push, Peek and MultiGet make one round against a node that answers
// kWrongOwner: a client and a service that disagree on the fixed route is a
// hard error, returned after exactly one call. MultiGet retries only while
// the nodes disagree on the checkpoint they serve, for 8 attempts.
TEST(PsClientTest, RouteRetryBudget) {
  net::RpcOptions rpc_options;
  rpc_options.backoff_max_ms = 1;
  std::atomic<int> calls{0};
  std::vector<float> row(kDim, 1.0f);
  uint8_t found[2] = {0, 0};
  uint64_t version = 0;

  net::InProcTransport wrong;
  wrong.set_rpc_options(rpc_options);
  wrong.RegisterNode(0, [&calls](uint32_t, const net::Buffer&, net::Buffer*) {
    calls.fetch_add(1);
    return Status::WrongOwner("always the wrong owner");
  });
  PsClient client(&wrong, /*num_nodes=*/1, kDim);
  const uint64_t key = 7;
  auto calls_until = [&](StatusCode want, auto call) {
    calls = 0;
    const Status status = call();
    EXPECT_EQ(status.code(), want) << status.ToString();
    return calls.load();
  };
  EXPECT_EQ(calls_until(StatusCode::kWrongOwner,
                        [&] { return client.Pull(&key, 1, 1, row.data()); }),
            1);
  EXPECT_EQ(calls_until(StatusCode::kWrongOwner,
                        [&] { return client.Push(&key, 1, row.data(), 1); }),
            1);
  EXPECT_EQ(calls_until(StatusCode::kWrongOwner,
                        [&] { return client.Peek(key).status(); }),
            1);
  EXPECT_EQ(calls_until(StatusCode::kWrongOwner,
                        [&] {
                          return client.MultiGet(&key, 1, row.data(), found,
                                                 &version);
                        }),
            1);

  // Two nodes that always serve different checkpoints (node n serves
  // n + 1): every attempt calls both, and MultiGet gives up after 8.
  net::InProcTransport split;
  split.set_rpc_options(rpc_options);
  for (uint32_t node = 0; node < 2; ++node) {
    split.RegisterNode(node, [&calls, node](uint32_t, const net::Buffer&,
                                            net::Buffer* response) {
      calls.fetch_add(1);
      response->clear();
      net::Writer writer(response);
      writer.PutU64(node + 1);
      writer.PutRaw("\x01", 1);  // the one key is found
      const std::vector<float> weights(kDim, 0.0f);
      writer.PutFloatSpan(weights.data(), weights.size());
      return Status::OK();
    });
  }
  PsClient two(&split, /*num_nodes=*/2, kDim);
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; keys.size() < 2; ++k) {
    if (two.router().NodeFor(k) == keys.size()) keys.push_back(k);
  }
  std::vector<float> rows(2 * kDim);
  EXPECT_EQ(calls_until(StatusCode::kUnavailable,
                        [&] {
                          return two.MultiGet(keys.data(), 2, rows.data(),
                                              found, &version);
                        }),
            2 * 8);
}

// A service checks every key of a keyed request against the fixed route:
// node 1, handed a pull that names a node-0 key, rejects the whole request
// before any store access and counts the rejection.
TEST(PsServiceTest, RejectsKeysOfAnotherNode) {
  auto cluster =
      PsCluster::Create(BaseOptions(StoreKind::kPipelined, 2)).ValueOrDie();
  const Router& router = cluster->client().router();
  uint64_t mine = 0;
  while (router.NodeFor(mine) != 1) ++mine;
  uint64_t theirs = 0;
  while (router.NodeFor(theirs) != 0) ++theirs;

  net::Buffer request;
  net::Writer writer(&request);
  writer.PutU64(0);  // header: client id (no dedup)
  writer.PutU64(0);  // header: seq
  writer.PutU64(1);  // batch
  const std::vector<uint64_t> keys = {mine, theirs};
  writer.PutU64Span(keys.data(), keys.size());

  PsService* service = cluster->service(1);
  net::Buffer response;
  const Status status = service->Handle(
      static_cast<uint32_t>(PsMethod::kPull), request, &response);
  EXPECT_EQ(status.code(), StatusCode::kWrongOwner) << status.ToString();
  EXPECT_EQ(service->WrongOwnerRejects(), 1u);
  EXPECT_EQ(cluster->store(1)->EntryCount(), 0u);
  EXPECT_EQ(cluster->store(1)->stats_snapshot().pull_keys, 0u);
  EXPECT_TRUE(response.empty());
}

}  // namespace
}  // namespace oe::ps
