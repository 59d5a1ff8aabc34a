// Quickstart: the OpenEmbedding parameter server in one file.
//
// Creates a 2-node PMem-backed embedding parameter server, runs a few
// synchronous training batches (pull -> compute -> push) through its
// client, takes a lightweight batch-aware checkpoint, crashes the
// simulated PMem devices, and recovers to exactly the checkpointed state.
// Exits non-zero unless the recovered weight equals the checkpointed one.

#include <cstdio>
#include <numeric>
#include <vector>

#include "ps/ps_cluster.h"

int main() {
  oe::ps::ClusterOptions options;
  options.num_nodes = 2;
  options.store.dim = 16;
  options.store.optimizer.kind = oe::storage::OptimizerKind::kAdaGrad;
  options.store.optimizer.learning_rate = 0.05f;
  options.store.cache_bytes = 1 << 20;
  // Strict crash fidelity: a simulated crash drops every non-durable write.
  options.crash_fidelity = oe::pmem::CrashFidelity::kStrict;

  auto created = oe::ps::PsCluster::Create(options);
  if (!created.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  auto cluster = std::move(created).ValueOrDie();
  oe::ps::PsClient& ps = cluster->client();
  std::printf("OpenEmbedding up: %u nodes, dim %u\n", options.num_nodes,
              options.store.dim);

  const size_t kKeys = 64;
  std::vector<uint64_t> keys(kKeys);
  std::iota(keys.begin(), keys.end(), 1000);
  std::vector<float> weights(kKeys * options.store.dim);
  std::vector<float> grads(kKeys * options.store.dim);

  // --- A few synchronous training batches ---
  for (uint64_t batch = 1; batch <= 5; ++batch) {
    // Batch start: burst-pull the embeddings this batch touches.
    if (!ps.Pull(keys.data(), keys.size(), batch, weights.data()).ok()) {
      return 1;
    }
    // All pulls issued; deferred cache maintenance overlaps our "GPU"
    // compute below.
    (void)ps.FinishPullPhase(batch);

    // Fake compute: gradient = 0.1 * weight (decay toward zero).
    for (size_t i = 0; i < grads.size(); ++i) grads[i] = 0.1f * weights[i];

    // Batch end: burst-push gradients; the server applies AdaGrad.
    if (!ps.Push(keys.data(), keys.size(), grads.data(), batch).ok()) {
      return 1;
    }
    std::printf("batch %llu done, first weight now %.5f\n",
                static_cast<unsigned long long>(batch),
                ps.Peek(keys[0]).ValueOrDie()[0]);
  }

  // --- Lightweight checkpoint: the request is just an enqueue ---
  (void)ps.RequestCheckpoint(5);
  (void)ps.DrainCheckpoints();  // end-of-run: force publication
  std::printf("checkpoint published at batch %llu\n",
              static_cast<unsigned long long>(
                  ps.ClusterCheckpoint().ValueOrDie()));
  const float at_checkpoint = ps.Peek(keys[0]).ValueOrDie()[0];

  // --- One more batch that will be lost, then a crash ---
  (void)ps.Pull(keys.data(), keys.size(), 6, weights.data());
  (void)ps.FinishPullPhase(6);
  (void)ps.Push(keys.data(), keys.size(), grads.data(), 6);
  std::printf("post-checkpoint update: first weight %.5f\n",
              ps.Peek(keys[0]).ValueOrDie()[0]);

  cluster->SimulateCrashAll();
  if (!ps.Recover().ok()) return 1;
  const float recovered = ps.Peek(keys[0]).ValueOrDie()[0];
  std::printf("recovered: first weight %.5f (checkpoint had %.5f)\n",
              recovered, at_checkpoint);
  std::printf("entries after recovery: %llu\n",
              static_cast<unsigned long long>(ps.TotalEntries().ValueOrDie()));
  return recovered == at_checkpoint ? 0 : 1;
}
