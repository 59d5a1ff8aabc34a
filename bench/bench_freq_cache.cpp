// A/B bench for the frequency-aware cache policy and statistics-driven
// hot-key placement.
//
// Section 1 drives the identical Table II skewed batch trace through two
// PipelinedStores that differ only in StoreConfig::cache_policy and
// reports cache hit rate plus per-batch pull p99 for each preset. The
// admission filter + hot-head pinning must beat plain LRU on hit rate at
// the more-skew and original presets (the tail preset is reported too).
//
// Section 2 measures per-node pull-load imbalance on a 4-node cluster
// under a single-hot-head pull stream, hashed placement vs replicating
// the hot head across all nodes (reads round-robin the replicas).
//
// With --json the record carries the full metrics registry, so the
// store.cache_hit_rate_bp / store.cache_pinned_entries gauges and the
// cluster.node_pull_keys / cluster.load_imbalance_bp gauges ride along.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "pmem/device.h"
#include "ps/ps_cluster.h"
#include "storage/pipelined_store.h"
#include "workload/skew.h"
#include "workload/trace.h"

using oe::Nanos;
using oe::WallNowNanos;
using oe::pmem::CrashFidelity;
using oe::pmem::PmemDevice;
using oe::pmem::PmemDeviceOptions;
using oe::ps::ClusterOptions;
using oe::ps::PsCluster;
using oe::storage::CachePolicy;
using oe::storage::PipelinedStore;
using oe::storage::StoreConfig;
using oe::workload::BatchTraceGenerator;
using oe::workload::SkewedKeySampler;
using oe::workload::SkewPreset;

namespace {

struct BenchParams {
  uint64_t num_keys = 1ULL << 20;
  uint64_t batches = 32;
  size_t batch_draws = 4096;
  // Far smaller than the warm working set (top 1% of a 1M keyspace is
  // ~10k keys vs ~2.7k cache slots), so admission and eviction decisions
  // are live on every batch — the regime Fig. 11 measures.
  uint64_t cache_bytes = 256ULL << 10;
  uint64_t device_bytes = 256ULL << 20;
};

struct RunStats {
  double hit_rate = 0;
  double p99_pull_us = 0;
  uint64_t admission_rejects = 0;
  uint64_t pinned = 0;
};

RunStats RunPolicy(const BenchParams& params, SkewPreset preset,
                   CachePolicy policy) {
  PmemDeviceOptions device_options;
  device_options.size_bytes = params.device_bytes;
  device_options.crash_fidelity = CrashFidelity::kNone;
  auto device = PmemDevice::Create(device_options).ValueOrDie();

  StoreConfig config;
  config.dim = 16;
  config.cache_bytes = params.cache_bytes;
  config.maintainer_threads = 2;
  config.cache_policy = policy;
  auto store = PipelinedStore::Create(config, device.get()).ValueOrDie();

  SkewedKeySampler sampler(params.num_keys, preset);
  BatchTraceGenerator generator(&sampler, params.batch_draws, /*seed=*/17);

  std::vector<double> pull_us;
  std::vector<float> weights;
  std::vector<float> grads;
  for (uint64_t batch = 1; batch <= params.batches; ++batch) {
    const auto keys = generator.NextBatch();
    weights.resize(keys.size() * config.dim);
    const Nanos start = WallNowNanos();
    if (!store->Pull(keys.data(), keys.size(), batch, weights.data()).ok()) {
      std::fprintf(stderr, "pull failed at batch %llu\n",
                   static_cast<unsigned long long>(batch));
      std::exit(1);
    }
    // Batches 1-2 are a creation storm over a fresh mmap (first-fault
    // page-ins, then its maintenance draining under the next pull); keep
    // the latency sample to steady state.
    if (batch > 2) {
      pull_us.push_back(static_cast<double>(WallNowNanos() - start) / 1e3);
    }
    store->FinishPullPhase(batch);
    grads.assign(keys.size() * config.dim, 0.1f);
    if (!store->Push(keys.data(), keys.size(), grads.data(), batch).ok()) {
      std::fprintf(stderr, "push failed at batch %llu\n",
                   static_cast<unsigned long long>(batch));
      std::exit(1);
    }
  }
  store->WaitMaintenance(params.batches);

  std::sort(pull_us.begin(), pull_us.end());
  RunStats stats;
  stats.hit_rate = store->stats_snapshot().HitRate();
  stats.p99_pull_us =
      pull_us[std::min(pull_us.size() - 1, (pull_us.size() * 99) / 100)];
  stats.admission_rejects = store->stats().admission_rejects.load();
  stats.pinned = store->PinnedEntries();
  return stats;
}

/// Pull-only stream against a 4-node cluster: a 5-key ultra-hot head that
/// appears in every batch (as Table II's hottest ranks do in every
/// worker's batch) plus a rotating cold slice. Five keys over four nodes
/// cannot hash evenly, so the home node of the doubled-up keys absorbs
/// disproportionate pull load; replicating the head across all nodes with
/// round-robin reads flattens it. Returns max/mean per-node pull load
/// (1.0 = perfectly balanced).
double RunImbalance(const BenchParams& params, uint64_t hot_replicate_keys) {
  constexpr uint64_t kHotHead = 5;
  constexpr size_t kColdPerBatch = 8;
  ClusterOptions options;
  options.num_nodes = 4;
  options.store.dim = 16;
  options.store.cache_bytes = params.cache_bytes;
  options.hot_replicate_keys = hot_replicate_keys;
  options.hot_replicas = 4;
  auto cluster = PsCluster::Create(options).ValueOrDie();
  auto& client = cluster->client();

  std::vector<float> weights;
  uint64_t next_cold = kHotHead;
  for (uint64_t batch = 1; batch <= params.batches; ++batch) {
    std::vector<uint64_t> keys(kHotHead);
    for (uint64_t k = 0; k < kHotHead; ++k) keys[k] = k;
    for (size_t i = 0; i < kColdPerBatch; ++i) keys.push_back(next_cold++);
    weights.resize(keys.size() * 16);
    if (!client.Pull(keys.data(), keys.size(), batch, weights.data()).ok() ||
        !client.FinishPullPhase(batch).ok()) {
      std::fprintf(stderr, "cluster pull failed\n");
      std::exit(1);
    }
  }
  cluster->RefreshLoadGauges();
  return cluster->LoadImbalance();
}

}  // namespace

int main(int argc, char** argv) {
  oe::bench::BenchReport report("bench_freq_cache", &argc, argv);
  BenchParams params;
  if (oe::bench::FastMode()) {
    params.num_keys = 256ULL << 10;
    params.batches = 12;
    params.batch_draws = 4096;
    params.cache_bytes = 128ULL << 10;
    params.device_bytes = 64ULL << 20;
  }
  report.AddConfig("num_keys", static_cast<double>(params.num_keys));
  report.AddConfig("batches", static_cast<double>(params.batches));
  report.AddConfig("cache_bytes", static_cast<double>(params.cache_bytes));

  oe::bench::PrintHeader(
      "Freq-aware admission vs plain LRU (same capacity), + hot-key "
      "placement",
      "Table II skew: the hot head dominates; admission filtering must "
      "raise hit rate at more-skew/original");

  const struct {
    SkewPreset preset;
    const char* name;
  } rows[] = {{SkewPreset::kMoreSkew, "more-skew"},
              {SkewPreset::kOriginal, "original"},
              {SkewPreset::kLessSkew, "less-skew"}};

  std::printf("  %-10s | hit rate: lru    freq   | p99 pull (us): lru"
              "      freq   | rejects  pinned\n",
              "skew");
  for (const auto& row : rows) {
    const RunStats lru = RunPolicy(params, row.preset, CachePolicy::kLru);
    const RunStats freq =
        RunPolicy(params, row.preset, CachePolicy::kFreqAware);
    std::printf("  %-10s | %6.2f%%  %6.2f%%       | %10.1f %10.1f       | "
                "%7llu %7llu\n",
                row.name, 100.0 * lru.hit_rate, 100.0 * freq.hit_rate,
                lru.p99_pull_us, freq.p99_pull_us,
                static_cast<unsigned long long>(freq.admission_rejects),
                static_cast<unsigned long long>(freq.pinned));
    const std::string key = row.name;
    report.AddMetric("hit_rate." + key + ".lru", lru.hit_rate);
    report.AddMetric("hit_rate." + key + ".freq", freq.hit_rate);
    report.AddMetric("p99_pull_us." + key + ".lru", lru.p99_pull_us);
    report.AddMetric("p99_pull_us." + key + ".freq", freq.p99_pull_us);
    report.AddMetric("admission_rejects." + key,
                     static_cast<double>(freq.admission_rejects));
  }

  const double hashed = RunImbalance(params, 0);
  const double placed = RunImbalance(params, /*hot_replicate_keys=*/5);
  std::printf("  load imbalance (max/mean pull keys, 4 nodes): hashed "
              "%.3fx -> hot-head-replicated %.3fx\n",
              hashed, placed);
  report.AddMetric("imbalance.hashed", hashed);
  report.AddMetric("imbalance.placed", placed);
  return 0;
}
