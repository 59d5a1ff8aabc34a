// Fig. 11: training time and cache miss rate under different skews
// (16 GPUs, 2 GB-equivalent cache, values normalized to DRAM-PS).
//
// Paper: miss rates 10.04% (more skew), 13.63% (original), 17.08% (less
// skew). PMem-OE stays within 7-9% of DRAM-PS and degrades <5% from
// original to less-skew, while Ori-Cache degrades >20%.

#include <cstdio>

#include "bench/bench_util.h"

using oe::bench::EpochSeconds;
using oe::sim::SimOptions;
using oe::sim::TrainingSimulator;
using oe::storage::StoreKind;
using oe::workload::SkewPreset;

namespace {

struct RunResult {
  double epoch_seconds;
  double miss_rate;
};

RunResult RunEpoch(StoreKind kind, SkewPreset skew) {
  SimOptions options = oe::bench::ProductionSim();
  oe::bench::ApplyFastMode(&options);
  options.kind = kind;
  options.num_gpus = 16;
  options.skew = skew;
  auto report = TrainingSimulator(options).Run();
  if (!report.ok()) {
    std::fprintf(stderr, "sim failed: %s\n",
                 report.status().ToString().c_str());
    std::exit(1);
  }
  return {EpochSeconds(report.value(), 16), report.value().miss_rate};
}

}  // namespace

int main(int argc, char** argv) {
  oe::bench::BenchReport bench_report("bench_fig11_skew", &argc, argv);
  oe::bench::PrintHeader(
      "Fig. 11 — training time & miss rate under different skews (16 GPUs)",
      "miss: 10.04/13.63/17.08%; Ori-Cache +20% from original to "
      "less-skew, PMem-OE <+5%");

  const struct {
    SkewPreset preset;
    const char* name;
    double paper_miss;
  } rows[] = {{SkewPreset::kMoreSkew, "more-skew", 0.1004},
              {SkewPreset::kOriginal, "original", 0.1363},
              {SkewPreset::kLessSkew, "less-skew", 0.1708}};

  double ori_original = 0, oe_original = 0;
  std::printf("  %-10s | miss (paper)      | vs DRAM-PS: OE     Ori\n",
              "skew");
  for (const auto& row : rows) {
    const auto dram = RunEpoch(StoreKind::kDram, row.preset);
    const auto pmem_oe = RunEpoch(StoreKind::kPipelined, row.preset);
    const auto ori = RunEpoch(StoreKind::kOriCache, row.preset);
    if (row.preset == SkewPreset::kOriginal) {
      ori_original = ori.epoch_seconds;
      oe_original = pmem_oe.epoch_seconds;
    }
    std::printf("  %-10s | %5.2f%% (%5.2f%%)   | %5.2fx   %5.2fx\n",
                row.name, 100.0 * pmem_oe.miss_rate, 100.0 * row.paper_miss,
                pmem_oe.epoch_seconds / dram.epoch_seconds,
                ori.epoch_seconds / dram.epoch_seconds);
    if (row.preset == SkewPreset::kLessSkew && ori_original > 0) {
      std::printf(
          "  original -> less-skew slowdown: Ori meas %+5.1f%% (paper "
          ">+20%%), OE meas %+5.1f%% (paper <+5%%)\n",
          100.0 * (ori.epoch_seconds / ori_original - 1.0),
          100.0 * (pmem_oe.epoch_seconds / oe_original - 1.0));
    }
  }
  return 0;
}
