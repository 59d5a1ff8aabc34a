#include <gtest/gtest.h>

#include "sim/cost_model.h"
#include "sim/pricing.h"
#include "sim/training_sim.h"

namespace oe::sim {
namespace {

using storage::StoreKind;

TEST(CostModelTest, DeviceTimeScalesWithTraffic) {
  CostModel model;
  pmem::DeviceStats::Snapshot small{1 << 20, 1 << 20, 10, 10, 0};
  pmem::DeviceStats::Snapshot large{64 << 20, 64 << 20, 10, 10, 0};
  EXPECT_LT(model.DeviceTime(small, pmem::PmemTiming()),
            model.DeviceTime(large, pmem::PmemTiming()));
}

TEST(CostModelTest, PmemSlowerThanDramForSameTraffic) {
  CostModel model;
  pmem::DeviceStats::Snapshot traffic{32 << 20, 32 << 20, 1000, 1000, 100};
  EXPECT_GT(model.DeviceTime(traffic, pmem::PmemTiming()),
            model.DeviceTime(traffic, pmem::DramTiming()));
  EXPECT_GT(model.DeviceTime(traffic, pmem::SsdTiming()),
            model.DeviceTime(traffic, pmem::PmemTiming()));
}

TEST(CostModelTest, ContentionGrowsWithWorkers) {
  CostModel model;
  EXPECT_LT(model.ContentionTime(10000, 4), model.ContentionTime(10000, 16));
  EXPECT_EQ(model.ContentionTime(0, 16), 0);
}

TEST(CostModelTest, NetworkTimeHasRttAndBandwidth) {
  NetworkSpec network;
  network.bandwidth_gbps = 1.0;  // 1 byte/ns
  network.rtt_ns = 1000;
  CostModel model(network, ContentionSpec{});
  EXPECT_EQ(model.NetworkTime(0, 0), 0);
  EXPECT_EQ(model.NetworkTime(1000000, 1), 1000000 + 1000);
}

TEST(CostModelTest, NetworkTimePaysRttPerWave) {
  NetworkSpec network;
  network.bandwidth_gbps = 1.0;  // 1 byte/ns
  network.rtt_ns = 1000;
  CostModel model(network, ContentionSpec{});
  // parallelism <= 0: all requests overlap, one round trip.
  EXPECT_EQ(model.NetworkTime(0, 64, 0), 1000);
  // 64 requests at 8 in flight = 8 waves.
  EXPECT_EQ(model.NetworkTime(0, 64, 8), 8 * 1000);
  // Partial last wave still costs a full round trip.
  EXPECT_EQ(model.NetworkTime(0, 65, 8), 9 * 1000);
  // More slots than requests collapses back to one wave.
  EXPECT_EQ(model.NetworkTime(500, 4, 16), 500 + 1000);
}

TEST(PricingTest, TableFiveConstants) {
  // Table V: 2 DRAM servers at $6.07/h vs 1 PMem server at $3.80/h for a
  // >500 GB model.
  PsDeployment dram{DramServerSpec(), DramMachinesFor(500)};
  PsDeployment pmem{PmemServerSpec(), PmemMachinesFor(500)};
  EXPECT_EQ(dram.machines, 2);
  EXPECT_EQ(pmem.machines, 1);
  EXPECT_NEAR(dram.DollarsPerHour(), 6.07, 0.01);
  EXPECT_NEAR(pmem.DollarsPerHour(), 3.80, 0.01);
  // Paper: $34.9 vs $20.3 per epoch -> 42% storage-cost saving.
  const double dram_epoch = dram.DollarsPerEpoch(5.75);
  const double pmem_epoch = pmem.DollarsPerEpoch(5.33);
  EXPECT_NEAR(dram_epoch, 34.9, 0.1);
  EXPECT_NEAR(pmem_epoch, 20.3, 0.1);
  EXPECT_NEAR(1.0 - pmem_epoch / dram_epoch, 0.42, 0.01);
}

SimOptions SmallSim(StoreKind kind, int gpus) {
  SimOptions options;
  options.kind = kind;
  options.num_gpus = gpus;
  options.num_keys = 1 << 17;
  options.keys_per_worker_batch = 2048;
  options.rounds = 8;
  options.num_nodes = 1;
  options.store.dim = 16;
  options.store.cache_bytes = 1 << 20;
  options.store.pmem_hash_buckets = 1 << 15;
  options.pmem_bytes_per_node = 256ULL << 20;
  return options;
}

TEST(TrainingSimTest, RunsAndReportsRounds) {
  TrainingSimulator simulator(SmallSim(StoreKind::kPipelined, 4));
  auto report = simulator.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().rounds, 8u);
  EXPECT_GT(report.value().epoch_ns, 0);
  EXPECT_GT(report.value().miss_rate, 0.0);
  EXPECT_LT(report.value().miss_rate, 1.0);
}

TEST(TrainingSimTest, PipelineHidesMaintenance) {
  // With the pipeline on, maintenance overlaps GPU compute; the same
  // workload with the pipeline off pays it on the critical path.
  auto on = SmallSim(StoreKind::kPipelined, 8);
  auto off = on;
  off.store.pipeline_enabled = false;
  auto report_on = TrainingSimulator(on).Run();
  auto report_off = TrainingSimulator(off).Run();
  ASSERT_TRUE(report_on.ok());
  ASSERT_TRUE(report_off.ok());
  EXPECT_LT(report_on.value().epoch_ns, report_off.value().epoch_ns);
}

TEST(TrainingSimTest, OrderingMatchesPaperAtSixteenGpus) {
  // Fig. 7 shape: DRAM-PS <= PMem-OE < Ori-Cache, and PMem-Hash worst.
  auto dram = TrainingSimulator(SmallSim(StoreKind::kDram, 16)).Run();
  auto oe = TrainingSimulator(SmallSim(StoreKind::kPipelined, 16)).Run();
  auto ori = TrainingSimulator(SmallSim(StoreKind::kOriCache, 16)).Run();
  ASSERT_TRUE(dram.ok());
  ASSERT_TRUE(oe.ok());
  ASSERT_TRUE(ori.ok());
  EXPECT_LE(dram.value().epoch_ns, oe.value().epoch_ns);
  EXPECT_LT(oe.value().epoch_ns, ori.value().epoch_ns);
}

TEST(TrainingSimTest, CacheMissesFallWithBiggerCache) {
  auto small_cache = SmallSim(StoreKind::kPipelined, 4);
  small_cache.store.cache_bytes = 64 << 10;
  auto big_cache = SmallSim(StoreKind::kPipelined, 4);
  big_cache.store.cache_bytes = 8 << 20;
  auto small_report = TrainingSimulator(small_cache).Run();
  auto big_report = TrainingSimulator(big_cache).Run();
  ASSERT_TRUE(small_report.ok());
  ASSERT_TRUE(big_report.ok());
  EXPECT_GT(small_report.value().miss_rate, big_report.value().miss_rate);
}

TEST(TrainingSimTest, CheckpointAddsBoundedOverheadForPipelined) {
  auto base = SmallSim(StoreKind::kPipelined, 8);
  auto with_ckpt = base;
  with_ckpt.checkpoints_per_epoch = 4;
  with_ckpt.dense_checkpoint = false;  // Sparse Only (Table IV)
  auto report_base = TrainingSimulator(base).Run();
  auto report_ckpt = TrainingSimulator(with_ckpt).Run();
  ASSERT_TRUE(report_base.ok());
  ASSERT_TRUE(report_ckpt.ok());
  // Fig. 12: the sparse-only batch-aware checkpoint is near-free.
  const double overhead =
      static_cast<double>(report_ckpt.value().epoch_ns) /
          static_cast<double>(report_base.value().epoch_ns) -
      1.0;
  EXPECT_LT(overhead, 0.05);
}

}  // namespace
}  // namespace oe::sim
