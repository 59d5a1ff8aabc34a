#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/random.h"
#include "train/deepfm.h"
#include "train/mlp.h"
#include "train/sync_trainer.h"

namespace oe::train {
namespace {

TEST(MlpTest, ForwardShapesAndDeterminism) {
  Mlp mlp({4, 8, 2}, 0.1f, 3);
  EXPECT_EQ(mlp.input_dim(), 4u);
  EXPECT_EQ(mlp.output_dim(), 2u);
  float x[4] = {1, -1, 0.5f, 2};
  float out_a[2], out_b[2];
  Mlp::Scratch scratch;
  mlp.Forward(x, out_a, &scratch);
  mlp.Forward(x, out_b, &scratch);
  EXPECT_EQ(out_a[0], out_b[0]);
  EXPECT_EQ(out_a[1], out_b[1]);
}

TEST(MlpTest, GradientMatchesFiniteDifference) {
  Mlp mlp({3, 5, 1}, 0.0f, 7);
  float x[3] = {0.3f, -0.7f, 1.1f};
  Mlp::Scratch scratch;
  float out = 0;
  mlp.Forward(x, &out, &scratch);
  // dL/dout = 1 -> x_grad = d(out)/d(x).
  float one = 1.0f;
  float x_grad[3];
  mlp.BackwardAccumulate(x, &one, &scratch, x_grad);

  for (int i = 0; i < 3; ++i) {
    const float eps = 1e-3f;
    float x_plus[3] = {x[0], x[1], x[2]};
    float x_minus[3] = {x[0], x[1], x[2]};
    x_plus[i] += eps;
    x_minus[i] -= eps;
    float out_plus = 0, out_minus = 0;
    mlp.Forward(x_plus, &out_plus, &scratch);
    mlp.Forward(x_minus, &out_minus, &scratch);
    const float numeric = (out_plus - out_minus) / (2 * eps);
    EXPECT_NEAR(x_grad[i], numeric, 1e-2f) << i;
  }
}

TEST(MlpTest, LearnsLinearFunction) {
  // y = 2*x0 - x1; SGD should reduce squared error substantially.
  Mlp mlp({2, 16, 1}, 0.05f, 11);
  Random rng(13);
  Mlp::Scratch scratch;
  double first_loss = 0, last_loss = 0;
  const int steps = 3000;
  for (int step = 0; step < steps; ++step) {
    float x[2] = {rng.UniformFloat(-1, 1), rng.UniformFloat(-1, 1)};
    const float target = 2.0f * x[0] - x[1];
    float out = 0;
    mlp.Forward(x, &out, &scratch);
    const float err = out - target;
    const float dloss = 2 * err;
    mlp.BackwardAccumulate(x, &dloss, &scratch, nullptr);
    mlp.ApplyGradients(1);
    if (step < 100) first_loss += err * err;
    if (step >= steps - 100) last_loss += err * err;
  }
  EXPECT_LT(last_loss, first_loss * 0.2);
}

TEST(MlpTest, SaveLoadRoundTrip) {
  Mlp a({3, 4, 2}, 0.1f, 1);
  Mlp b({3, 4, 2}, 0.1f, 2);
  ASSERT_TRUE(b.LoadParameters(a.SaveParameters()).ok());
  float x[3] = {0.1f, 0.2f, 0.3f};
  float out_a[2], out_b[2];
  Mlp::Scratch scratch;
  a.Forward(x, out_a, &scratch);
  b.Forward(x, out_b, &scratch);
  EXPECT_EQ(out_a[0], out_b[0]);
  EXPECT_EQ(out_a[1], out_b[1]);
  EXPECT_FALSE(b.LoadParameters({1.0f}).ok());
}

TEST(MetricsTest, LogLossBounds) {
  EXPECT_NEAR(LogLoss(1.0f, 0.5f), std::log(2.0), 1e-6);
  EXPECT_LT(LogLoss(1.0f, 0.99f), LogLoss(1.0f, 0.5f));
  EXPECT_GT(LogLoss(0.0f, 0.99f), LogLoss(0.0f, 0.5f));
  EXPECT_TRUE(std::isfinite(LogLoss(1.0f, 0.0f)));  // clamped
}

TEST(MetricsTest, AucPerfectAndRandom) {
  std::vector<float> labels = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(ComputeAuc(labels, {0.1f, 0.2f, 0.8f, 0.9f}), 1.0);
  EXPECT_DOUBLE_EQ(ComputeAuc(labels, {0.9f, 0.8f, 0.2f, 0.1f}), 0.0);
  EXPECT_DOUBLE_EQ(ComputeAuc(labels, {0.5f, 0.5f, 0.5f, 0.5f}), 0.5);
  EXPECT_DOUBLE_EQ(ComputeAuc({1, 1}, {0.3f, 0.4f}), 0.5);  // one class
}

TEST(DeepFmTest, GradientsMatchFiniteDifference) {
  DeepFmConfig config;
  config.num_fields = 3;
  config.dense_dim = 2;
  config.embed_dim = 4;
  config.hidden = {8};
  config.dense_learning_rate = 0.0f;
  DeepFm model(config);

  workload::CtrExample example;
  example.label = 1.0f;
  example.dense = {0.5f, -0.5f};
  example.cat_keys = {1, 2, 3};
  std::vector<workload::CtrExample> batch = {example};

  Random rng(17);
  const size_t n = 3 * 4;
  std::vector<float> embeddings(n);
  for (auto& e : embeddings) e = rng.UniformFloat(-0.5f, 0.5f);

  std::vector<float> grads(n);
  auto result = model.ForwardBackward(batch, embeddings.data(), grads.data());
  ASSERT_EQ(result.predictions.size(), 1u);

  for (size_t i = 0; i < n; ++i) {
    const float eps = 1e-3f;
    std::vector<float> plus = embeddings, minus = embeddings;
    plus[i] += eps;
    minus[i] -= eps;
    auto p_plus = model.Predict(batch, plus.data());
    auto p_minus = model.Predict(batch, minus.data());
    const double loss_plus = LogLoss(1.0f, p_plus[0]);
    const double loss_minus = LogLoss(1.0f, p_minus[0]);
    const double numeric = (loss_plus - loss_minus) / (2 * eps);
    EXPECT_NEAR(grads[i], numeric, 5e-2) << "embedding index " << i;
  }
}

TEST(DeepFmTest, DenseSaveLoadRoundTrip) {
  DeepFmConfig config;
  config.num_fields = 2;
  config.dense_dim = 2;
  config.embed_dim = 2;
  config.hidden = {4};
  DeepFm a(config);
  DeepFm b(config);

  workload::CtrExample example;
  example.label = 1.0f;
  example.dense = {1.0f, 2.0f};
  example.cat_keys = {0, 1};
  std::vector<workload::CtrExample> batch = {example};
  std::vector<float> embeddings = {0.1f, 0.2f, 0.3f, 0.4f};

  ASSERT_TRUE(b.LoadDense(a.SaveDense()).ok());
  auto pa = a.Predict(batch, embeddings.data());
  auto pb = b.Predict(batch, embeddings.data());
  EXPECT_EQ(pa[0], pb[0]);
}

// ---------- End-to-end training over the PS cluster ----------

struct TrainSetup {
  std::unique_ptr<ps::PsCluster> cluster;
  std::unique_ptr<SyncTrainer> trainer;
  workload::CriteoSynthConfig data_config;
};

TrainSetup MakeTrainSetup(storage::StoreKind kind, int workers,
                          uint64_t checkpoint_interval,
                          bool deterministic_data = false) {
  TrainSetup setup;
  ps::ClusterOptions options;
  options.num_nodes = 2;
  options.kind = kind;
  options.store.dim = 8;
  options.store.optimizer.kind = storage::OptimizerKind::kAdaGrad;
  options.store.optimizer.learning_rate = 0.05f;
  options.store.cache_bytes = 256 * 1024;
  options.pmem_bytes_per_node = 64ULL << 20;
  options.log_bytes_per_node = 64ULL << 20;
  options.crash_fidelity = pmem::CrashFidelity::kStrict;
  setup.cluster = ps::PsCluster::Create(options).ValueOrDie();

  setup.data_config.base_cardinality = 500;
  setup.data_config.categorical_fields = 8;
  setup.data_config.dense_fields = 4;

  TrainerConfig trainer_config;
  trainer_config.workers = workers;
  trainer_config.batch_size = 64;
  trainer_config.checkpoint_interval = checkpoint_interval;
  trainer_config.deterministic_data = deterministic_data;
  trainer_config.model.num_fields = 8;
  trainer_config.model.dense_dim = 4;
  trainer_config.model.embed_dim = 8;
  trainer_config.model.hidden = {16};
  trainer_config.model.dense_learning_rate = 0.02f;
  setup.trainer = std::make_unique<SyncTrainer>(
      setup.cluster.get(), setup.data_config, trainer_config);
  return setup;
}

TEST(SyncTrainerTest, LossDecreasesOnPlantedSignal) {
  auto setup = MakeTrainSetup(storage::StoreKind::kPipelined, 2, 0);
  ASSERT_TRUE(setup.trainer->TrainBatches(5).ok());
  const double early = setup.trainer->progress().mean_logloss;
  ASSERT_TRUE(setup.trainer->TrainBatches(60).ok());
  const auto progress = setup.trainer->progress();
  EXPECT_LT(progress.mean_logloss, early);
  EXPECT_GT(progress.auc, 0.6);  // learned real signal, not noise
  EXPECT_EQ(progress.batches_done, 65u);
}

TEST(SyncTrainerTest, AllEnginesTrainEquivalently) {
  // The storage engine must not change the math: identical data + seeds
  // on DRAM-PS and PMem-OE give closely matching loss curves.
  auto dram = MakeTrainSetup(storage::StoreKind::kDram, 2, 0);
  auto pmem = MakeTrainSetup(storage::StoreKind::kPipelined, 2, 0);
  ASSERT_TRUE(dram.trainer->TrainBatches(30).ok());
  ASSERT_TRUE(pmem.trainer->TrainBatches(30).ok());
  EXPECT_NEAR(dram.trainer->progress().mean_logloss,
              pmem.trainer->progress().mean_logloss, 0.05);
}

TEST(SyncTrainerTest, CheckpointRecoveryResumesTraining) {
  auto setup = MakeTrainSetup(storage::StoreKind::kPipelined, 2, 10);
  ASSERT_TRUE(setup.trainer->TrainBatches(25).ok());
  // Make the batch-20 checkpoint durable, then crash.
  ASSERT_TRUE(setup.cluster->client().DrainCheckpoints().ok());
  setup.cluster->SimulateCrashAll();
  ASSERT_TRUE(setup.trainer->RecoverAfterCrash().ok());
  EXPECT_EQ(setup.trainer->next_batch(), 21u);

  // Training continues from the checkpoint without errors.
  ASSERT_TRUE(setup.trainer->TrainBatches(10).ok());
  EXPECT_GT(setup.trainer->progress().auc, 0.5);
}

TEST(SyncTrainerTest, RecoveryWithoutCheckpointRestarts) {
  auto setup = MakeTrainSetup(storage::StoreKind::kPipelined, 2, 0);
  ASSERT_TRUE(setup.trainer->TrainBatches(5).ok());
  setup.cluster->SimulateCrashAll();
  ASSERT_TRUE(setup.trainer->RecoverAfterCrash().ok());
  EXPECT_EQ(setup.trainer->next_batch(), 1u);
  ASSERT_TRUE(setup.trainer->TrainBatches(3).ok());
}

TEST(SyncTrainerTest, MultiWorkerDeterministicRunsAgree) {
  // With deterministic data every batch's key set is a function of
  // (worker, batch id), so two three-worker runs create the same entries.
  // Their pushes interleave differently, which breaks float bit-identity
  // but not the loss.
  auto a = MakeTrainSetup(storage::StoreKind::kPipelined, 3, 0, true);
  auto b = MakeTrainSetup(storage::StoreKind::kPipelined, 3, 0, true);
  ASSERT_TRUE(a.trainer->TrainBatches(30).ok());
  ASSERT_TRUE(b.trainer->TrainBatches(30).ok());
  EXPECT_EQ(a.cluster->client().TotalEntries().ValueOrDie(),
            b.cluster->client().TotalEntries().ValueOrDie());
  EXPECT_NEAR(a.trainer->progress().mean_logloss,
              b.trainer->progress().mean_logloss, 0.05);
}

TEST(SyncTrainerTest, FourWorkersMatchTwoWorkersRoughly) {
  auto two = MakeTrainSetup(storage::StoreKind::kPipelined, 2, 0);
  auto four = MakeTrainSetup(storage::StoreKind::kPipelined, 4, 0);
  ASSERT_TRUE(two.trainer->TrainBatches(20).ok());
  ASSERT_TRUE(four.trainer->TrainBatches(10).ok());  // same total examples
  EXPECT_NEAR(two.trainer->progress().mean_logloss,
              four.trainer->progress().mean_logloss, 0.1);
}

}  // namespace
}  // namespace oe::train
