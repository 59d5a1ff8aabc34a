#include "train/sync_trainer.h"

#include <algorithm>
#include <thread>

#include "common/logging.h"
#include "obs/trace.h"

namespace oe::train {

using storage::EntryId;

namespace {

/// Crash/recover cycles TrainBatchesWithRecovery tolerates before giving up
/// and returning the training error.
constexpr int kMaxRecoveries = 3;

}  // namespace

SyncTrainer::SyncTrainer(ps::PsCluster* cluster,
                         const workload::CriteoSynthConfig& data_config,
                         const TrainerConfig& config)
    : cluster_(cluster), config_(config) {
  OE_CHECK(config.workers > 0);
  OE_CHECK(config.model.embed_dim == cluster->options().store.dim)
      << "model embed_dim must match the PS dim";
  model_ = std::make_unique<DeepFm>(config.model);
  for (int w = 0; w < config.workers; ++w) {
    workload::CriteoSynthConfig worker_data = data_config;
    worker_data.seed = workload::WorkerSeed(data_config.seed, w);
    data_.push_back(std::make_unique<workload::CriteoSynth>(worker_data));
    data_seeds_.push_back(worker_data.seed);
    clients_.push_back(cluster->NewClient());
  }
  barrier_ = std::make_unique<Barrier>(config.workers);
}

Status SyncTrainer::TrainBatches(uint64_t num_batches) {
  {
    std::lock_guard<std::mutex> lock(status_mutex_);
    first_error_ = Status::OK();
  }
  const uint64_t first_batch = next_batch_;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(config_.workers));
  for (int w = 0; w < config_.workers; ++w) {
    threads.emplace_back([this, w, first_batch, num_batches] {
      Status status = RunWorker(w, first_batch, num_batches);
      if (!status.ok()) {
        std::lock_guard<std::mutex> lock(status_mutex_);
        if (first_error_.ok()) first_error_ = std::move(status);
      }
    });
  }
  for (auto& t : threads) t.join();
  next_batch_ = first_batch + num_batches;
  std::lock_guard<std::mutex> lock(status_mutex_);
  return first_error_;
}

void SyncTrainer::NoteError(const Status& status) {
  std::lock_guard<std::mutex> lock(status_mutex_);
  if (first_error_.ok()) first_error_ = status;
}

bool SyncTrainer::EpochFailed() {
  std::lock_guard<std::mutex> lock(status_mutex_);
  return !first_error_.ok();
}

Status SyncTrainer::RunWorker(int worker, uint64_t first_batch,
                              uint64_t num_batches) {
  workload::CriteoSynth& data = *data_[worker];
  ps::PsClient& client = *clients_[worker];
  if (obs::TraceRecorder::Default().enabled()) {
    obs::TraceRecorder::Default().SetThreadName("worker" +
                                                std::to_string(worker));
  }
  const uint32_t d = config_.model.embed_dim;
  const uint32_t fields = config_.model.num_fields;
  Status status;  // sticky first error; barriers keep running regardless

  for (uint64_t b = first_batch; b < first_batch + num_batches; ++b) {
    std::vector<workload::CtrExample> batch;
    std::vector<EntryId> keys;
    std::vector<float> key_weights;
    if (status.ok() && !EpochFailed()) {
      if (config_.deterministic_data) {
        // Batch content becomes a pure function of (worker, batch id), so
        // a rollback-and-replay regenerates exactly the original batches.
        data.Reseed(workload::BatchSeed(
            data_seeds_[static_cast<size_t>(worker)], b));
      }
      batch = data.NextBatch(config_.batch_size);
      keys.reserve(batch.size() * fields);
      for (const auto& example : batch) {
        keys.insert(keys.end(), example.cat_keys.begin(),
                    example.cat_keys.end());
      }
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      key_weights.resize(keys.size() * d);
      {
        obs::ScopedSpan span("train", "pull");
        status = client.Pull(keys.data(), keys.size(), b, key_weights.data());
      }
      if (!status.ok()) NoteError(status);
    }

    if (barrier_->ArriveAndWait()) {
      // Leader: all workers' pulls for batch b are done. Once any worker
      // has failed the epoch is doomed (it will be rolled back to the last
      // checkpoint and replayed), so stop issuing seal/checkpoint RPCs:
      // they would churn retries against a down node and advance the
      // surviving shards' seal/checkpoint state past the durable
      // checkpoint the rollback lands on.
      if (!EpochFailed()) {
        obs::ScopedSpan span("train", "seal");
        Status s = clients_[0]->FinishPullPhase(b);
        if (!s.ok()) {
          NoteError(s);
          if (status.ok()) status = s;
        }
      }
    }
    barrier_->ArriveAndWait();

    if (status.ok() && !batch.empty()) {
      // Scatter key-indexed weights into the per-example layout.
      const size_t per_example = static_cast<size_t>(fields) * d;
      std::vector<float> embeddings(batch.size() * per_example);
      auto index_of = [&](EntryId key) {
        return static_cast<size_t>(
            std::lower_bound(keys.begin(), keys.end(), key) - keys.begin());
      };
      for (size_t i = 0; i < batch.size(); ++i) {
        for (uint32_t f = 0; f < fields; ++f) {
          const size_t ki = index_of(batch[i].cat_keys[f]);
          std::copy_n(key_weights.begin() + ki * d, d,
                      embeddings.begin() + i * per_example +
                          static_cast<size_t>(f) * d);
        }
      }

      // GPU phase (serialized: one physical core plays all GPUs; the mutex
      // also protects the shared dense model's gradient accumulators).
      std::vector<float> embed_grads(embeddings.size());
      DeepFm::BatchResult result;
      {
        obs::ScopedSpan span("train", "compute");
        std::lock_guard<std::mutex> lock(model_mutex_);
        result = model_->ForwardBackward(batch, embeddings.data(),
                                         embed_grads.data());
      }

      // Aggregate gradients per unique key and push.
      std::vector<float> key_grads(keys.size() * d, 0.0f);
      for (size_t i = 0; i < batch.size(); ++i) {
        for (uint32_t f = 0; f < fields; ++f) {
          const size_t ki = index_of(batch[i].cat_keys[f]);
          const float* g =
              embed_grads.data() + i * per_example + static_cast<size_t>(f) * d;
          float* dst = key_grads.data() + ki * d;
          for (uint32_t k = 0; k < d; ++k) dst[k] += g[k];
        }
      }
      {
        obs::ScopedSpan span("train", "push");
        status = client.Push(keys.data(), keys.size(), key_grads.data(), b);
      }
      if (!status.ok()) NoteError(status);

      {
        std::lock_guard<std::mutex> lock(metrics_mutex_);
        window_loss_sum_ += result.loss_sum;
        examples_seen_ += batch.size();
        for (size_t i = 0; i < batch.size(); ++i) {
          window_labels_.push_back(batch[i].label);
          window_predictions_.push_back(result.predictions[i]);
        }
        // Bound the metric window.
        if (window_labels_.size() > 200000) {
          window_labels_.erase(window_labels_.begin(),
                               window_labels_.begin() + 100000);
          window_predictions_.erase(window_predictions_.begin(),
                                    window_predictions_.begin() + 100000);
        }
      }
    }

    if (barrier_->ArriveAndWait()) {
      // Leader: synchronous dense update (the allreduce-averaged step).
      model_->ApplyDenseGradients(config_.batch_size *
                                  static_cast<size_t>(config_.workers));
      if (config_.checkpoint_interval != 0 &&
          b % config_.checkpoint_interval == 0 && !EpochFailed()) {
        obs::ScopedSpan span("train", "checkpoint");
        Status s = clients_[0]->RequestCheckpoint(b);
        if (s.ok() && config_.durable_checkpoints) {
          // Synchronously publish on every shard: the cluster checkpoint
          // is now exactly b, so a later rollback lands here and replay
          // starts from a state every node agrees on.
          s = clients_[0]->DrainCheckpoints();
        }
        if (!s.ok() && status.ok()) status = s;
        dense_checkpoints_[b] = model_->SaveDense();
      }
    }
    barrier_->ArriveAndWait();
  }
  return status;
}

SyncTrainer::Progress SyncTrainer::progress() const {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  Progress progress;
  progress.batches_done = next_batch_ - 1;
  progress.examples_seen = examples_seen_;
  if (examples_seen_ > 0) {
    progress.mean_logloss =
        window_loss_sum_ / static_cast<double>(examples_seen_);
  }
  if (!window_labels_.empty()) {
    progress.auc = ComputeAuc(window_labels_, window_predictions_);
  }
  return progress;
}

Status SyncTrainer::TrainBatchesWithRecovery(uint64_t num_batches) {
  const uint64_t end_batch =
      next_batch_.load(std::memory_order_acquire) + num_batches;
  Status status;
  for (int recoveries = 0;; ++recoveries) {
    const uint64_t from = next_batch_.load(std::memory_order_acquire);
    if (from >= end_batch) return Status::OK();
    status = TrainBatches(end_batch - from);
    if (status.ok()) return status;
    if (!net::IsRetryable(status.code()) ||
        recoveries >= kMaxRecoveries) {
      return status;
    }
    // A PS node died mid-epoch (retries exhausted). Bring every down node
    // back over its surviving device image, power-cycle the remaining
    // nodes so their in-memory state also reverts to the persistent image,
    // and roll the whole cluster back to the latest durable checkpoint;
    // the loop then replays the lost batches.
    OE_RETURN_IF_ERROR(cluster_->RestartDownNodes());
    cluster_->SimulateCrashAll();
    OE_RETURN_IF_ERROR(RecoverAfterCrash());
  }
}

Status SyncTrainer::RecoverAfterCrash() {
  OE_RETURN_IF_ERROR(clients_[0]->Recover());
  OE_ASSIGN_OR_RETURN(uint64_t checkpoint, clients_[0]->ClusterCheckpoint());
  if (checkpoint == 0) {
    // No durable checkpoint: restart training from scratch.
    model_ = std::make_unique<DeepFm>(config_.model);
    next_batch_ = 1;
  } else {
    auto it = dense_checkpoints_.find(checkpoint);
    if (it == dense_checkpoints_.end()) {
      return Status::Corruption(
          "no dense snapshot for sparse checkpoint batch " +
          std::to_string(checkpoint));
    }
    OE_RETURN_IF_ERROR(model_->LoadDense(it->second));
    next_batch_ = checkpoint + 1;
  }
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  window_labels_.clear();
  window_predictions_.clear();
  window_loss_sum_ = 0;
  return Status::OK();
}

}  // namespace oe::train
