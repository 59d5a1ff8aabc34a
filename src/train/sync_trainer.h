#ifndef OE_TRAIN_SYNC_TRAINER_H_
#define OE_TRAIN_SYNC_TRAINER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/sync.h"
#include "ps/ps_cluster.h"
#include "train/deepfm.h"
#include "workload/criteo.h"

namespace oe::train {

/// Synchronous data-parallel training driver: W simulated GPU workers, a
/// barrier per phase (the Horovod allreduce point), a shared dense DeepFM
/// model updated once per global batch, and sparse embeddings pulled from /
/// pushed to the parameter-server cluster.
///
/// Per global batch b each worker: samples a local batch, pulls the unique
/// embedding keys, waits at the barrier (all pulls done), runs DeepFM
/// forward/backward, pushes aggregated per-key gradients, waits again;
/// the leader then applies the averaged dense gradients and, when due,
/// requests a sparse checkpoint + snapshots the dense parameters (the
/// paper's TensorFlow dense checkpoint).
struct TrainerConfig {
  int workers = 2;
  size_t batch_size = 128;  // examples per worker per batch
  /// Request a checkpoint every N global batches (0 = never).
  uint64_t checkpoint_interval = 0;
  DeepFmConfig model;
  uint64_t seed = 5;

  /// When true the leader drains checkpoints right after requesting them,
  /// so every node has published the checkpoint before training continues.
  /// Costs a synchronous wait per checkpoint but guarantees the cluster
  /// checkpoint is exactly the requested batch — required for replay after
  /// a node crash (otherwise shards ahead of the cluster minimum would see
  /// replayed gradients twice).
  bool durable_checkpoints = false;
  /// When true each worker reseeds its data stream from the global batch
  /// id, making batch content a pure function of (worker, batch). Replayed
  /// batches after a crash rollback are then bit-identical to the
  /// originals, the precondition for exactly-once-equivalent recovery.
  bool deterministic_data = false;
};

class SyncTrainer {
 public:
  SyncTrainer(ps::PsCluster* cluster,
              const workload::CriteoSynthConfig& data_config,
              const TrainerConfig& config);

  /// Runs `num_batches` global batches; returns the first worker error.
  Status TrainBatches(uint64_t num_batches);

  /// Like TrainBatches, but survives PS node crashes: when training fails
  /// with a retryable transport error (a node went down mid-epoch and
  /// retries were exhausted), restarts every down node over its surviving
  /// device image, rolls the whole cluster back to the latest durable
  /// checkpoint (RecoverAfterCrash), and replays from there until the
  /// originally requested batch count is reached — up to three recovery
  /// cycles. With durable_checkpoints + deterministic_data + one worker the
  /// recovered run is bit-identical to a fault-free one.
  Status TrainBatchesWithRecovery(uint64_t num_batches);

  struct Progress {
    uint64_t batches_done = 0;
    uint64_t examples_seen = 0;
    double mean_logloss = 0;  // over the recent window
    double auc = 0;           // over the recent window
  };
  Progress progress() const;

  /// Global batch id the next TrainBatches call starts from.
  uint64_t next_batch() const {
    return next_batch_.load(std::memory_order_acquire);
  }

  DeepFm& model() { return *model_; }

  /// After the cluster's devices crashed: recovers every PS shard to the
  /// latest cluster-wide checkpoint, restores the matching dense snapshot,
  /// and rewinds next_batch() so training resumes right after it.
  Status RecoverAfterCrash();

 private:
  Status RunWorker(int worker, uint64_t first_batch, uint64_t num_batches);

  /// Publishes a worker's first error immediately (not at thread exit), so
  /// the leader can see mid-epoch that the epoch is doomed.
  void NoteError(const Status& status);
  /// True once any worker hit an error this epoch. Workers record errors
  /// before arriving at the phase barrier, so a check after a barrier is
  /// race-free.
  bool EpochFailed();

  ps::PsCluster* cluster_;
  TrainerConfig config_;
  std::unique_ptr<DeepFm> model_;
  std::mutex model_mutex_;

  std::vector<std::unique_ptr<workload::CriteoSynth>> data_;
  std::vector<uint64_t> data_seeds_;  // per-worker base seed (replay)
  std::vector<std::unique_ptr<ps::PsClient>> clients_;
  std::unique_ptr<Barrier> barrier_;

  // Atomic: progress() may be polled from a monitoring thread while
  // TrainBatches advances it.
  std::atomic<uint64_t> next_batch_{1};

  // Dense snapshots by checkpoint batch id (the TF-side checkpoint).
  std::map<uint64_t, std::vector<float>> dense_checkpoints_;

  mutable std::mutex metrics_mutex_;
  std::vector<float> window_labels_;
  std::vector<float> window_predictions_;
  double window_loss_sum_ = 0;
  uint64_t examples_seen_ = 0;

  std::mutex status_mutex_;
  Status first_error_;
};

}  // namespace oe::train

#endif  // OE_TRAIN_SYNC_TRAINER_H_
