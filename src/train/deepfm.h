#ifndef OE_TRAIN_DEEPFM_H_
#define OE_TRAIN_DEEPFM_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "train/mlp.h"
#include "workload/criteo.h"

namespace oe::train {

/// DeepFM [36]: a factorization machine over categorical embeddings plus a
/// deep MLP over [dense features ++ concatenated embeddings], summed into
/// one logit with a sigmoid click probability. The embeddings (the sparse
/// part) live on the parameter server; this class holds only the dense
/// parameters and computes real forward/backward passes.
struct DeepFmConfig {
  uint32_t num_fields = 26;
  uint32_t dense_dim = 13;
  uint32_t embed_dim = 16;
  std::vector<uint32_t> hidden = {64, 32};
  float dense_learning_rate = 0.01f;
  uint64_t seed = 1;
  /// FM first-order term: embedding component 0 doubles as the feature's
  /// scalar weight (the common shared-table DeepFM simplification).
  bool use_first_order = true;
};

class DeepFm {
 public:
  explicit DeepFm(const DeepFmConfig& config);

  struct BatchResult {
    double loss_sum = 0;                  // summed logloss
    std::vector<float> predictions;      // per example, in [0,1]
  };

  /// Runs forward + backward over a batch. `embeddings` holds each
  /// example's per-field embedding vectors, laid out
  /// [example][field][embed_dim]; `embed_grads` (same shape) receives
  /// dL/d(embedding) summed over the FM and deep paths. Dense-parameter
  /// gradients accumulate internally until ApplyDenseGradients().
  BatchResult ForwardBackward(const std::vector<workload::CtrExample>& batch,
                              const float* embeddings, float* embed_grads);

  /// Inference only (no gradients).
  std::vector<float> Predict(const std::vector<workload::CtrExample>& batch,
                             const float* embeddings);

  /// One synchronous dense update, gradients averaged over `batch_size`.
  void ApplyDenseGradients(size_t batch_size);

  /// Dense checkpoint support (the paper backs the dense part up with
  /// TensorFlow's checkpoint; here it is a parameter blob).
  std::vector<float> SaveDense() const;
  Status LoadDense(const std::vector<float>& parameters);

  const DeepFmConfig& config() const { return config_; }

 private:
  float ForwardOne(const workload::CtrExample& example,
                   const float* embeddings, Mlp::Scratch* scratch,
                   std::vector<float>* mlp_input,
                   std::vector<float>* field_sum) const;

  DeepFmConfig config_;
  std::unique_ptr<Mlp> mlp_;
  float bias_ = 0.0f;
  float bias_grad_ = 0.0f;
};

/// Binary logloss: -(y log p + (1-y) log(1-p)), clamped for stability.
double LogLoss(float label, float prediction);

/// Area under the ROC curve by rank statistic. Returns 0.5 when one class
/// is absent.
double ComputeAuc(const std::vector<float>& labels,
                  const std::vector<float>& predictions);

}  // namespace oe::train

#endif  // OE_TRAIN_DEEPFM_H_
