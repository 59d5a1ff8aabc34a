#include "train/deepfm.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace oe::train {
namespace {

float Sigmoid(float x) {
  return 1.0f / (1.0f + std::exp(-x));
}

}  // namespace

DeepFm::DeepFm(const DeepFmConfig& config) : config_(config) {
  std::vector<uint32_t> layers;
  layers.push_back(config.dense_dim + config.num_fields * config.embed_dim);
  for (uint32_t h : config.hidden) layers.push_back(h);
  layers.push_back(1);
  mlp_ = std::make_unique<Mlp>(std::move(layers),
                               config.dense_learning_rate, config.seed);
}

float DeepFm::ForwardOne(const workload::CtrExample& example,
                         const float* embeddings, Mlp::Scratch* scratch,
                         std::vector<float>* mlp_input,
                         std::vector<float>* field_sum) const {
  const uint32_t d = config_.embed_dim;
  const uint32_t fields = config_.num_fields;

  // FM second-order term: 0.5 * sum_d [ (sum_f e_fd)^2 - sum_f e_fd^2 ].
  field_sum->assign(d, 0.0f);
  float square_sum = 0;
  for (uint32_t f = 0; f < fields; ++f) {
    const float* e = embeddings + static_cast<size_t>(f) * d;
    for (uint32_t k = 0; k < d; ++k) {
      (*field_sum)[k] += e[k];
      square_sum += e[k] * e[k];
    }
  }
  float fm = 0;
  for (uint32_t k = 0; k < d; ++k) fm += (*field_sum)[k] * (*field_sum)[k];
  fm = 0.5f * (fm - square_sum);
  if (config_.use_first_order) fm += (*field_sum)[0];

  // Deep part over [dense ++ embeddings].
  mlp_input->resize(mlp_->input_dim());
  std::copy(example.dense.begin(), example.dense.end(), mlp_input->begin());
  std::copy_n(embeddings, static_cast<size_t>(fields) * d,
              mlp_input->begin() + config_.dense_dim);
  float deep = 0;
  mlp_->Forward(mlp_input->data(), &deep, scratch);

  return bias_ + fm + deep;
}

DeepFm::BatchResult DeepFm::ForwardBackward(
    const std::vector<workload::CtrExample>& batch, const float* embeddings,
    float* embed_grads) {
  const uint32_t d = config_.embed_dim;
  const uint32_t fields = config_.num_fields;
  const size_t per_example = static_cast<size_t>(fields) * d;

  BatchResult result;
  result.predictions.reserve(batch.size());
  Mlp::Scratch scratch;
  std::vector<float> mlp_input;
  std::vector<float> field_sum;
  std::vector<float> x_grad(mlp_->input_dim());

  std::fill_n(embed_grads, batch.size() * per_example, 0.0f);
  for (size_t i = 0; i < batch.size(); ++i) {
    const workload::CtrExample& example = batch[i];
    const float* e = embeddings + i * per_example;
    const float logit =
        ForwardOne(example, e, &scratch, &mlp_input, &field_sum);
    const float p = Sigmoid(logit);
    result.predictions.push_back(p);
    result.loss_sum += LogLoss(example.label, p);

    const float dlogit = p - example.label;
    bias_grad_ += dlogit;

    // FM gradient: d(fm)/d(e_fd) = sum_d' ... = field_sum[d] - e_fd.
    float* grads = embed_grads + i * per_example;
    for (uint32_t f = 0; f < fields; ++f) {
      const float* ef = e + static_cast<size_t>(f) * d;
      float* gf = grads + static_cast<size_t>(f) * d;
      for (uint32_t k = 0; k < d; ++k) {
        gf[k] += dlogit * (field_sum[k] - ef[k]);
      }
      if (config_.use_first_order) gf[0] += dlogit;
    }
    // Deep gradient: dL/d(mlp input), embeddings slice added.
    mlp_->BackwardAccumulate(mlp_input.data(), &dlogit, &scratch,
                             x_grad.data());
    for (size_t k = 0; k < per_example; ++k) {
      grads[k] += x_grad[config_.dense_dim + k];
    }
  }
  return result;
}

std::vector<float> DeepFm::Predict(
    const std::vector<workload::CtrExample>& batch, const float* embeddings) {
  const size_t per_example =
      static_cast<size_t>(config_.num_fields) * config_.embed_dim;
  std::vector<float> predictions;
  predictions.reserve(batch.size());
  Mlp::Scratch scratch;
  std::vector<float> mlp_input;
  std::vector<float> field_sum;
  for (size_t i = 0; i < batch.size(); ++i) {
    const float logit = ForwardOne(batch[i], embeddings + i * per_example,
                                   &scratch, &mlp_input, &field_sum);
    predictions.push_back(Sigmoid(logit));
  }
  return predictions;
}

void DeepFm::ApplyDenseGradients(size_t batch_size) {
  mlp_->ApplyGradients(batch_size);
  bias_ -= config_.dense_learning_rate * bias_grad_ /
           static_cast<float>(batch_size);
  bias_grad_ = 0.0f;
}

std::vector<float> DeepFm::SaveDense() const {
  std::vector<float> parameters = mlp_->SaveParameters();
  parameters.push_back(bias_);
  return parameters;
}

Status DeepFm::LoadDense(const std::vector<float>& parameters) {
  if (parameters.empty()) return Status::InvalidArgument("empty blob");
  bias_ = parameters.back();
  std::vector<float> mlp_params(parameters.begin(), parameters.end() - 1);
  return mlp_->LoadParameters(mlp_params);
}

double LogLoss(float label, float prediction) {
  const double p = std::clamp(static_cast<double>(prediction), 1e-7,
                              1.0 - 1e-7);
  return label > 0.5f ? -std::log(p) : -std::log(1.0 - p);
}

double ComputeAuc(const std::vector<float>& labels,
                  const std::vector<float>& predictions) {
  OE_CHECK(labels.size() == predictions.size());
  std::vector<size_t> order(labels.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return predictions[a] < predictions[b];
  });
  // Rank-sum (Mann-Whitney U) with average ranks for ties.
  double positive_rank_sum = 0;
  uint64_t positives = 0;
  size_t i = 0;
  while (i < order.size()) {
    size_t j = i;
    while (j < order.size() &&
           predictions[order[j]] == predictions[order[i]]) {
      ++j;
    }
    const double avg_rank = 0.5 * static_cast<double>(i + j - 1) + 1.0;
    for (size_t k = i; k < j; ++k) {
      if (labels[order[k]] > 0.5f) {
        positive_rank_sum += avg_rank;
        ++positives;
      }
    }
    i = j;
  }
  const uint64_t negatives = labels.size() - positives;
  if (positives == 0 || negatives == 0) return 0.5;
  const double u = positive_rank_sum -
                   static_cast<double>(positives) *
                       (static_cast<double>(positives) + 1.0) / 2.0;
  return u / (static_cast<double>(positives) * static_cast<double>(negatives));
}

}  // namespace oe::train
