#include "nn/gpt.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "tensor/ops.hpp"

namespace sh::nn {

GptModel::GptModel(const GptConfig& config) : config_(config) {
  auto emb = std::make_unique<Embedding>(
      "embedding", config.vocab, config.max_seq, config.hidden, config.dropout,
      config.dropout_seed, /*dropout_stream=*/0);
  embedding_ = emb.get();
  layers_.push_back(std::move(emb));
  for (std::int64_t i = 0; i < config.layers; ++i) {
    const bool moe = config.moe_experts > 0 && config.moe_every > 0 &&
                     (i % config.moe_every) == config.moe_every - 1;
    if (moe) {
      layers_.push_back(std::make_unique<MoeBlock>(
          "moe_block" + std::to_string(i), config.hidden, config.heads,
          config.moe_experts));
    } else {
      layers_.push_back(std::make_unique<TransformerBlock>(
          "block" + std::to_string(i), config.hidden, config.heads,
          config.checkpoint_activations, config.dropout, config.dropout_seed,
          /*dropout_stream=*/static_cast<std::uint64_t>(i) + 1));
    }
  }
  layers_.push_back(
      std::make_unique<LmHead>("head", config.hidden, config.vocab));
}

std::int64_t GptModel::max_layer_params() const {
  std::int64_t m = 0;
  for (const auto& l : layers_) m = std::max(m, l->param_count());
  return m;
}

std::int64_t GptModel::total_params() const {
  std::int64_t sum = 0;
  for (const auto& l : layers_) sum += l->param_count();
  return sum;
}

tensor::Tensor GptModel::forward(std::span<const std::int32_t> ids,
                                 const BatchShape& shape) {
  if (static_cast<std::int64_t>(ids.size()) != shape.tokens()) {
    throw std::invalid_argument("GptModel::forward: ids size mismatch");
  }
  embedding_->set_ids({ids.begin(), ids.end()});
  tensor::Tensor x;
  for (auto& l : layers_) x = l->forward(x, shape);
  return x;
}

void GptModel::backward(const tensor::Tensor& grad_logits,
                        const BatchShape& shape) {
  tensor::Tensor g = grad_logits;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g, shape);
  }
}

float lm_loss(const tensor::Tensor& logits,
              std::span<const std::int32_t> targets,
              tensor::Tensor& grad_logits) {
  const std::int64_t rows = logits.shape().dim(0);
  const std::int64_t classes = logits.shape().dim(1);
  if (static_cast<std::int64_t>(targets.size()) != rows) {
    throw std::invalid_argument("lm_loss: target count mismatch");
  }
  for (const std::int32_t t : targets) {
    if (t < 0 || t >= classes) {
      throw std::out_of_range("lm_loss: target " + std::to_string(t) +
                              " outside [0, " + std::to_string(classes) + ")");
    }
  }
  if (!grad_logits.defined() || !(grad_logits.shape() == logits.shape())) {
    grad_logits = tensor::Tensor::zeros(logits.shape());
  }
  return tensor::cross_entropy(logits.data(), targets.data(),
                               grad_logits.data(), rows, classes);
}

}  // namespace sh::nn
