// GPT-style model assembled from an Embedding, n TransformerBlocks and an
// LmHead. The model is expressed as a flat, ordered list of layers — exactly
// the representation STRONGHOLD's preprocessing step extracts from the tensor
// graph (Section III-B): a static, sequential layer execution order.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nn/block.hpp"
#include "nn/embedding.hpp"
#include "nn/head.hpp"
#include "nn/module.hpp"
#include "nn/moe.hpp"

namespace sh::nn {

struct GptConfig {
  std::int64_t vocab = 64;
  std::int64_t max_seq = 16;
  std::int64_t hidden = 32;
  std::int64_t heads = 4;
  std::int64_t layers = 2;  // number of transformer blocks
  bool checkpoint_activations = false;
  /// Mixture-of-experts: every `moe_every`-th block becomes a MoeBlock with
  /// `moe_experts` experts (0 experts = dense model). Exercises the paper's
  /// nonlinear-structure handling (Section III-B) and gives the layer stack
  /// a heterogeneous size profile.
  std::int64_t moe_experts = 0;
  std::int64_t moe_every = 2;
  /// Dropout probability on the embedding output and the residual branches
  /// of dense blocks (0 = off). Masks are deterministic counter-based
  /// functions of (seed, step, position), so activation-checkpoint
  /// recomputation and executor splitting reproduce them exactly.
  float dropout = 0.0f;
  std::uint64_t dropout_seed = 0x5eedULL;

  /// Total layer units seen by the runtime (embedding + blocks + head).
  std::int64_t num_units() const noexcept { return layers + 2; }
};

/// Owns the layer stack of a GPT model. Parameter storage is *not* owned —
/// callers bind each layer to memory (OwnedStorage for monolithic training,
/// pool-managed buffers under STRONGHOLD).
class GptModel {
 public:
  explicit GptModel(const GptConfig& config);

  const GptConfig& config() const noexcept { return config_; }
  std::size_t num_layers() const noexcept { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }
  const Layer& layer(std::size_t i) const { return *layers_[i]; }
  Embedding& embedding() { return *embedding_; }

  /// Largest per-layer parameter count — sizes the GPU working-window slots.
  std::int64_t max_layer_params() const;
  std::int64_t total_params() const;

  /// Runs the full forward pass. `ids` are [batch * seq] token ids.
  tensor::Tensor forward(std::span<const std::int32_t> ids,
                         const BatchShape& shape);
  /// Runs the full backward pass from the loss gradient over logits.
  void backward(const tensor::Tensor& grad_logits, const BatchShape& shape);

 private:
  GptConfig config_;
  std::vector<std::unique_ptr<Layer>> layers_;
  Embedding* embedding_ = nullptr;
};

/// Fused softmax cross-entropy over logits; returns mean loss and writes the
/// logits gradient. Throws std::out_of_range for a target outside
/// [0, classes).
float lm_loss(const tensor::Tensor& logits,
              std::span<const std::int32_t> targets,
              tensor::Tensor& grad_logits);

}  // namespace sh::nn
