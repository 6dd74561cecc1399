// Token + positional embedding layer. This is the first layer of the GPT
// model; the STRONGHOLD runtime pins it in GPU memory (Figure 3 in the
// paper) to avoid window-fill latency at iteration start.
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace sh::nn {

class Embedding final : public Layer {
 public:
  /// `dropout` applies deterministic inverted dropout to the embedding
  /// output (the usual GPT embedding dropout).
  Embedding(std::string name, std::int64_t vocab, std::int64_t max_seq,
            std::int64_t hidden, float dropout = 0.0f,
            std::uint64_t dropout_seed = 0, std::uint64_t dropout_stream = 0);

  std::string name() const override { return name_; }
  std::int64_t param_count() const override {
    return (vocab_ + max_seq_) * hidden_;
  }
  void bind(float* params, float* grads) override;
  void init(tensor::Rng& rng) override;

  /// Token ids must be staged with set_ids() before forward; the `x` input is
  /// ignored (the embedding is the source of the activation stream).
  tensor::Tensor forward(const tensor::Tensor& x,
                         const BatchShape& shape) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out,
                          const BatchShape& shape) override;

  /// Stages the token ids of the next forward. Throws std::out_of_range for
  /// an id outside [0, vocab): it would index past the token table.
  void set_ids(std::vector<std::int32_t> ids);

  std::int64_t vocab() const noexcept { return vocab_; }

 private:
  std::string name_;
  std::int64_t vocab_;
  std::int64_t max_seq_;
  std::int64_t hidden_;
  float dropout_;
  std::uint64_t dropout_seed_;
  std::uint64_t dropout_stream_;
  tensor::Tensor token_table_, token_grad_;
  tensor::Tensor pos_table_, pos_grad_;
  std::vector<std::int32_t> ids_;
};

}  // namespace sh::nn
