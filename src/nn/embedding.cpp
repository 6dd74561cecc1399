#include "nn/embedding.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "tensor/dropout.hpp"
#include "tensor/ops.hpp"

namespace sh::nn {

Embedding::Embedding(std::string name, std::int64_t vocab, std::int64_t max_seq,
                     std::int64_t hidden, float dropout,
                     std::uint64_t dropout_seed, std::uint64_t dropout_stream)
    : name_(std::move(name)),
      vocab_(vocab),
      max_seq_(max_seq),
      hidden_(hidden),
      dropout_(dropout),
      dropout_seed_(dropout_seed),
      dropout_stream_(dropout_stream) {}

void Embedding::bind(float* params, float* grads) {
  ParamBinder binder(params, grads);
  std::tie(token_table_, token_grad_) = binder.take({vocab_, hidden_});
  std::tie(pos_table_, pos_grad_) = binder.take({max_seq_, hidden_});
}

void Embedding::set_ids(std::vector<std::int32_t> ids) {
  for (const std::int32_t id : ids) {
    if (id < 0 || id >= vocab_) {
      throw std::out_of_range("Embedding: token id " + std::to_string(id) +
                              " outside [0, " + std::to_string(vocab_) + ")");
    }
  }
  ids_ = std::move(ids);
}

void Embedding::init(tensor::Rng& rng) {
  rng.fill_normal(token_table_.span(), 0.02f);
  rng.fill_normal(pos_table_.span(), 0.01f);
}

tensor::Tensor Embedding::forward(const tensor::Tensor& x,
                                  const BatchShape& shape) {
  (void)x;
  const std::int64_t tokens = shape.tokens();
  if (static_cast<std::int64_t>(ids_.size()) != tokens) {
    throw std::logic_error("Embedding::forward: ids not staged for batch");
  }
  auto y = tensor::Tensor::zeros({tokens, hidden_});
  tensor::embedding_gather(token_table_.data(), ids_.data(), y.data(), tokens,
                           hidden_);
  if (shape.pos_offset + shape.seq > max_seq_) {
    throw std::out_of_range("Embedding: position exceeds max_seq");
  }
  for (std::int64_t b = 0; b < shape.batch; ++b) {
    for (std::int64_t t = 0; t < shape.seq; ++t) {
      tensor::axpy(1.0f, pos_table_.data() + (shape.pos_offset + t) * hidden_,
                   y.data() + (b * shape.seq + t) * hidden_, hidden_);
    }
  }
  if (shape.training && dropout_ > 0.0f) {
    tensor::dropout_forward(
        y.data(), y.data(), y.numel(), dropout_, dropout_seed_,
        dropout_stream_, static_cast<std::uint64_t>(shape.step),
        static_cast<std::uint64_t>(shape.row_offset * shape.seq * hidden_));
  }
  return y;
}

tensor::Tensor Embedding::backward(const tensor::Tensor& grad_out,
                                   const BatchShape& shape) {
  const std::int64_t tokens = shape.tokens();
  tensor::Tensor masked;
  const float* g = grad_out.data();
  if (shape.training && dropout_ > 0.0f) {
    masked = tensor::Tensor::zeros(grad_out.shape());
    tensor::dropout_backward(
        grad_out.data(), masked.data(), grad_out.numel(), dropout_,
        dropout_seed_, dropout_stream_, static_cast<std::uint64_t>(shape.step),
        static_cast<std::uint64_t>(shape.row_offset * shape.seq * hidden_));
    g = masked.data();
  }
  tensor::embedding_scatter_add(g, ids_.data(), token_grad_.data(), tokens,
                                hidden_);
  for (std::int64_t b = 0; b < shape.batch; ++b) {
    for (std::int64_t t = 0; t < shape.seq; ++t) {
      tensor::axpy(1.0f, g + (b * shape.seq + t) * hidden_,
                   pos_grad_.data() + t * hidden_, hidden_);
    }
  }
  // The embedding is the first layer; there is no upstream gradient.
  return {};
}

}  // namespace sh::nn
