#include "core/monolithic.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "tensor/ops.hpp"

namespace sh::core {

MonolithicTrainer::MonolithicTrainer(nn::GptModel& model,
                                     const optim::AdamConfig& adam,
                                     TrainOptions options)
    : model_(model),
      adam_(adam),
      options_(std::move(options)),
      store_(model, adam_.state_per_param()) {}

MonolithicTrainer::MonolithicTrainer(nn::GptModel& model,
                                     const optim::AdamConfig& adam,
                                     float clip_grad_norm,
                                     optim::LrSchedule lr_schedule)
    : MonolithicTrainer(model, adam,
                        TrainOptions{.clip_grad_norm = clip_grad_norm,
                                     .lr_schedule = std::move(lr_schedule)}) {}

void MonolithicTrainer::init_params(std::uint64_t seed) {
  store_.init_params(seed);
}

float MonolithicTrainer::train_step(const data::Batch& batch) {
  const std::int64_t seq = model_.config().max_seq;
  const std::int64_t bs = static_cast<std::int64_t>(batch.ids.size()) / seq;
  const nn::BatchShape shape{bs, seq, /*training=*/true,
                             static_cast<std::int64_t>(iterations_),
                             /*row_offset=*/0};

  for (std::size_t i = 0; i < store_.size(); ++i) {
    LayerState& st = store_.state(i);
    std::fill(st.cpu_grads.begin(), st.cpu_grads.end(), 0.0f);
    st.layer->bind(st.cpu_params.data(), st.cpu_grads.data());
  }

  tensor::Tensor logits = model_.forward(batch.ids, shape);
  tensor::Tensor grad_logits;
  const float loss = nn::lm_loss(logits, batch.targets, grad_logits);
  model_.backward(grad_logits, shape);

  const float lr = options_.lr_schedule
                       ? options_.lr_schedule(
                             static_cast<std::int64_t>(iterations_) + 1)
                       : -1.0f;
  ++iterations_;

  // Global-norm clipping (per-layer sums in layer order, matching the
  // engine).
  float clip = 1.0f;
  if (options_.clip_grad_norm > 0.0f) {
    double total = 0.0;
    for (std::size_t i = 0; i < store_.size(); ++i) {
      LayerState& st = store_.state(i);
      total += tensor::dot(st.cpu_grads.data(), st.cpu_grads.data(),
                           st.params);
    }
    const double norm = std::sqrt(total);
    if (norm > options_.clip_grad_norm) {
      clip = static_cast<float>(options_.clip_grad_norm / norm);
    }
  }

  for (std::size_t i = 0; i < store_.size(); ++i) {
    LayerState& st = store_.state(i);
    if (clip != 1.0f) tensor::scale(clip, st.cpu_grads.data(), st.params);
    ++st.step;
    adam_.step(st.cpu_params.data(), st.cpu_grads.data(), st.cpu_opt.data(),
               st.step, st.params, lr);
  }
  return loss;
}

void MonolithicTrainer::snapshot_params(std::vector<float>& out) const {
  out.clear();
  for (std::size_t i = 0; i < store_.size(); ++i) {
    const LayerState& st = store_.state(i);
    out.insert(out.end(), st.cpu_params.begin(), st.cpu_params.end());
  }
}

}  // namespace sh::core
