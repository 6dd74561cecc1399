// Conventional all-in-memory training (the Megatron-LM-style reference).
//
// Every layer's parameters, gradients and optimizer state live in one memory
// space; updates run serially layer by layer after the backward pass. This is
// both the correctness oracle for StrongholdEngine (bit-identical results
// expected) and the "conventional training" comparator in the examples.
#pragma once

#include <cstdint>
#include <vector>

#include "core/layer_store.hpp"
#include "data/synthetic.hpp"
#include "nn/gpt.hpp"
#include "optim/optimizer.hpp"
#include "optim/schedule.hpp"

namespace sh::core {

/// Options mirroring the engine's training features so the oracle covers
/// every path: clipping and schedules.
struct TrainOptions {
  float clip_grad_norm = 0.0f;
  optim::LrSchedule lr_schedule{};
};

class MonolithicTrainer {
 public:
  MonolithicTrainer(nn::GptModel& model, const optim::AdamConfig& adam,
                    TrainOptions options);
  MonolithicTrainer(nn::GptModel& model, const optim::AdamConfig& adam,
                    float clip_grad_norm = 0.0f,
                    optim::LrSchedule lr_schedule = {});

  /// Deterministic initialisation — the same layer-order Rng walk as
  /// LayerStore::init_params, so both trainers start from identical weights.
  void init_params(std::uint64_t seed);

  /// One training iteration; returns the mean LM loss.
  float train_step(const data::Batch& batch);

  /// Concatenated per-layer parameters (same layout as
  /// StrongholdEngine::snapshot_params).
  void snapshot_params(std::vector<float>& out) const;

  std::size_t iterations() const noexcept { return iterations_; }

 private:
  nn::GptModel& model_;
  optim::Adam adam_;
  TrainOptions options_;
  LayerStore store_;  // reused purely as the flat state container
  std::size_t iterations_ = 0;
};

}  // namespace sh::core
