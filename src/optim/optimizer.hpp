// Optimizers operating on flat per-layer parameter blobs.
//
// STRONGHOLD keeps optimizer states in CPU RAM and runs updates on CPU cores
// (Section III-E1). To make a layer's full training state one contiguous,
// transferable unit, optimizers work on raw float arrays: parameters,
// gradients and `state_per_param()` floats of optimizer state per parameter,
// all owned by the runtime.
#pragma once

#include <cstdint>

namespace sh::optim {

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Number of state floats per parameter (Adam: 2 — momentum + variance).
  virtual std::int64_t state_per_param() const noexcept = 0;

  /// Applies one update step in place. `state` points at
  /// n * state_per_param() floats laid out as contiguous planes
  /// (all momentum, then all variance). `t` is the 1-based step count.
  /// `lr` overrides the configured learning rate when >= 0 (learning-rate
  /// schedules pass the per-step value here so asynchronous updates always
  /// apply the rate that was current when the step was *submitted*). All
  /// mutable state is in the arguments, so concurrent steps on different
  /// layers may share one optimizer.
  virtual void step(float* params, const float* grads, float* state,
                    std::int64_t t, std::int64_t n, float lr = -1.0f) const = 0;
};

struct AdamConfig {
  float lr = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float weight_decay = 0.0f;
};

/// Adam [22] with decoupled weight decay (AdamW-style when weight_decay > 0).
class Adam final : public Optimizer {
 public:
  explicit Adam(const AdamConfig& config = {}) : config_(config) {}

  std::int64_t state_per_param() const noexcept override { return 2; }
  void step(float* params, const float* grads, float* state, std::int64_t t,
            std::int64_t n, float lr = -1.0f) const override;

  const AdamConfig& config() const noexcept { return config_; }

 private:
  AdamConfig config_;
};

struct SgdConfig {
  float lr = 1e-2f;
  float momentum = 0.0f;
};

/// SGD with optional classical momentum.
class Sgd final : public Optimizer {
 public:
  explicit Sgd(const SgdConfig& config = {}) : config_(config) {}

  std::int64_t state_per_param() const noexcept override {
    return config_.momentum != 0.0f ? 1 : 0;
  }
  void step(float* params, const float* grads, float* state, std::int64_t t,
            std::int64_t n, float lr = -1.0f) const override;

 private:
  SgdConfig config_;
};

}  // namespace sh::optim
