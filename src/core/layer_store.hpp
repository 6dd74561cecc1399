// Per-layer CPU-side master state (Section III-E3).
//
// When loading the model, STRONGHOLD allocates pinned CPU memory for every
// DNN layer: parameters, gradients and optimizer states live on the host; the
// GPU working window holds transient copies of params (+grads during BP).
// With a secondary-storage tier configured (Section III-G), layers beyond the
// CPU capacity are backed by a swap file and faulted in ahead of prefetch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <vector>

#include "nn/gpt.hpp"
#include "storage/swap_file.hpp"
#include "tensor/rng.hpp"

namespace sh::core {

/// Training state of one layer unit.
struct LayerState {
  std::size_t index = 0;
  nn::Layer* layer = nullptr;
  std::int64_t params = 0;

  // Host-side master copies ("pinned memory" in the paper).
  std::vector<float> cpu_params;
  std::vector<float> cpu_grads;
  std::vector<float> cpu_opt;  // optimizer state planes
  std::int64_t step = 0;       // optimizer step count

  bool pinned_on_gpu = false;  // embedding/head stay GPU-resident
  bool swap_backed = false;    // master params+opt live on the NVMe tier
  bool opt_tiered = false;     // Adam moments live NVMe-resident (cpu_opt empty)

  // GPU residency (managed by the engine). The slot is byte-typed: it holds
  // 2*params elements in the engine's window dtype (f32 or bf16), laid out
  // [0, params) parameters, [params, 2*params) gradients. Pinned layers
  // (embedding/head) always store f32 elements.
  std::byte* gpu_slot = nullptr;
  std::shared_future<void> ready;        // prefetch completion
  std::shared_future<void> update_done;  // optimizer-step completion
};

class LayerStore {
 public:
  /// Builds master state for every layer of `model`. Layers whose cumulative
  /// state exceeds `cpu_capacity_bytes` are marked swap-backed (requires
  /// `swap`); 0 means unlimited CPU RAM. The first and last layer are never
  /// swap-backed (they are pinned on the GPU).
  ///
  /// With `tier_optimizer` set (requires `swap`), non-pinned layers keep their
  /// Adam moments NVMe-resident: `cpu_opt` stays empty and the moments are
  /// paged through the tier by the optimizer pool. Tiered layers only charge
  /// params+grads (8 bytes/param) against the CPU budget.
  LayerStore(nn::GptModel& model, std::int64_t opt_state_per_param,
             std::size_t cpu_capacity_bytes = 0,
             storage::SwapFile* swap = nullptr, bool tier_optimizer = false);

  /// Binds every layer to its CPU blobs and initialises parameters.
  /// Swap-backed layers are written out to the tier afterwards.
  void init_params(std::uint64_t seed);

  std::size_t size() const noexcept { return states_.size(); }
  LayerState& state(std::size_t i) { return *states_[i]; }
  const LayerState& state(std::size_t i) const { return *states_[i]; }

  std::int64_t max_layer_params() const noexcept { return max_params_; }
  std::size_t swap_backed_count() const noexcept { return swap_backed_; }
  std::size_t opt_tiered_count() const noexcept { return opt_tiered_; }
  storage::SwapFile* swap() noexcept { return swap_; }

  /// Swap key of layer i's NVMe-resident moment region (tiered layers only).
  /// Disjoint from the params/opt key space used by swap-backed layers.
  static std::int64_t moment_key(std::size_t i) {
    return kMomentKeyBase + static_cast<std::int64_t>(i);
  }

  /// Number of optimizer-state floats layer i owns (params * planes).
  std::size_t opt_floats(std::size_t i) const {
    return static_cast<std::size_t>(state(i).params * opt_state_per_param_);
  }

  /// Snapshot of layer i's moments regardless of tier: a copy of `cpu_opt`
  /// for resident layers, a synchronous tier read for tiered ones. Throws
  /// storage::IoError once the tier's retry budget is exhausted.
  std::vector<float> moments_copy(std::size_t i) const;

  /// Installs `m` as layer i's moments (restore path): writes through to the
  /// tier for tiered layers, copies into `cpu_opt` otherwise. Size-checked.
  void install_moments(std::size_t i, std::span<const float> m);

  /// Asynchronously loads a swap-backed layer's params (+opt state) into its
  /// CPU staging blobs. No-op future for CPU-resident layers. Transient tier
  /// faults are retried inside the tier; the future carries a typed
  /// storage::IoError once the retry budget is exhausted (get() to observe).
  std::shared_future<void> fault_in(std::size_t i);

  /// Asynchronously writes a swap-backed layer's params (+opt state) back to
  /// the tier after a parameter update. No-op future for resident layers.
  /// Same retry/error contract as fault_in; callers that drop the future
  /// still surface permanent failures via SwapFile::rethrow_pending().
  std::shared_future<void> write_back(std::size_t i);

 private:
  static std::shared_future<void> ready_future();
  std::int64_t swap_key_params(std::size_t i) const;
  std::int64_t swap_key_opt(std::size_t i) const;

  static constexpr std::int64_t kMomentKeyBase = std::int64_t{1} << 20;

  std::vector<std::unique_ptr<LayerState>> states_;
  std::int64_t opt_state_per_param_;
  std::int64_t max_params_ = 0;
  std::size_t swap_backed_ = 0;
  std::size_t opt_tiered_ = 0;
  storage::SwapFile* swap_ = nullptr;
};

}  // namespace sh::core
