#include "core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "nn/block.hpp"
#include "obs/obs.hpp"
#include "tensor/rng.hpp"

#include "dist/process_group.hpp"
#include "tensor/ops.hpp"

namespace sh::core {

using obs::wall_seconds;

namespace {

/// The first micro-step of an accumulation cycle overwrites a layer's CPU
/// gradient accumulator; later ones add to it.
void accumulate_grads(LayerState& st, const float* g, bool overwrite) {
  if (overwrite) {
    std::copy_n(g, static_cast<std::size_t>(st.params), st.cpu_grads.data());
  } else {
    tensor::axpy(1.0f, g, st.cpu_grads.data(), st.params);
  }
}

std::unique_ptr<storage::SwapFile> make_swap(const EngineConfig& cfg) {
  const bool nvme_opt = cfg.optimizer_tier == OptimizerTier::nvme;
  if (cfg.cpu_capacity_bytes == 0 && !nvme_opt) return nullptr;
  if (cfg.swap_path.empty()) {
    throw std::invalid_argument(
        cfg.cpu_capacity_bytes != 0
            ? "EngineConfig: cpu_capacity_bytes requires swap_path"
            : "EngineConfig: optimizer_tier=nvme requires swap_path");
  }
  // SH_FAULT_* env knobs override the config so any bench/example can run
  // against an unhealthy tier without code changes.
  return std::make_unique<storage::SwapFile>(
      cfg.swap_path, /*capacity_bytes=*/0, /*bytes_per_second=*/0.0,
      storage::fault_config_from_env(cfg.swap_faults));
}

// SH_OPT_TIER must be folded into the config BEFORE the member-initialiser
// list runs: swap_ and store_ are constructed from cfg_, unlike the
// SH_WINDOW_* overrides which can wait for the constructor body.
EngineConfig resolve_engine_env(EngineConfig cfg) {
  if (const char* env = std::getenv("SH_OPT_TIER")) {
    const std::string v(env);
    if (v == "cpu") {
      cfg.optimizer_tier = OptimizerTier::cpu;
    } else if (v == "nvme") {
      cfg.optimizer_tier = OptimizerTier::nvme;
    } else {
      throw std::invalid_argument("SH_OPT_TIER: expected \"cpu\" or \"nvme\"");
    }
  }
  return cfg;
}

}  // namespace

StrongholdEngine::StrongholdEngine(nn::GptModel& model, EngineConfig config)
    : model_(model),
      cfg_(resolve_engine_env(std::move(config))),
      swap_(make_swap(cfg_)),
      store_(model, /*opt_state_per_param=*/2, cfg_.cpu_capacity_bytes,
             swap_.get(),
             /*tier_optimizer=*/cfg_.optimizer_tier == OptimizerTier::nvme),
      gpu_pool_("gpu", cfg_.gpu_memory_bytes),
      h2d_("h2d", cfg_.h2d_bytes_per_s),
      d2h_("d2h", cfg_.d2h_bytes_per_s),
      adam_proto_(cfg_.adam),
      opts_(adam_proto_, cfg_.optimizer_workers) {
  if (cfg_.num_executors == 0) {
    throw std::invalid_argument("num_executors must be >= 1");
  }
  if (store_.size() < 3) {
    throw std::invalid_argument("model must have at least one block");
  }
  // Window dtype: SH_WINDOW_DTYPE / SH_WINDOW_ROUNDING override the config,
  // mirroring the SH_FAULT_* / SH_CKPT_* convention. Resolved before any
  // slot sizing so the fit math prices actual bytes.
  if (const char* env = std::getenv("SH_WINDOW_DTYPE")) {
    cfg_.window_dtype = tensor::parse_dtype(env);
  }
  if (const char* env = std::getenv("SH_WINDOW_ROUNDING")) {
    cfg_.window_rounding = tensor::parse_rounding(env);
  }
  elem_bytes_ = tensor::bytes_per_element(cfg_.window_dtype);
  setup_pinned_layers();

  const std::size_t blocks = num_blocks();
  std::int64_t max_block_params = 0;
  for (std::size_t b = 1; b <= blocks; ++b) {
    max_block_params = std::max(max_block_params, store_.state(b).params);
  }
  max_block_params_ = static_cast<std::size_t>(max_block_params);
  // BF16 windows compute in FP32 on a decoded staging view (per-layer
  // compute is barrier-serialised, so one params+grads buffer suffices).
  if (bf16_window()) stage_.assign(2 * max_block_params_, 0.0f);
  const std::size_t slot_elems = 2 * max_block_params_;
  // Slots are priced in bytes under the window dtype: bf16 halves
  // slot_bytes, so `fit` (and with it the auto window) roughly doubles at a
  // fixed device budget.
  const std::size_t slot_bytes = slot_elems * elem_bytes_;
  const std::size_t fit = gpu_pool_.free_bytes() / slot_bytes;

  if (cfg_.window != 0) {
    window_ = std::min<std::size_t>(cfg_.window, blocks);
    window_frozen_ = true;
  } else {
    // Warm-up window: the largest that provably fits, per Section III-B.
    if (fit < 2 && blocks > 1) {
      throw mem::OomError("gpu", 2 * slot_bytes, gpu_pool_.free_bytes());
    }
    window_ = std::min<std::size_t>(blocks, fit > 0 ? fit - 1 : 0);
    window_ = std::max<std::size_t>(window_, 1);
  }
  const std::size_t slots = slots_for(window_, fit);
  slot_bytes_ = slot_bytes;
  slots_reserved_ = slots;
  // Throws mem::OomError when the requested window cannot be reserved.
  if (cfg_.window_mode == WindowMode::UniformSlots) {
    pool_ = std::make_unique<UniformSlotAllocator>(gpu_pool_, slot_bytes,
                                                   slots);
  } else {
    // window_budget_floats is specified in elements; price it into bytes
    // under the window dtype.
    const std::size_t budget = cfg_.window_budget_floats != 0
                                   ? cfg_.window_budget_floats * elem_bytes_
                                   : slots * slot_bytes;
    pool_ = std::make_unique<BudgetSlotAllocator>(gpu_pool_, budget);
  }

  profiles_.assign(blocks, LayerProfile{});
  for (auto& p : profiles_) {
    p.s_fp = static_cast<double>(slot_bytes);
    p.s_bp = static_cast<double>(slot_bytes);
  }

  for (std::size_t e = 1; e < cfg_.num_executors; ++e) {
    replicas_.push_back(std::make_unique<nn::GptModel>(model_.config()));
  }
  std::int64_t max_any = store_.max_layer_params();
  exec_grads_.assign(cfg_.num_executors,
                     std::vector<float>(static_cast<std::size_t>(max_any)));

  stats_.swap_backed_layers = store_.swap_backed_count();

  if (opt_tier_nvme()) {
    opts_.enable_moment_tier(store_);
    // Activation-checkpoint spill: second client of the same tier.
    // Single-executor only — with several executors the blocks run
    // micro-batches concurrently and no block's checkpoint is quiescent
    // between forward and backward.
    act_state_.assign(blocks + 1, ActSpillState{});
    act_spill_enabled_ = cfg_.num_executors == 1;
    if (act_spill_enabled_) {
      act_pressure_cb_ = gpu_pool_.add_pressure_callback(
          [this](const std::string&, std::size_t) {
            return spill_one_activation();
          });
    }
  }

  obs_provider_id_ = obs::Registry::global().add_provider(
      [this](obs::MetricsSnapshot& out) { export_metrics(out); });

  // Crash-consistent checkpointing (sh::ckpt): SH_CKPT_* env overrides the
  // config, mirroring the SH_FAULT_* convention for the swap tier. A
  // DataParallelTrainer suppresses the overlay — it resolved the env itself
  // and owns the directory as the single writer.
  if (cfg_.ckpt_env_overrides) cfg_.ckpt = ckpt::config_from_env(cfg_.ckpt);
  if (!cfg_.ckpt.dir.empty()) {
    ckpt_ = std::make_unique<ckpt::Checkpointer>(cfg_.ckpt);
  }
}

StrongholdEngine::~StrongholdEngine() {
  // Unregister the metrics provider before tearing anything it reads; after
  // remove_provider returns the registry guarantees the callback never runs.
  obs::Registry::global().remove_provider(obs_provider_id_);
  if (act_spill_enabled_) gpu_pool_.remove_pressure_callback(act_pressure_cb_);
  // Swap-tier write-backs still reference layer masters; they must land
  // before LayerStore dies.
  drain();
  // Return pinned buffers; BufferPool returns its slots on destruction.
  pool_.reset();
  gpu_pool_.deallocate(pinned_emb_);
  gpu_pool_.deallocate(pinned_head_);
}

void StrongholdEngine::drain() {
  // Updates and d2h jobs enqueue tier write-backs, so the tier drains last.
  opts_.wait_all();
  h2d_.wait_all();
  d2h_.wait_all();
  if (swap_) swap_->wait_all();
}

void StrongholdEngine::setup_pinned_layers() {
  LayerState& emb = store_.state(0);
  LayerState& head = store_.state(head_index());
  // Pinned layers always hold f32 elements — they never cross the wire per
  // step, so a bf16 encoding would cost precision without saving traffic.
  pinned_emb_ = gpu_pool_.allocate_floats(
      2 * static_cast<std::size_t>(emb.params), mem::DeviceArena::kWindow);
  pinned_head_ = gpu_pool_.allocate_floats(
      2 * static_cast<std::size_t>(head.params), mem::DeviceArena::kWindow);
  emb.gpu_slot = reinterpret_cast<std::byte*>(pinned_emb_);
  head.gpu_slot = reinterpret_cast<std::byte*>(pinned_head_);
}

void StrongholdEngine::init_params(std::uint64_t seed) {
  store_.init_params(seed);
  LayerState& emb = store_.state(0);
  LayerState& head = store_.state(head_index());
  std::memcpy(pinned_emb_, emb.cpu_params.data(),
              sizeof(float) * static_cast<std::size_t>(emb.params));
  std::fill_n(pinned_emb_ + emb.params, emb.params, 0.0f);
  std::memcpy(pinned_head_, head.cpu_params.data(),
              sizeof(float) * static_cast<std::size_t>(head.params));
  std::fill_n(pinned_head_ + head.params, head.params, 0.0f);
}

void StrongholdEngine::normalize_residency() {
  const std::size_t blocks = num_blocks();
  const std::size_t w = std::min(window_, blocks);
  // Free out-of-window residents first (e.g. the FP tail left behind by an
  // inference pass) so the head-window prefetches cannot exhaust the slots.
  for (std::size_t b = w + 1; b <= blocks; ++b) {
    LayerState& st = block(b);
    if (st.gpu_slot != nullptr) {
      wait_ready(st);
      evict_after_forward(st);
    }
  }
  for (std::size_t b = 1; b <= w; ++b) prefetch(b);
}

std::size_t StrongholdEngine::slots_for(std::size_t window,
                                        std::size_t fit) const {
  const std::size_t blocks = num_blocks();
  std::size_t slots = window < blocks ? window + 1 : blocks;  // +1 fetch stage
  // Second stage slot (best-effort, honestly accounted against the device
  // capacity): with only one, the BP loop's blocking prefetch acquire waits
  // for the PREVIOUS eviction's whole d2h job — gradient quantise + copy +
  // link throttle — to release its buffer, which serialises gradient
  // offload against backward compute (measured ~16% d2h overlap in
  // bench_fig4_trace). With two, the incoming fetch and the outgoing
  // eviction each own a stage buffer and the d2h drain overlaps the next
  // layer's backward. Skipped when the device cannot fit it; the pipeline
  // then degrades to the old serialised handoff instead of failing.
  if (slots < blocks && slots + 1 <= fit) ++slots;
  return slots;
}

void StrongholdEngine::prefetch(std::size_t index) {
  LayerState& st = store_.state(index);
  if (st.gpu_slot != nullptr) return;  // already resident or in flight
  const std::size_t need =
      2 * static_cast<std::size_t>(st.params) * elem_bytes_;
  std::byte* slot;
  if (pool_->blocking_prefetch_safe()) {
    slot = pool_->acquire(need);
  } else {
    // Byte-budget mode: a blocking hook-time fetch could wait on space that
    // only this thread's further progress can free. Defer instead — the
    // paper's "delay the layer movement" fallback; wait_ready() performs the
    // on-demand fetch when the layer is actually needed.
    slot = pool_->try_acquire(need);
    if (slot == nullptr) {
      // Report through the shared pressure layer first: a registered
      // callback (e.g. serve preempt-to-CPU on a co-located arena) may free
      // capacity and earn one retry.
      if (gpu_pool_.signal_pressure(mem::DeviceArena::kWindow, need)) {
        slot = pool_->try_acquire(need);
      }
    }
    if (slot == nullptr) {
      const double t = wall_seconds();
      obs::span("mem", "defer", t, t);
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.deferred_prefetches;
      return;
    }
  }
  issue_fetch(st, slot);
}

void StrongholdEngine::issue_fetch(LayerState& st, std::byte* slot) {
  st.gpu_slot = slot;
  auto update_done = st.update_done;  // wait for a pending optimizer step
  LayerProfile* prof = (st.index >= 1 && st.index <= num_blocks())
                           ? &profiles_[st.index - 1]
                           : nullptr;
  st.ready = h2d_.run_async([this, &st, slot, update_done, prof] {
    if (update_done.valid()) update_done.wait();
    // Fault the master in from the NVMe tier if needed (Section III-G).
    // get(), not wait(): a tier read whose retry budget is exhausted
    // must propagate its IoError into st.ready instead of silently
    // copying a stale master onto the device.
    store_.fault_in(st.index).get();
    const double t0 = wall_seconds();
    // st.step is read after update_done, so a bf16 encode is keyed on the
    // version of the master it encodes.
    fill_slot(st, slot);
    h2d_.transfer(wire_param_bytes(st.params));
    if (prof != nullptr) prof->t_c2g = wall_seconds() - t0;
    obs::span("h2d", "p", t0, wall_seconds());
  });
}

void StrongholdEngine::wait_ready(LayerState& st) {
  if (st.gpu_slot == nullptr) {
    // Deferred (or never-issued) fetch: bring the layer in on demand. By
    // now every previously computed layer's eviction is queued, so the
    // blocking acquire makes progress.
    const double t0 = wall_seconds();
    std::byte* slot =
        pool_->acquire(2 * static_cast<std::size_t>(st.params) * elem_bytes_);
    issue_fetch(st, slot);
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.demand_fetches;
    stats_.stall_seconds += wall_seconds() - t0;
  }
  if (!st.ready.valid()) return;
  if (st.ready.wait_for(std::chrono::seconds(0)) !=
      std::future_status::ready) {
    const double t0 = wall_seconds();
    st.ready.wait();
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.prefetch_stalls;
    stats_.stall_seconds += wall_seconds() - t0;
  }
  // Graceful degradation boundary: transient tier faults were already
  // retried inside the fetch; what remains here is a permanent failure
  // (storage::IoError), rethrown so train_step surfaces it instead of
  // computing on an unfetched layer.
  st.ready.get();
}

float* StrongholdEngine::bind_params_f32(LayerState& st) {
  // Pinned layers and FP32 windows store f32 elements in place; a BF16
  // window decodes into the staging buffer (barrier-serialized per layer, so
  // one buffer suffices — the stage models the f32 compute view and is not
  // charged to the window region).
  if (!bf16_window() || st.pinned_on_gpu) return slot_f32(st);
  tensor::convert_bf16_to_float(slot_b16(st), stage_.data(),
                                static_cast<std::size_t>(st.params));
  return stage_.data();
}

void StrongholdEngine::encode_bf16(const LayerState& st, const float* src,
                                   tensor::bf16* dst, std::size_t n,
                                   std::uint64_t event) const {
  if (cfg_.window_rounding == tensor::Rounding::stochastic) {
    tensor::Rng rng(tensor::mix_seed(cfg_.rounding_seed, st.index, event));
    tensor::convert_float_to_bf16_stochastic(src, dst, n, rng);
  } else {
    tensor::convert_float_to_bf16(src, dst, n);
  }
}

void StrongholdEngine::fill_slot(LayerState& st, std::byte* slot) {
  const auto params = static_cast<std::size_t>(st.params);
  if (!st.pinned_on_gpu && bf16_window()) {
    // The wire format is BF16: the FP32 master lands encoded, at half the
    // bytes; the slot genuinely stores 2-byte elements.
    auto* dst = reinterpret_cast<tensor::bf16*>(slot);
    encode_bf16(st, st.cpu_params.data(), dst, params, param_event(st));
    std::fill_n(dst + params, params, tensor::bf16{0});  // fresh grads
    return;
  }
  auto* dst = reinterpret_cast<float*>(slot);
  std::memcpy(dst, st.cpu_params.data(), params * sizeof(float));
  std::fill_n(dst + params, params, 0.0f);  // fresh gradient buffer
}

void StrongholdEngine::reduce_grads_into(const LayerState& st, float* dst) {
  std::fill_n(dst, static_cast<std::size_t>(st.params), 0.0f);
  for (auto& scratch : exec_grads_) {
    tensor::axpy(1.0f, scratch.data(), dst, st.params);
  }
  if (cfg_.grad_reducer) cfg_.grad_reducer(st.index, dst, st.params);
}

void StrongholdEngine::mark_act_spillable(std::size_t b) {
  auto* blk = dynamic_cast<nn::TransformerBlock*>(&model_.layer(b));
  // Only checkpointing blocks are eligible: after their forward the caches
  // are dropped and the kept input is quiescent until backward. A block with
  // live caches needs more than the checkpoint to run backward.
  if (blk == nullptr || !blk->checkpoint_activations() ||
      blk->has_live_caches()) {
    return;
  }
  std::lock_guard<std::mutex> lock(act_mu_);
  act_state_[b].spillable = true;
  act_state_[b].spilled = false;
}

bool StrongholdEngine::spill_one_activation() {
  std::lock_guard<std::mutex> lock(act_mu_);
  // Spill the lowest-index spillable block: backward visits blocks in
  // reverse, so it is the checkpoint needed furthest in the future.
  for (std::size_t b = 1; b < act_state_.size(); ++b) {
    ActSpillState& as = act_state_[b];
    if (!as.spillable || as.spilled) continue;
    auto* blk = static_cast<nn::TransformerBlock*>(&model_.layer(b));
    tensor::Tensor t = blk->take_checkpoint();
    if (t.data() == nullptr) {
      as.spillable = false;
      continue;
    }
    try {
      // Synchronous, retrying tier write (same FaultPlan as the window
      // tier). FP32 in, FP32 out: the round trip is bit-exact.
      swap_->write(act_key(b),
                   std::span<const float>(
                       t.data(), static_cast<std::size_t>(t.numel())));
    } catch (const storage::IoError&) {
      // Tier refused (exhausted retries or a shape-changed region): hand the
      // checkpoint back and let the arena degrade some other way.
      blk->put_checkpoint(std::move(t));
      return false;
    }
    as.shape = t.shape();
    as.spilled = true;
    {
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.act_spills;
    }
    // `t` dies here, releasing the soft-charged activation bytes.
    return true;
  }
  return false;
}

void StrongholdEngine::restore_spilled_activation(std::size_t b) {
  if (b >= act_state_.size()) return;
  std::lock_guard<std::mutex> lock(act_mu_);
  ActSpillState& as = act_state_[b];
  if (as.spilled) {
    mem::ScopedTensorCharge charge(gpu_pool_, mem::DeviceArena::kActivations);
    tensor::Tensor t = tensor::Tensor::zeros(as.shape);
    // Synchronous tier read; exhausted retries throw the typed IoError into
    // the step body, where the last-gasp checkpoint path takes over.
    swap_->read(act_key(b),
                std::span<float>(t.data(),
                                 static_cast<std::size_t>(t.numel())));
    static_cast<nn::TransformerBlock*>(&model_.layer(b))
        ->put_checkpoint(std::move(t));
    as.spilled = false;
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.act_restores;
  }
  as.spillable = false;  // backward is about to consume the checkpoint
}

void StrongholdEngine::evict_after_forward(LayerState& st) {
  // Parameters were not modified during FP and the CPU master is coherent,
  // so recycling the buffer needs no copy-back. Routed through the d2h queue
  // so it is ordered after any pending master-sync of this slot.
  std::byte* slot = st.gpu_slot;
  st.gpu_slot = nullptr;
  d2h_.run_async([this, slot] { pool_->release(slot); });
}

void StrongholdEngine::evict_after_backward(LayerState& st) {
  std::byte* slot = st.gpu_slot;
  st.gpu_slot = nullptr;
  const auto params = static_cast<std::size_t>(st.params);
  LayerProfile* prof =
      (st.index >= 1 && st.index <= num_blocks()) ? &profiles_[st.index - 1]
                                                  : nullptr;
  // One FIFO job: offload gradients, then recycle the buffer.
  const bool overwrite = accum_first_;
  auto copied = d2h_.run_async([this, &st, slot, params, prof, overwrite] {
    const double t0 = wall_seconds();
    if (bf16_window()) {
      // BF16 wire format: the gradient half of the slot already holds the
      // rounded encoding (the executor encoded the reduced FP32 gradients);
      // decode it back into the FP32 CPU accumulator.
      const tensor::bf16* g = reinterpret_cast<tensor::bf16*>(slot) + params;
      if (overwrite) {
        tensor::convert_bf16_to_float(g, st.cpu_grads.data(), params);
      } else {
        std::vector<float> tmp(params);
        tensor::convert_bf16_to_float(g, tmp.data(), params);
        tensor::axpy(1.0f, tmp.data(), st.cpu_grads.data(), st.params);
      }
    } else {
      accumulate_grads(st, reinterpret_cast<float*>(slot) + params, overwrite);
    }
    d2h_.transfer(wire_param_bytes(st.params));
    if (prof != nullptr) prof->t_g2c = wall_seconds() - t0;
    obs::span("d2h", "g", t0, wall_seconds());
    pool_->release(slot);
  });
  if (!accum_final_) return;  // mid-cycle: accumulate only, no update
  // Concurrent CPU-side update (Section III-E1), then NVMe write-back.
  defer_until_clipped([this, &st, copied] {
    opts_.submit(st, copied, [this, &st] { store_.write_back(st.index); },
                 current_lr_);
  });
}

void StrongholdEngine::update_resident_layer(LayerState& st) {
  // The layer stays in the working window across the iteration boundary; the
  // paper updates these on the GPU (t_opt_gpu). Gradients accumulate in the
  // CPU master; on the final micro-step the GPU-resident parameter copy is
  // updated in place and the master synced asynchronously.
  const auto params = static_cast<std::size_t>(st.params);
  float* g;
  if (bf16_window()) {
    // The executor encoded the reduced FP32 gradients into the slot's BF16
    // grad half; decode into the staging buffer, then accumulate in FP32.
    g = stage_.data() + max_block_params_;
    tensor::convert_bf16_to_float(slot_b16(st) + params, g, params);
  } else {
    g = slot_f32(st) + params;
  }
  accumulate_grads(st, g, accum_first_);
  if (!accum_final_) return;
  auto body = [this, &st, params] {
    if (bf16_window()) {
      // The FP32 master is authoritative; the GPU copy is refilled from
      // it, exactly like a fresh fault-in of the new version.
      opts_.update_now(st, st.cpu_params.data(), st.cpu_grads.data(),
                       current_lr_);
      fill_slot(st, st.gpu_slot);
      st.update_done =
          d2h_.run_async([this, &st] { store_.write_back(st.index); });
    } else {
      float* slot = slot_f32(st);
      opts_.update_now(st, slot, st.cpu_grads.data(), current_lr_);
      st.update_done = d2h_.run_async([this, &st, slot, params] {
        std::memcpy(st.cpu_params.data(), slot, params * sizeof(float));
        store_.write_back(st.index);
      });
    }
  };
  defer_until_clipped(body);
}

void StrongholdEngine::apply_pinned_update(LayerState& st, float* buffer) {
  accumulate_grads(st, buffer + st.params, accum_first_);
  if (!accum_final_) return;
  defer_until_clipped([this, &st, buffer] {
    opts_.update_now(st, buffer, st.cpu_grads.data(), current_lr_);
  });
}

void StrongholdEngine::defer_until_clipped(std::function<void()> update) {
  if (clipping()) {
    deferred_updates_.push_back(std::move(update));
  } else {
    update();
  }
}

void StrongholdEngine::begin_iteration_lr_and_clip() {
  std::size_t iterations;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    iterations = stats_.iterations;
  }
  const std::size_t accum = std::max<std::size_t>(cfg_.grad_accumulation, 1);
  micro_index_ = iterations % accum;
  accum_first_ = micro_index_ == 0;
  accum_final_ = micro_index_ + 1 == accum;
  // Schedules tick per optimizer update (accumulation cycle), not per
  // micro-step, matching large-batch training semantics.
  current_lr_ =
      cfg_.lr_schedule
          ? cfg_.lr_schedule(static_cast<std::int64_t>(iterations / accum) + 1)
          : -1.0f;
  // Updates queued by a step that threw never run.
  deferred_updates_.clear();
}

void StrongholdEngine::finalize_clipped_updates() {
  if (!clipping() || !accum_final_) return;
  // Every evicted layer's gradient must have drained before the norm exists.
  d2h_.wait_all();
  double total = 0.0;
  for (std::size_t i = 0; i < store_.size(); ++i) {
    const LayerState& st = store_.state(i);
    total += tensor::dot(st.cpu_grads.data(), st.cpu_grads.data(), st.params);
  }
  const double norm = std::sqrt(total);
  if (norm > cfg_.clip_grad_norm) {
    const auto s = static_cast<float>(cfg_.clip_grad_norm / norm);
    for (std::size_t i = 0; i < store_.size(); ++i) {
      LayerState& st = store_.state(i);
      tensor::scale(s, st.cpu_grads.data(), st.params);
    }
  }
  for (auto& update : deferred_updates_) update();
  deferred_updates_.clear();
}

float StrongholdEngine::train_step(const data::Batch& batch) {
  // Surface tier failures parked since the previous step HERE, where the
  // masters are still consistent: the last-gasp path can take a fresh
  // capture before the IoError reaches the trainer.
  try {
    if (swap_) swap_->rethrow_pending();
  } catch (const storage::IoError&) {
    last_gasp_checkpoint(/*consistent=*/true);
    throw;
  }
  float loss;
  try {
    loss = train_step_body(batch);
  } catch (const storage::IoError&) {
    // Mid-step fault: master state may be torn between micro-updates, so a
    // fresh capture could persist garbage. Only let the in-flight staged
    // save (captured at an earlier consistent boundary) finish committing.
    last_gasp_checkpoint(/*consistent=*/false);
    throw;
  }
  try {
    // Fire-and-forget write-back failures from THIS step land here or at
    // the next step's entry, whichever the asynchronous latch wins. Both
    // are consistent boundaries: the iteration counter is final and every
    // master update was issued before the body returned (capture quiesces
    // them), so a fresh last-gasp capture is safe.
    if (swap_) swap_->rethrow_pending();
  } catch (const storage::IoError&) {
    last_gasp_checkpoint(/*consistent=*/true);
    throw;
  }
  maybe_periodic_checkpoint();
  return loss;
}

float StrongholdEngine::train_step_body(const data::Batch& batch) {
  obs::ObsScope step_scope("engine", "train_step");
  const std::int64_t seq = model_.config().max_seq;
  const auto total_tokens = static_cast<std::int64_t>(batch.ids.size());
  if (total_tokens % seq != 0) {
    throw std::invalid_argument("batch tokens not divisible by seq");
  }
  const std::int64_t bs = total_tokens / seq;
  const auto execs = static_cast<std::int64_t>(cfg_.num_executors);
  if (bs % execs != 0) {
    throw std::invalid_argument("batch size must divide num_executors");
  }
  const std::int64_t micro_bs = bs / execs;
  std::int64_t global_step;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    global_step = static_cast<std::int64_t>(stats_.iterations);
  }
  const std::size_t blocks = num_blocks();

  begin_iteration_lr_and_clip();
  // Make sure the initial FP window is resident (first iteration, or after a
  // window-size change or an inference pass).
  normalize_residency();

  dist::Barrier bar(static_cast<int>(cfg_.num_executors));
  std::vector<float> losses(cfg_.num_executors, 0.0f);
  // Micro-batch splitting across executors and gradient-accumulation cycles
  // both average: the applied gradient is the mean over the whole effective
  // batch.
  const float grad_scale =
      1.0f / static_cast<float>(
                 execs * static_cast<std::int64_t>(
                             std::max<std::size_t>(cfg_.grad_accumulation, 1)));
  const bool profiling = !window_frozen_;
  // The f32 view every executor binds the current block to: the slot itself
  // for f32 windows, the decoded staging buffer for bf16. Executor 0 sets it
  // before the bind barrier.
  float* compute_params = nullptr;

  auto executor_fn = [&](std::size_t e) {
    // Activation tensors this executor allocates are soft-charged to the
    // arena's "activations" region — accounting only, numerics untouched.
    mem::ScopedTensorCharge charge(gpu_pool_, mem::DeviceArena::kActivations);
    nn::GptModel& mdl = e == 0 ? model_ : *replicas_[e - 1];
    // Per-executor batch context: the row offset keys the deterministic
    // dropout masks so the micro-batch split draws the same masks the whole
    // batch would.
    const nn::BatchShape micro_shape{
        micro_bs, seq, /*training=*/true, global_step,
        /*row_offset=*/static_cast<std::int64_t>(e) * micro_bs};
    float* scratch = exec_grads_[e].data();
    const std::size_t row0 = static_cast<std::size_t>(
        static_cast<std::int64_t>(e) * micro_bs * seq);
    const std::size_t micro_tokens = static_cast<std::size_t>(micro_bs * seq);
    std::vector<std::int32_t> ids(batch.ids.begin() + row0,
                                  batch.ids.begin() + row0 + micro_tokens);
    std::vector<std::int32_t> targets(
        batch.targets.begin() + row0,
        batch.targets.begin() + row0 + micro_tokens);

    // ---- Forward ----
    LayerState& emb = store_.state(0);
    auto& emb_layer = static_cast<nn::Embedding&>(mdl.layer(0));
    std::fill_n(scratch, static_cast<std::size_t>(emb.params), 0.0f);
    emb_layer.bind(pinned_emb_, scratch);
    emb_layer.set_ids(ids);
    tensor::Tensor x = emb_layer.forward({}, micro_shape);
    bar.arrive_and_wait();

    for (std::size_t b = 1; b <= blocks; ++b) {
      LayerState& st = block(b);
      if (e == 0) {
        wait_ready(st);
        compute_params = bind_params_f32(st);
        if (b + window_ <= blocks) prefetch(b + window_);
      }
      bar.arrive_and_wait();
      std::fill_n(scratch, static_cast<std::size_t>(st.params), 0.0f);
      mdl.layer(b).bind(compute_params, scratch);
      const double t0 = wall_seconds();
      x = mdl.layer(b).forward(x, micro_shape);
      if (e == 0 && profiling) {
        profiles_[b - 1].t_fp += wall_seconds() - t0;
      }
      if (e == 0) obs::span("gpu", "f", t0, wall_seconds());
      bar.arrive_and_wait();
      // Per-executor FP grads are unused; nothing to reduce here. Eviction:
      // recycle the computed layer when a future layer still needs a slot;
      // the tail of the model stays resident so BP starts with a full window.
      if (e == 0 && b + window_ <= blocks) {
        evict_after_forward(st);
      }
      // The block's checkpointed input is now quiescent until its backward:
      // eligible to spill to the NVMe tier under arena pressure.
      if (e == 0 && act_spill_enabled_) mark_act_spillable(b);
      bar.arrive_and_wait();
    }

    LayerState& head = store_.state(head_index());
    auto& head_layer = mdl.layer(head_index());
    std::fill_n(scratch, static_cast<std::size_t>(head.params), 0.0f);
    head_layer.bind(pinned_head_, scratch);
    tensor::Tensor logits = head_layer.forward(x, micro_shape);

    tensor::Tensor grad_logits;
    losses[e] = nn::lm_loss(logits, targets, grad_logits);
    tensor::scale(grad_scale, grad_logits.data(), grad_logits.numel());

    // ---- Backward: head ----
    tensor::Tensor g = head_layer.backward(grad_logits, micro_shape);
    bar.arrive_and_wait();
    if (e == 0) {
      reduce_grads_into(head, pinned_head_ + head.params);
      apply_pinned_update(head, pinned_head_);
    }
    bar.arrive_and_wait();

    // ---- Backward: blocks in reverse ----
    for (std::size_t b = blocks; b >= 1; --b) {
      LayerState& st = block(b);
      if (e == 0) {
        wait_ready(st);
        compute_params = bind_params_f32(st);
        if (b > window_) prefetch(b - window_);
        // NVMe optimizer tier: issue the tier read of this layer's moments
        // now, so it overlaps the backward compute below and the update task
        // finds them staged. Skipped under the clip gate — a lease held
        // across the gate could starve the staging ring.
        if (accum_final_ && !clipping()) opts_.prefetch_moments(st);
        // Page this block's spilled activation checkpoint back before its
        // backward re-runs the forward from it.
        if (act_spill_enabled_) restore_spilled_activation(b);
      }
      bar.arrive_and_wait();
      const auto params = static_cast<std::size_t>(st.params);
      std::fill_n(scratch, params, 0.0f);
      mdl.layer(b).bind(compute_params, scratch);
      const double t0 = wall_seconds();
      g = mdl.layer(b).backward(g, micro_shape);
      if (e == 0 && profiling) {
        profiles_[b - 1].t_bp += wall_seconds() - t0;
      }
      if (e == 0) obs::span("gpu", "b", t0, wall_seconds());
      bar.arrive_and_wait();
      if (e == 0) {
        // Gradient all-reduce across executors into the GPU buffer
        // (Section IV-A), then offload + update, or in-place update for the
        // layers that stay resident for the next iteration (III-E1). Under a
        // BF16 window the reduce happens in FP32 on the staging buffer and
        // the sum is rounded once onto the wire — this encode is THE
        // precision-loss event of the gradient path.
        if (bf16_window()) {
          float* gsum = stage_.data() + max_block_params_;
          reduce_grads_into(st, gsum);
          encode_bf16(st, gsum, slot_b16(st) + params, params,
                      2 * static_cast<std::uint64_t>(global_step) + 1);
        } else {
          reduce_grads_into(st, slot_f32(st) + params);
        }
        if (b > window_) {
          evict_after_backward(st);
        } else {
          update_resident_layer(st);
        }
      }
      bar.arrive_and_wait();
    }

    // ---- Backward: embedding ----
    std::fill_n(scratch, static_cast<std::size_t>(emb.params), 0.0f);
    emb_layer.bind(pinned_emb_, scratch);
    emb_layer.set_ids(ids);
    (void)emb_layer.backward(g, micro_shape);
    bar.arrive_and_wait();
    if (e == 0) {
      reduce_grads_into(emb, pinned_emb_ + emb.params);
      apply_pinned_update(emb, pinned_emb_);
    }
  };

  // A failing executor aborts the step's barrier, so its peers leave their
  // waits with dist::Aborted instead of parking. An Aborted is rethrown only
  // when no executor failed otherwise: it then came from outside the step
  // (the grad_reducer's collectives), and the step must not count as done.
  dist::run_fail_stop(cfg_.num_executors, executor_fn, [&] { bar.abort(); });

  finalize_clipped_updates();

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.iterations;
  }
  if (profiling) ++profile_samples_;
  maybe_update_window();

  float loss = 0.0f;
  for (float l : losses) loss += l;
  return loss / static_cast<float>(cfg_.num_executors);
}

void StrongholdEngine::maybe_update_window() {
  if (window_frozen_ || profile_samples_ < cfg_.warmup_iterations) return;
  // Quiesce in-flight work so the profiles are complete, then solve.
  drain();

  WindowModelInput input;
  input.layers = profiles_;
  const double inv = 1.0 / static_cast<double>(profile_samples_);
  for (auto& p : input.layers) {
    p.t_fp *= inv;
    p.t_bp *= inv;
    p.t_opt_cpu = p.t_opt_gpu = 0.0;  // evaluated by the simulator benches
  }
  const std::size_t pinned_bytes =
      2 * sizeof(float) *
      static_cast<std::size_t>(store_.state(0).params +
                               store_.state(head_index()).params);
  input.s_avail =
      static_cast<double>(gpu_pool_.capacity() - pinned_bytes);

  const WindowDecision d = solve_window(input);
  // The solver bounds d.m by its own memory model (max_m_by_memory), which
  // was fed the true pool capacity minus the pinned layers.
  const std::size_t new_window = std::clamp<std::size_t>(d.m, 1, num_blocks());
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.decision = d;
    stats_.window_auto_selected = true;
  }
  if (new_window > window_) {
    // The slots already reserved count towards what fits.
    const std::size_t slots = std::max(
        slots_for(new_window,
                  slots_reserved_ + gpu_pool_.free_bytes() / slot_bytes_),
        slots_reserved_);
    pool_->ensure_window(slot_bytes_, slots);
    slots_reserved_ = slots;
  }
  window_ = new_window;
  window_frozen_ = true;
}

void StrongholdEngine::stream_layers(const LayerVisitor& visit) {
  const std::size_t blocks = num_blocks();
  mem::ScopedTensorCharge charge(gpu_pool_, mem::DeviceArena::kActivations);
  normalize_residency();
  std::vector<float> scratch(
      static_cast<std::size_t>(store_.max_layer_params()), 0.0f);

  model_.layer(0).bind(pinned_emb_, scratch.data());
  visit(0, model_.layer(0));

  for (std::size_t b = 1; b <= blocks; ++b) {
    LayerState& st = block(b);
    wait_ready(st);
    if (b + window_ <= blocks) prefetch(b + window_);
    model_.layer(b).bind(bind_params_f32(st), scratch.data());
    visit(b, model_.layer(b));
    if (b + window_ <= blocks) evict_after_forward(st);
  }

  model_.layer(head_index()).bind(pinned_head_, scratch.data());
  visit(head_index(), model_.layer(head_index()));
}

tensor::Tensor StrongholdEngine::inference(std::span<const std::int32_t> ids,
                                           const nn::BatchShape& shape,
                                           const ActivationObserver& observer) {
  const std::size_t blocks = num_blocks();
  tensor::Tensor x;
  stream_layers([&](std::size_t unit, nn::Layer& layer) {
    if (unit == 0) {
      auto& emb = static_cast<nn::Embedding&>(layer);
      emb.set_ids({ids.begin(), ids.end()});
      x = emb.forward({}, shape);
    } else {
      x = layer.forward(x, shape);
      if (unit <= blocks && observer) observer(unit, x);
    }
  });
  return x;
}

void StrongholdEngine::sync_pinned_masters() {
  for (std::size_t i : {std::size_t{0}, head_index()}) {
    LayerState& st = store_.state(i);
    std::memcpy(st.cpu_params.data(), slot_f32(st),
                sizeof(float) * static_cast<std::size_t>(st.params));
  }
}

StrongholdEngine::Decoder::Decoder(StrongholdEngine& engine,
                                   std::int64_t batch, std::int64_t capacity)
    : engine_(engine), batch_(batch), capacity_(capacity) {
  const auto& cfg = engine.model_.config();
  if (capacity <= 0 || capacity > cfg.max_seq) {
    throw std::invalid_argument("Decoder capacity must be in (0, max_seq]");
  }
  const std::int64_t heads = cfg.heads;
  const std::int64_t head_dim = cfg.hidden / cfg.heads;
  // Session KV caches are device-resident state: soft-charge them to the
  // arena's "kv" region for the lifetime of the decoder.
  mem::ScopedTensorCharge kv_charge(engine.gpu_pool_,
                                    mem::DeviceArena::kKv);
  caches_.resize(engine.num_blocks());
  for (auto& c : caches_) {
    c.k = tensor::Tensor::zeros({batch, heads, capacity, head_dim});
    c.v = tensor::Tensor::zeros({batch, heads, capacity, head_dim});
    c.capacity = capacity;
    c.length = 0;
  }
}

tensor::Tensor StrongholdEngine::Decoder::step(
    std::span<const std::int32_t> ids, std::int64_t n_new) {
  return engine_.decode_step(*this, ids, n_new);
}

StrongholdEngine::Decoder StrongholdEngine::make_decoder(
    std::int64_t batch, std::int64_t capacity) {
  return Decoder(*this, batch, capacity);
}

tensor::Tensor StrongholdEngine::decode_step(Decoder& decoder,
                                             std::span<const std::int32_t> ids,
                                             std::int64_t n_new) {
  if (static_cast<std::int64_t>(ids.size()) != decoder.batch_ * n_new) {
    throw std::invalid_argument("decode_step: ids size mismatch");
  }
  if (decoder.pos_ + n_new > decoder.capacity_) {
    throw std::out_of_range("decode_step: decoder capacity exceeded");
  }
  const std::size_t blocks = num_blocks();
  const nn::BatchShape shape{decoder.batch_, n_new, /*training=*/false,
                             /*step=*/0, /*row_offset=*/0,
                             /*pos_offset=*/decoder.pos_};

  tensor::Tensor x;
  stream_layers([&](std::size_t unit, nn::Layer& layer) {
    if (unit == 0) {
      auto& emb = static_cast<nn::Embedding&>(layer);
      emb.set_ids({ids.begin(), ids.end()});
      x = emb.forward({}, shape);
    } else if (unit <= blocks) {
      x = layer.forward_incremental(x, shape, decoder.caches_[unit - 1]);
    } else {
      x = layer.forward(x, shape);
    }
  });
  decoder.pos_ += n_new;
  return x;
}

std::vector<std::int32_t> StrongholdEngine::generate_incremental(
    std::span<const std::int32_t> prompt, std::size_t new_tokens) {
  if (prompt.empty()) {
    throw std::invalid_argument("generate_incremental: prompt empty");
  }
  const std::int64_t capacity = model_.config().max_seq;
  if (static_cast<std::int64_t>(prompt.size() + new_tokens) > capacity) {
    throw std::invalid_argument(
        "generate_incremental: prompt + new tokens exceed max_seq");
  }
  Decoder dec = make_decoder(1, capacity);
  std::vector<std::int32_t> tokens(prompt.begin(), prompt.end());
  // Prefill the prompt in one pass, then decode token by token.
  auto logits = dec.step(prompt, static_cast<std::int64_t>(prompt.size()));
  const std::int64_t classes = logits.shape().dim(1);
  auto pick_last = [&](const tensor::Tensor& lg, std::int64_t rows) {
    const float* last = lg.data() + (rows - 1) * classes;
    return static_cast<std::int32_t>(std::max_element(last, last + classes) -
                                     last);
  };
  std::int32_t next = pick_last(logits, static_cast<std::int64_t>(prompt.size()));
  for (std::size_t i = 0; i < new_tokens; ++i) {
    tokens.push_back(next);
    if (i + 1 == new_tokens) break;
    const std::int32_t cur = next;
    logits = dec.step({&cur, 1}, 1);
    next = pick_last(logits, 1);
  }
  return tokens;
}

std::vector<std::int32_t> StrongholdEngine::generate(
    std::span<const std::int32_t> prompt, std::size_t new_tokens) {
  if (prompt.empty()) {
    throw std::invalid_argument("generate: prompt must not be empty");
  }
  const std::int64_t seq = model_.config().max_seq;
  std::vector<std::int32_t> tokens(prompt.begin(), prompt.end());
  for (std::size_t i = 0; i < new_tokens; ++i) {
    // Context: the last `seq` tokens, left-padded by repeating the first
    // token when the prompt is shorter than the model context.
    std::vector<std::int32_t> ctx(static_cast<std::size_t>(seq), tokens.front());
    const std::size_t have = std::min<std::size_t>(tokens.size(),
                                                   static_cast<std::size_t>(seq));
    std::copy(tokens.end() - static_cast<std::ptrdiff_t>(have), tokens.end(),
              ctx.end() - static_cast<std::ptrdiff_t>(have));
    auto logits = inference(ctx, {1, seq});
    // Greedy pick at the last position.
    const std::int64_t classes = logits.shape().dim(1);
    const float* last = logits.data() + (seq - 1) * classes;
    const auto next = static_cast<std::int32_t>(
        std::max_element(last, last + classes) - last);
    tokens.push_back(next);
  }
  return tokens;
}

void StrongholdEngine::snapshot_params(std::vector<float>& out) {
  drain();
  // Swap-backed masters are read back from the tier.
  for (std::size_t i = 0; i < store_.size(); ++i) store_.fault_in(i).wait();
  sync_pinned_masters();
  out.clear();
  for (std::size_t i = 0; i < store_.size(); ++i) {
    const LayerState& st = store_.state(i);
    out.insert(out.end(), st.cpu_params.begin(), st.cpu_params.end());
  }
}

namespace {
/// Shape guard stored in every snapshot: restoring into a different model
/// geometry is a typed error, not silent corruption. The layout is part of
/// the on-disk format. `fp16` is always 0: a snapshot with it set came from
/// a run in the retired FP16 wire mode and is rejected. Dropping the word
/// would move grad_accumulation and reject every generation written while
/// the mode existed.
struct CkptGeometry {
  std::uint64_t layers = 0;
  std::uint64_t total_params = 0;
  std::uint32_t fp16 = 0;
  std::uint32_t grad_accumulation = 1;
};
static_assert(sizeof(CkptGeometry) == 24 &&
              offsetof(CkptGeometry, grad_accumulation) == 20);
}  // namespace

ckpt::Snapshot StrongholdEngine::capture_snapshot() {
  obs::ObsScope scope("ckpt", "capture");
  // Quiesce, but deliberately do NOT fault_in from the swap tier: the CPU
  // master vectors are written by every optimizer update BEFORE the tier
  // write-back, so they are authoritative once the queues drain. Re-reading
  // the tier here would be redundant on a healthy device and actively wrong
  // on a faulted one (the last-gasp path snapshots exactly when the tier's
  // write-backs have failed — its stale regions must not clobber good RAM).
  drain();
  sync_pinned_masters();

  std::size_t iterations;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    iterations = stats_.iterations;
    ++stats_.ckpt_snapshots;
  }
  const std::size_t accum = std::max<std::size_t>(cfg_.grad_accumulation, 1);
  // Between optimizer updates the CPU-side gradient accumulators are live
  // state: without them a resumed cycle would restart from zero.
  const bool mid_cycle = iterations % accum != 0;

  ckpt::Snapshot snap;
  snap.step = iterations;
  CkptGeometry geom;
  geom.layers = store_.size();
  geom.grad_accumulation = static_cast<std::uint32_t>(accum);
  std::vector<std::int64_t> steps(store_.size());
  for (std::size_t i = 0; i < store_.size(); ++i) {
    const LayerState& st = store_.state(i);
    const std::string prefix = "L" + std::to_string(i);
    snap.tensors.push_back({prefix + ".params", st.cpu_params});
    // NVMe-tiered layers have no host moment plane; moments_copy reads the
    // tier's moment region (the only place they live). The snapshot format
    // is unchanged — SH_OPT_TIER does not change what a checkpoint contains.
    snap.tensors.push_back({prefix + ".opt", store_.moments_copy(i)});
    if (mid_cycle) snap.tensors.push_back({prefix + ".grads", st.cpu_grads});
    steps[i] = st.step;
    geom.total_params += static_cast<std::uint64_t>(st.params);
  }
  snap.blobs.put_bytes("engine.layer_steps", steps.data(),
                       steps.size() * sizeof(std::int64_t));
  snap.blobs.put("engine.geometry", geom);
  snap.blobs.put("engine.iterations", static_cast<std::uint64_t>(iterations));
  if (cfg_.ckpt_extra_save) cfg_.ckpt_extra_save(snap.blobs);
  return snap;
}

void StrongholdEngine::restore_snapshot(const ckpt::Snapshot& snap) {
  obs::ObsScope scope("ckpt", "restore_install");
  // Drain only: every master is overwritten below, and a fresh engine's
  // tier holds no region to read a master back from.
  drain();

  const auto geom = snap.blobs.get<CkptGeometry>("engine.geometry");
  const std::size_t accum = std::max<std::size_t>(cfg_.grad_accumulation, 1);
  CkptGeometry want;
  want.layers = store_.size();
  want.grad_accumulation = static_cast<std::uint32_t>(accum);
  for (std::size_t i = 0; i < store_.size(); ++i) {
    want.total_params +=
        static_cast<std::uint64_t>(store_.state(i).params);
  }
  if (geom.layers != want.layers || geom.total_params != want.total_params ||
      geom.fp16 != want.fp16 ||
      geom.grad_accumulation != want.grad_accumulation) {
    throw ckpt::RestoreError(
        ckpt::RestoreErrorKind::GeometryMismatch,
        "ckpt: snapshot geometry (" + std::to_string(geom.layers) +
            " layers, " + std::to_string(geom.total_params) +
            " params, fp16=" + std::to_string(geom.fp16) + ", accum=" +
            std::to_string(geom.grad_accumulation) + ") does not match engine",
        snap.step);
  }

  std::unordered_map<std::string, const ckpt::TensorEntry*> by_name;
  for (const auto& t : snap.tensors) by_name.emplace(t.name, &t);
  auto tensor_for = [&](const std::string& name,
                        std::size_t count) -> const std::vector<float>& {
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      throw ckpt::RestoreError(ckpt::RestoreErrorKind::MissingData,
                               "ckpt: tensor '" + name +
                                   "' missing from snapshot",
                               snap.step);
    }
    if (it->second->data.size() != count) {
      throw ckpt::RestoreError(
          ckpt::RestoreErrorKind::GeometryMismatch,
          "ckpt: tensor '" + name + "' has " +
              std::to_string(it->second->data.size()) + " floats, expected " +
              std::to_string(count),
          snap.step);
    }
    return it->second->data;
  };

  std::vector<std::int64_t> steps(store_.size());
  {
    const auto it = snap.blobs.entries.find("engine.layer_steps");
    if (it == snap.blobs.entries.end() ||
        it->second.size() != steps.size() * sizeof(std::int64_t)) {
      throw ckpt::RestoreError(ckpt::RestoreErrorKind::MissingData,
                               "ckpt: engine.layer_steps blob missing/mis-"
                               "sized",
                               snap.step);
    }
    std::memcpy(steps.data(), it->second.data(), it->second.size());
  }

  // Validation passed for every layer below (tensor_for re-checks sizes
  // before any copy lands), so the install cannot leave the store half-new.
  const bool mid_cycle = snap.step % accum != 0;
  for (std::size_t i = 0; i < store_.size(); ++i) {
    const std::string prefix = "L" + std::to_string(i);
    const auto params = static_cast<std::size_t>(store_.state(i).params);
    (void)tensor_for(prefix + ".params", params);
    (void)tensor_for(prefix + ".opt", store_.opt_floats(i));
    if (mid_cycle) (void)tensor_for(prefix + ".grads", params);
  }
  for (std::size_t i = 0; i < store_.size(); ++i) {
    LayerState& st = store_.state(i);
    const std::string prefix = "L" + std::to_string(i);
    const auto params = static_cast<std::size_t>(st.params);
    const auto& p = tensor_for(prefix + ".params", params);
    std::copy(p.begin(), p.end(), st.cpu_params.begin());
    const auto& o = tensor_for(prefix + ".opt", store_.opt_floats(i));
    store_.install_moments(i, o);
    if (mid_cycle) {
      const auto& g = tensor_for(prefix + ".grads", params);
      std::copy(g.begin(), g.end(), st.cpu_grads.begin());
    }
    st.step = steps[i];
  }

  // Snapshots written while the FP16 wire mode existed also carry
  // engine.scaler and engine.overflow blobs; they are ignored.
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.iterations = static_cast<std::size_t>(
        snap.blobs.get<std::uint64_t>("engine.iterations"));
  }

  // Refresh every GPU-resident copy (and the swap tier) from the restored
  // masters, with the bf16 encoding a fresh fetch of them would carry.
  for (std::size_t i = 0; i < store_.size(); ++i) {
    LayerState& st = store_.state(i);
    if (st.gpu_slot == nullptr) continue;
    fill_slot(st, st.gpu_slot);
    if (st.swap_backed) store_.write_back(i);
  }
  if (swap_ != nullptr) {
    for (std::size_t i = 0; i < store_.size(); ++i) {
      LayerState& st = store_.state(i);
      if (st.swap_backed && st.gpu_slot == nullptr) store_.write_back(i);
    }
  }

  if (cfg_.ckpt_extra_load) cfg_.ckpt_extra_load(snap.blobs);
}

bool StrongholdEngine::resume_from_latest() {
  if (!ckpt_) return false;
  try {
    restore_snapshot(ckpt_->restore_latest());
    return true;
  } catch (const ckpt::RestoreError& e) {
    if (e.kind() == ckpt::RestoreErrorKind::NoValidGeneration) return false;
    throw;  // a generation exists but does not fit this engine — real error
  }
}

void StrongholdEngine::checkpoint_now() {
  if (!ckpt_) {
    throw std::logic_error(
        "checkpoint_now: checkpointing disabled (EngineConfig::ckpt.dir "
        "empty)");
  }
  ckpt_->save_now(capture_snapshot());
}

void StrongholdEngine::maybe_periodic_checkpoint() {
  if (!ckpt_ || cfg_.ckpt.every_n_steps == 0) return;
  std::size_t iterations;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    iterations = stats_.iterations;
  }
  if (iterations % cfg_.ckpt.every_n_steps != 0) return;
  // Capture stalls briefly (quiesce + staging copies); the write and the
  // rename-commit then overlap with the following steps' compute.
  ckpt_->save_async(capture_snapshot());
}

void StrongholdEngine::last_gasp_checkpoint(bool consistent) {
  if (!ckpt_) return;
  if (consistent) {
    try {
      ckpt_->save_now(capture_snapshot());
    } catch (...) {
      // The original IoError is what the trainer must see; a failed
      // last-gasp leaves the previous committed generation intact.
    }
  } else {
    // Only finish committing the staged snapshot already in flight (it was
    // captured at a consistent boundary). The checkpoint tier is a separate
    // SwapFile, so a dead training tier does not block this.
    ckpt_->finish();
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.ckpt_last_gasp;
}

EngineStats StrongholdEngine::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  EngineStats s = stats_;
  s.window = window_;
  // Transfers are counted once, on the links; updates live, on the pool.
  s.h2d_transfers = h2d_.completed_transfers();
  s.h2d_bytes = h2d_.bytes_transferred();
  s.d2h_transfers = d2h_.completed_transfers();
  s.d2h_bytes = d2h_.bytes_transferred();
  s.optimizer_updates = opts_.updates_completed();
  s.gpu_high_water_bytes = gpu_pool_.peak_bytes();
  s.arena = gpu_pool_.stats();
  if (swap_) {
    s.swap_faults_injected = swap_->fault_plan().counters().faults_total;
    s.swap_retries = swap_->retries_attempted();
    s.swap_io_errors = swap_->io_errors();
    s.swap_retry_backoff_s = swap_->retry_backoff_seconds();
  }
  s.opt_tiered_layers = store_.opt_tiered_count();
  s.moment_prefetches = opts_.moment_prefetches();
  s.moment_demand_reads = opts_.moment_demand_reads();
  s.moment_update_skips = opts_.moment_update_skips();
  s.moment_writes = opts_.moment_writes();
  return s;
}

void StrongholdEngine::export_metrics(obs::MetricsSnapshot& out) const {
  const EngineStats s = stats();
  const auto n = [](std::size_t v) { return static_cast<double>(v); };
  out.add("engine.window", n(s.window), "layers");
  out.add("engine.iterations", n(s.iterations));
  out.add("engine.prefetch_stalls", n(s.prefetch_stalls));
  out.add("engine.stall_seconds", s.stall_seconds, "s");
  out.add("engine.deferred_prefetches", n(s.deferred_prefetches));
  out.add("engine.demand_fetches", n(s.demand_fetches));
  out.add("engine.h2d_transfers", n(s.h2d_transfers));
  out.add("engine.h2d_bytes", n(s.h2d_bytes), "bytes");
  out.add("engine.h2d_bytes_per_step",
          n(s.h2d_bytes) / n(std::max<std::size_t>(s.iterations, 1)),
          "bytes");
  out.add("engine.h2d_queue_depth", n(h2d_.queue_depth()));
  out.add("engine.d2h_transfers", n(s.d2h_transfers));
  out.add("engine.d2h_bytes", n(s.d2h_bytes), "bytes");
  out.add("engine.d2h_bytes_per_step",
          n(s.d2h_bytes) / n(std::max<std::size_t>(s.iterations, 1)),
          "bytes");
  out.add("engine.d2h_queue_depth", n(d2h_.queue_depth()));
  out.add("engine.window_elem_bytes", n(elem_bytes_), "bytes");
  out.add("engine.swap_backed_layers", n(s.swap_backed_layers), "layers");
  out.add("engine.ckpt_snapshots", n(s.ckpt_snapshots));
  out.add("engine.ckpt_last_gasp", n(s.ckpt_last_gasp));
  out.add("optimizer.updates", n(s.optimizer_updates));
  out.add("optimizer.in_flight", n(opts_.in_flight()));
  out.add("optimizer.workers", n(opts_.workers()));
  out.add("optimizer.tier_layers", n(s.opt_tiered_layers), "layers");
  out.add("optimizer.tier_prefetches", n(s.moment_prefetches));
  out.add("optimizer.tier_demand_reads", n(s.moment_demand_reads));
  out.add("optimizer.tier_update_skips", n(s.moment_update_skips));
  out.add("optimizer.tier_writes", n(s.moment_writes));
  out.add("engine.act_spills", n(s.act_spills));
  out.add("engine.act_restores", n(s.act_restores));
  out.add("arena.capacity_bytes", n(s.arena.capacity), "bytes");
  out.add("arena.bytes_in_use", n(s.arena.bytes_in_use), "bytes");
  out.add("arena.peak_bytes", n(s.arena.peak_bytes), "bytes");
  out.add("arena.pressure_events", n(s.arena.pressure_events));
  out.add("arena.pressure_releases", n(s.arena.pressure_releases));
  out.add("arena.pressure_stalls", n(s.arena.pressure_stalls));
  for (const auto& [region, rs] : s.arena.regions) {
    out.add("arena." + region + ".bytes_in_use", n(rs.bytes_in_use), "bytes");
    out.add("arena." + region + ".peak_bytes", n(rs.peak_bytes), "bytes");
    out.add("arena." + region + ".pressure_events", n(rs.pressure_events));
  }
}

}  // namespace sh::core
