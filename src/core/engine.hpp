// StrongholdEngine — the dynamic CPU<->GPU offloading runtime (Section III).
//
// The engine trains a GptModel while keeping only a working window of m
// layers resident in a capacity-enforced "GPU" memory pool:
//
//  * FP (Fig. 3b): before computing layer i the engine prefetches layer i+m
//    asynchronously; after computing, layer i's buffer is recycled (layers at
//    the tail stay resident so BP starts with a full window).
//  * BP (Fig. 3c): before computing layer i it prefetches layer i-m; after
//    computing, gradients are copied to the CPU asynchronously and a
//    concurrent optimizer actor updates the layer's master parameters. The
//    last m layers of BP (the first m of the model) remain on the GPU and are
//    updated in place, so the next FP starts without a stall (III-E1).
//  * The window size is chosen by the analytical model (Section III-D) from
//    warm-up-phase profiles, or fixed by the user.
//  * With multiple executors (Section IV-A), the batch is split into
//    micro-batches processed by concurrent streams sharing ONE copy of the
//    parameters; gradients are all-reduced before the update.
//  * With a CPU capacity limit and a swap file (Section III-G), cold layers
//    live on secondary storage and are faulted in ahead of prefetch.
//
// Numerical contract: training through this engine is bit-identical to
// monolithic training of the same model/seed (single executor), verified by
// the equivalence tests. Asynchrony never introduces stale updates.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "ckpt/checkpointer.hpp"
#include "core/layer_store.hpp"
#include "core/slot_allocator.hpp"
#include "core/optimizer_pool.hpp"
#include "core/window_model.hpp"
#include "data/synthetic.hpp"
#include "hw/transfer.hpp"
#include "mem/device_arena.hpp"
#include "nn/gpt.hpp"
#include "obs/metrics.hpp"
#include "optim/optimizer.hpp"
#include "optim/schedule.hpp"
#include "storage/swap_file.hpp"
#include "tensor/dtype.hpp"

namespace sh::core {

/// Where the Adam moments (m/v) live between updates.
enum class OptimizerTier {
  /// Host RAM, alongside the FP32 masters (paper default).
  cpu,
  /// NVMe-resident (ZeRO-Infinity-style): moments page through the swap
  /// tier's I/O worker, prefetched one layer ahead of the update.
  nvme,
};

enum class WindowMode {
  /// m+1 reserved uniform slots, round-robin recycled (paper default).
  UniformSlots,
  /// One fixed-size buffer; the resident layer count varies with layer
  /// sizes — for heterogeneous stacks such as MoE models (Section III-D).
  ByteBudget,
};

struct EngineConfig {
  /// Working-window size in layers; 0 selects it automatically with the
  /// analytical model after the warm-up iterations.
  std::size_t window = 0;
  WindowMode window_mode = WindowMode::UniformSlots;
  /// ByteBudget mode: size of the fixed window buffer in elements (priced
  /// into bytes under window_dtype; 0 derives it from the uniform-slot
  /// requirement).
  std::size_t window_budget_floats = 0;
  std::size_t warmup_iterations = 2;
  std::size_t optimizer_workers = 2;
  /// Capacity of the simulated GPU memory pool (model-state budget).
  std::size_t gpu_memory_bytes = std::size_t{1} << 40;
  /// Transfer throttles in bytes/s (0 = unthrottled memcpy speed).
  double h2d_bytes_per_s = 0.0;
  double d2h_bytes_per_s = 0.0;
  /// Concurrent training executors (intra-GPU data parallelism, Section IV-A).
  std::size_t num_executors = 1;
  optim::AdamConfig adam{};
  /// Per-step learning rate (empty = adam.lr throughout). Evaluated once per
  /// iteration; asynchronous actors apply the rate that was current at
  /// submission, so schedules never race with overlapped updates.
  optim::LrSchedule lr_schedule{};
  /// Global gradient-norm clipping threshold (0 = off). Clipping needs the
  /// norm over ALL layers, so parameter updates defer until the backward
  /// pass drains — a documented cost of clipping under offloading.
  float clip_grad_norm = 0.0f;
  /// Gradient accumulation: every call to train_step processes one
  /// micro-batch; gradients accumulate in the CPU masters and the optimizer
  /// applies them every `grad_accumulation`-th call. Equivalent to training
  /// with a grad_accumulation-times larger batch.
  std::size_t grad_accumulation = 1;
  /// Element encoding of the GPU working window (block slots and their
  /// CPU<->GPU transfers). With bf16, slots genuinely store 2-byte elements:
  /// fault-in encodes the FP32 master to bf16, compute runs FP32 on a
  /// decoded staging view, gradients round through bf16 on the wire, and
  /// the CPU optimizer updates FP32 masters — which stay the only persisted
  /// truth (checkpoints/swap are dtype-blind). Halves window bytes and PCIe
  /// traffic; bf16 keeps the f32 exponent range so no loss scaling is
  /// needed. The SH_WINDOW_DTYPE environment variable ("f32"/"bf16")
  /// overrides this at engine construction.
  tensor::DType window_dtype = tensor::DType::f32;
  /// How f32 -> bf16 encodes round: nearest-even (default) or stochastic
  /// (unbiased). Stochastic streams are keyed on state every engine agrees
  /// on: a layer's parameters on (rounding_seed, layer, 2 * optimizer step),
  /// its gradients on (rounding_seed, layer, 2 * iteration + 1), so resumed
  /// runs and rejoined DP ranks round bit-identically. Overridden by
  /// SH_WINDOW_ROUNDING ("nearest_even"/"stochastic") at construction.
  tensor::Rounding window_rounding = tensor::Rounding::nearest_even;
  /// Seed for the stochastic-rounding streams.
  std::uint64_t rounding_seed = 0x57484F4C44ull;
  /// CPU RAM budget for master state; 0 = unlimited. When exceeded, layers
  /// are backed by the swap file at `swap_path` (Section III-G).
  std::size_t cpu_capacity_bytes = 0;
  std::string swap_path{};
  /// Third memory tier for optimizer state (ZeRO-Infinity-style). With
  /// `nvme`, every non-pinned layer's Adam moments live in a dedicated
  /// region set of the swap file at `swap_path` (required) instead of host
  /// RAM: the optimizer pool prefetches layer i+1's moments while updating
  /// layer i, update tasks stage them through a small buffer ring, and
  /// write-backs ride the same retrying I/O worker as the window tier. FP32
  /// masters remain the only persisted truth — checkpoint files and the
  /// snapshot format are unchanged. Activation checkpoints additionally
  /// spill to the same tier under device-arena pressure (single-executor
  /// training). Overridden by SH_OPT_TIER ("cpu"/"nvme") at construction.
  OptimizerTier optimizer_tier = OptimizerTier::cpu;
  /// Fault injection + bounded-retry policy for the swap tier (default:
  /// healthy). SH_FAULT_* environment variables override these fields at
  /// engine construction (storage::fault_config_from_env). Transient faults
  /// stall the working window and recover bit-identically; an exhausted
  /// retry budget surfaces from train_step as a typed storage::IoError the
  /// trainer can checkpoint on.
  storage::FaultConfig swap_faults{};
  /// Optional gradient hook invoked once per layer after the (executor-
  /// reduced) gradients land in the GPU buffer and before they are offloaded
  /// or applied. Data-parallel training installs an all-reduce here
  /// (Sections III-E2, VI-D2). Called on the controlling executor's thread.
  std::function<void(std::size_t layer_index, float* grads, std::int64_t n)>
      grad_reducer{};
  /// Crash-consistent checkpointing (sh::ckpt). An empty `ckpt.dir` disables
  /// it; SH_CKPT_* environment variables override at construction. With
  /// `ckpt.every_n_steps` set, the engine captures a snapshot at that cadence
  /// and commits it asynchronously, overlapped with the next steps' compute;
  /// a storage::IoError escaping train_step additionally triggers a last-gasp
  /// save so the fault costs at most the uncommitted steps.
  ckpt::Config ckpt{};
  /// Applies the SH_CKPT_* environment overrides to `ckpt` at construction.
  /// DataParallelTrainer resolves the overrides once itself and disables
  /// this: the trainer is the single checkpoint writer, and a rank engine
  /// opening SH_CKPT_DIR behind its back would race the rename-commit
  /// protocol (concurrent writers share gen-<step> temp names and each
  /// commit's GC sweeps the other's in-flight files).
  bool ckpt_env_overrides = true;
  /// Checkpoint extension hooks: extra_save adds caller-owned state (data
  /// cursor, trainer bookkeeping) to every snapshot's blobs; extra_load reads
  /// it back during restore_snapshot. Both run on the capturing/restoring
  /// thread with the engine quiesced.
  std::function<void(ckpt::Blobs&)> ckpt_extra_save{};
  std::function<void(const ckpt::Blobs&)> ckpt_extra_load{};
};

struct EngineStats {
  std::size_t window = 0;
  bool window_auto_selected = false;
  WindowDecision decision{};
  std::size_t iterations = 0;
  std::size_t prefetch_stalls = 0;  // compute waited on an unfinished fetch
  std::size_t deferred_prefetches = 0;  // byte-budget: no space at hook time
  std::size_t demand_fetches = 0;       // layer fetched on demand instead
  double stall_seconds = 0.0;
  std::size_t h2d_transfers = 0;
  std::size_t d2h_transfers = 0;
  std::size_t h2d_bytes = 0;
  std::size_t d2h_bytes = 0;
  std::size_t optimizer_updates = 0;
  std::size_t swap_backed_layers = 0;
  // Optimizer-tier (SH_OPT_TIER=nvme) counters.
  std::size_t opt_tiered_layers = 0;    // layers with NVMe-resident moments
  std::size_t moment_prefetches = 0;    // overlapped moment reads issued
  std::size_t moment_demand_reads = 0;  // reads issued inside the update task
  std::size_t moment_update_skips = 0;  // updates dropped on tier exhaustion
  std::size_t moment_writes = 0;        // moment write-backs issued
  std::size_t act_spills = 0;           // activation ckpts spilled to tier
  std::size_t act_restores = 0;         // spilled ckpts paged back for BP
  // Swap-tier fault/recovery counters (all zero with a healthy tier).
  std::size_t swap_faults_injected = 0;
  std::size_t swap_retries = 0;
  std::size_t swap_io_errors = 0;  // ops that exhausted the retry budget
  double swap_retry_backoff_s = 0.0;
  /// Peak device bytes (== device_arena().peak_bytes(); name kept for
  /// compatibility). Includes soft-charged activation/KV bytes, so it may
  /// exceed gpu_memory_bytes when a pass overcommits gracefully.
  std::size_t gpu_high_water_bytes = 0;
  std::size_t ckpt_snapshots = 0;   // training-state captures taken
  std::size_t ckpt_last_gasp = 0;   // checkpoints triggered by a tier fault
  /// Full per-region accounting of the device arena (window / kv /
  /// activations / workspace, pressure counters).
  mem::ArenaStats arena{};
};

class StrongholdEngine {
 public:
  /// The engine takes a non-owning reference to `model`; the model must
  /// outlive the engine. Parameter storage is owned by the engine.
  StrongholdEngine(nn::GptModel& model, EngineConfig config);
  ~StrongholdEngine();

  StrongholdEngine(const StrongholdEngine&) = delete;
  StrongholdEngine& operator=(const StrongholdEngine&) = delete;

  /// Initialises parameters (deterministic in `seed`).
  void init_params(std::uint64_t seed);

  /// Runs one training iteration; returns the mean LM loss.
  float train_step(const data::Batch& batch);

  /// FP-only pass producing logits (knowledge-distillation support,
  /// Section VI-D3). `observer`, when set, receives each block's output.
  using ActivationObserver =
      std::function<void(std::size_t layer, const tensor::Tensor&)>;
  tensor::Tensor inference(std::span<const std::int32_t> ids,
                           const nn::BatchShape& shape,
                           const ActivationObserver& observer = {});

  /// Layer-streaming FP hook (Section VI-D3 serving): streams every model
  /// unit's parameters through the working window exactly once — pinned
  /// embedding, blocks prefetched/evicted FP-style, pinned head — and
  /// invokes `visit(unit, layer)` while each unit is bound to resident
  /// memory. The callback may run the unit any number of times before it is
  /// evicted, which is what lets a serving batch amortize one weight
  /// transfer across many resident sequences (sh::serve builds on this).
  /// Unit 0 is the embedding, units 1..num_blocks the transformer blocks,
  /// and the last unit the LM head.
  using LayerVisitor = std::function<void(std::size_t unit, nn::Layer& layer)>;
  void stream_layers(const LayerVisitor& visit);

  /// Greedy autoregressive generation: extends `prompt` by `new_tokens`
  /// tokens using repeated FP-only passes through the working window. The
  /// context is the last max_seq tokens.
  std::vector<std::int32_t> generate(std::span<const std::int32_t> prompt,
                                     std::size_t new_tokens);

  /// Incremental decoding session: per-layer KV caches stay on the "GPU"
  /// while layer parameters stream through the working window, so each step
  /// costs O(new tokens) attention instead of a full-context recompute.
  class Decoder {
   public:
    /// Feeds `n_new` tokens per batch row (ids is [batch * n_new]) and
    /// returns logits [batch * n_new, vocab].
    tensor::Tensor step(std::span<const std::int32_t> ids,
                        std::int64_t n_new);
    std::int64_t position() const noexcept { return pos_; }
    std::int64_t batch() const noexcept { return batch_; }

   private:
    friend class StrongholdEngine;
    Decoder(StrongholdEngine& engine, std::int64_t batch,
            std::int64_t capacity);
    StrongholdEngine& engine_;
    std::int64_t batch_;
    std::int64_t capacity_;
    std::int64_t pos_ = 0;
    std::vector<nn::KvCache> caches_;  // one per block
  };

  /// Creates a decoding session. `capacity` (<= max_seq) bounds the context.
  Decoder make_decoder(std::int64_t batch, std::int64_t capacity);

  /// Greedy generation through a Decoder (KV cache; no recompute).
  std::vector<std::int32_t> generate_incremental(
      std::span<const std::int32_t> prompt, std::size_t new_tokens);

  /// Copies every layer's authoritative parameters into `out` (layer order,
  /// concatenated) — used by the equivalence tests. Synchronises pending
  /// updates first.
  void snapshot_params(std::vector<float>& out);

  /// Captures the complete training state as a CPU-side ckpt::Snapshot:
  /// FP32 master params + Adam moments for every layer (read from the CPU
  /// side of the window — no device drain), per-layer optimizer steps, the
  /// iteration counter (which also encodes the accumulation-cycle position),
  /// mid-cycle gradient accumulators when between optimizer updates, and
  /// anything the ckpt_extra_save hook adds. Resuming from it continues the
  /// run bit-identically. Quiesces in-flight work.
  ckpt::Snapshot capture_snapshot();

  /// Installs a snapshot produced by capture_snapshot (possibly by another
  /// engine with the same model geometry — elastic data parallelism restores
  /// one manifest into every rank). Refreshes GPU-resident copies and the
  /// swap tier. Throws ckpt::RestoreError{GeometryMismatch/MissingData} when
  /// the snapshot does not fit this engine.
  void restore_snapshot(const ckpt::Snapshot& snap);

  /// Restores the newest valid generation from the configured checkpoint
  /// directory. Returns false when no committed generation exists; throws
  /// ckpt::RestoreError for snapshots that exist but cannot be installed.
  bool resume_from_latest();

  /// Synchronous capture + commit through the configured Checkpointer.
  /// Throws std::logic_error when checkpointing is disabled.
  void checkpoint_now();

  /// The engine's Checkpointer (nullptr when `ckpt.dir` is empty).
  ckpt::Checkpointer* checkpointer() noexcept { return ckpt_.get(); }

  EngineStats stats() const;

  /// Appends this engine's metric rows ("engine.*", "arena.*",
  /// "optimizer.*") to `out` — the provider the engine registers with
  /// obs::Registry::global() at construction, callable directly in tests.
  void export_metrics(obs::MetricsSnapshot& out) const;

  std::size_t window() const noexcept { return window_; }
  const nn::GptModel& model() const noexcept { return model_; }

  /// The accounted device-memory arena every GPU-resident byte of this
  /// engine is charged to. Co-located subsystems (sh::serve) draw their
  /// budgets from the same arena so one gpu_memory_bytes capacity governs
  /// training and serving together.
  mem::DeviceArena& device_arena() noexcept { return gpu_pool_; }
  const mem::DeviceArena& device_arena() const noexcept { return gpu_pool_; }

 private:
  std::size_t num_blocks() const noexcept { return store_.size() - 2; }
  std::size_t head_index() const noexcept { return store_.size() - 1; }
  LayerState& block(std::size_t b) { return store_.state(b); }

  void setup_pinned_layers();
  /// Waits until the optimizer pool, both links and the swap tier are idle.
  void drain();
  /// Copies the pinned embedding/head parameters (updated in place on the
  /// GPU) back into their CPU masters. Call with updates drained.
  void sync_pinned_masters();
  /// Evicts resident blocks outside the current head window and prefetches
  /// blocks 1..window — the canonical pass-start state. Handles residual
  /// residency from inference passes or window-size changes.
  void normalize_residency();
  tensor::Tensor decode_step(Decoder& decoder,
                             std::span<const std::int32_t> ids,
                             std::int64_t n_new);
  void prefetch(std::size_t index);
  /// Window slots to reserve for `window` layers when `fit` slots fit the
  /// device: the window, one fetch stage slot, and an eviction stage slot
  /// while it fits.
  std::size_t slots_for(std::size_t window, std::size_t fit) const;
  /// Binds `slot` to the layer and enqueues the asynchronous host->device
  /// copy (with optimizer/tier dependencies). The copy encodes the FP32
  /// master into the window dtype.
  void issue_fetch(LayerState& st, std::byte* slot);
  void wait_ready(LayerState& st);
  bool bf16_window() const noexcept {
    return cfg_.window_dtype == tensor::DType::bf16;
  }
  /// Bytes one layer's parameters occupy on the CPU<->GPU wire.
  std::size_t wire_param_bytes(std::int64_t params) const noexcept {
    return static_cast<std::size_t>(params) * elem_bytes_;
  }
  /// f32 view of a block slot's parameter half (f32 windows only).
  float* slot_f32(LayerState& st) noexcept {
    return reinterpret_cast<float*>(st.gpu_slot);
  }
  /// bf16 view of a block slot (bf16 windows only).
  tensor::bf16* slot_b16(LayerState& st) noexcept {
    return reinterpret_cast<tensor::bf16*>(st.gpu_slot);
  }
  /// BF16: decodes the slot's parameter half into the f32 compute staging
  /// buffer and returns it; f32: returns the slot directly.
  float* bind_params_f32(LayerState& st);
  /// Encodes `n` f32 values to bf16 at `dst`, honouring the configured
  /// rounding mode. Stochastic rounding draws the stream keyed on
  /// (rounding_seed, layer, event); see EngineConfig::window_rounding.
  void encode_bf16(const LayerState& st, const float* src, tensor::bf16* dst,
                   std::size_t n, std::uint64_t event) const;
  /// Rounding event of a layer's parameters: the master's version, so every
  /// encode of an unchanged master (fetch, in-place update, restore) yields
  /// the same bytes. Read only when no update of `st` is in flight.
  static std::uint64_t param_event(const LayerState& st) noexcept {
    return 2 * static_cast<std::uint64_t>(st.step);
  }
  /// Writes a layer's FP32 master into `slot` in the slot's dtype (bf16 for
  /// window blocks of a bf16 window, f32 otherwise) and zeroes the gradient
  /// half: a fetch, or a refresh after a checkpoint restore.
  void fill_slot(LayerState& st, std::byte* slot);
  /// Sums the executors' gradient scratch for `st` into `dst`, then hands
  /// the sum to the configured grad_reducer.
  void reduce_grads_into(const LayerState& st, float* dst);
  void evict_after_forward(LayerState& st);
  void evict_after_backward(LayerState& st);
  void update_resident_layer(LayerState& st);
  /// Update path for the pinned embedding/head (direct, or deferred when
  /// gradient clipping awaits the global norm).
  void apply_pinned_update(LayerState& st, float* buffer);
  /// Runs `update` now, or, under clipping, queues it until
  /// finalize_clipped_updates has scaled every gradient by the global norm.
  void defer_until_clipped(std::function<void()> update);
  bool clipping() const noexcept { return cfg_.clip_grad_norm > 0.0f; }
  void begin_iteration_lr_and_clip();
  void finalize_clipped_updates();
  void maybe_update_window();
  float train_step_body(const data::Batch& batch);
  void maybe_periodic_checkpoint();
  /// Fault path: commit what can be committed before the IoError propagates.
  /// `consistent` distinguishes a fault surfaced at the step boundary
  /// (masters coherent — take a fresh capture) from one mid-step (masters
  /// possibly torn — only let the in-flight staged save finish).
  void last_gasp_checkpoint(bool consistent);

  bool opt_tier_nvme() const noexcept {
    return cfg_.optimizer_tier == OptimizerTier::nvme;
  }
  // Activation-checkpoint spill — the second client of the NVMe tier.
  // Enabled for single-executor training with checkpointing blocks when the
  // optimizer tier is nvme: between forward(b) and backward(b) the block's
  // checkpointed input is eligible to spill; the arena pressure callback
  // pages out the lowest-index spillable block (the one backward needs
  // last), and the BP loop pages it back in just before backward(b).
  void mark_act_spillable(std::size_t b);
  void restore_spilled_activation(std::size_t b);
  bool spill_one_activation();

  nn::GptModel& model_;
  EngineConfig cfg_;
  std::unique_ptr<ckpt::Checkpointer> ckpt_;
  std::unique_ptr<storage::SwapFile> swap_;
  LayerStore store_;
  mem::DeviceArena gpu_pool_;
  hw::TransferEngine h2d_;
  hw::TransferEngine d2h_;
  optim::Adam adam_proto_;
  OptimizerPool opts_;
  std::unique_ptr<SlotAllocator> pool_;
  std::size_t slot_bytes_ = 0;      // 2 * max block params, priced in bytes
  std::size_t elem_bytes_ = 4;      // bytes per window element (dtype)
  std::size_t max_block_params_ = 0;
  std::size_t slots_reserved_ = 0;  // window + stage slots currently held
  /// BF16 windows: f32 compute staging — [0, max_block_params_) holds the
  /// decoded parameters of the layer being computed, [max_block_params_,
  /// 2*max_block_params_) the executor-reduced f32 gradients before they
  /// round onto the wire. Per-layer compute is barrier-serialised, so one
  /// buffer suffices; it is deliberately not charged to the window region
  /// (it models the f32 compute view).
  std::vector<float> stage_;

  // Pinned (always-resident) buffers for the first/last layer.
  float* pinned_emb_ = nullptr;   // params then grads
  float* pinned_head_ = nullptr;  // params then grads

  std::size_t window_ = 1;
  bool window_frozen_ = false;
  std::vector<LayerProfile> profiles_;
  std::size_t profile_samples_ = 0;

  // Per-iteration learning rate, accumulation and clipping machinery.
  float current_lr_ = -1.0f;
  std::size_t micro_index_ = 0;   // position within the accumulation cycle
  bool accum_first_ = true;       // first micro-step: overwrite accumulators
  bool accum_final_ = true;       // last micro-step: apply the updates
  /// Under clipping, this iteration's layer updates in backward order; no
  /// update exists before the global norm does.
  std::vector<std::function<void()>> deferred_updates_;

  // Activation-spill registry (one entry per transformer block). Keys on the
  // swap tier: kActKeyBase + block, disjoint from the layer/moment key
  // spaces.
  struct ActSpillState {
    bool spillable = false;  // block holds a checkpoint eligible to spill
    bool spilled = false;    // checkpoint currently resides on the tier
    tensor::Shape shape{};   // shape for the restoring read
  };
  static constexpr std::int64_t kActKeyBase = std::int64_t{1} << 21;
  static std::int64_t act_key(std::size_t b) {
    return kActKeyBase + static_cast<std::int64_t>(b);
  }
  bool act_spill_enabled_ = false;
  std::uint64_t act_pressure_cb_ = 0;
  std::mutex act_mu_;
  std::vector<ActSpillState> act_state_;

  // Executor replicas (index 0 reuses model_) and per-executor grad scratch.
  std::vector<std::unique_ptr<nn::GptModel>> replicas_;
  std::vector<std::vector<float>> exec_grads_;

  mutable std::mutex stats_mu_;
  EngineStats stats_;
  std::uint64_t obs_provider_id_ = 0;
};

}  // namespace sh::core
