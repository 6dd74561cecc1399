// Data-parallel training across nodes with STRONGHOLD on each node
// (Sections III-F, VI-D2).
//
// Because offloading lets the *whole* model fit on a single node, the
// cluster can run plain data parallelism instead of model parallelism: each
// rank owns a full replica trained through its own StrongholdEngine, and
// per-layer gradients are all-reduced through the heterogeneous collective
// channels — GPU-resident block gradients on the GPU channel, the pinned
// embedding/head gradients on the CPU channel, concurrently usable
// (Section III-E2).
//
// Elasticity: because every rank holds the FULL replicated state, the world
// can grow or shrink at any step boundary. remove_rank() drops a replica and
// rebuilds the collectives; add_rank() builds a fresh replica and seeds it
// from the latest committed checkpoint generation when one matches the
// current step, else from a live peer's snapshot. Data "re-sharding" is
// implicit: train_step splits the global batch by the current world size, so
// a changed world deterministically re-derives every rank's shard.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ckpt/checkpointer.hpp"
#include "core/engine.hpp"
#include "dist/hetero_comm.hpp"
#include "nn/gpt.hpp"

namespace sh::dist {

class DataParallelTrainer {
 public:
  /// Creates `world` rank replicas of the model, each behind its own
  /// StrongholdEngine configured from `engine_config` (the grad_reducer slot
  /// is taken over by the trainer; `engine_config.ckpt` is taken over too —
  /// the TRAINER owns the checkpoint directory, so the replicated state is
  /// written once, not once per rank). A non-empty `swap_path` is suffixed
  /// `.rank<n>` per replica, n counting every rank made, so no two replicas
  /// ever share a swap file.
  DataParallelTrainer(const nn::GptConfig& model_config,
                      core::EngineConfig engine_config, int world);

  int world() const noexcept { return static_cast<int>(ranks_.size()); }

  /// Initialises every replica identically.
  void init_params(std::uint64_t seed);

  /// One data-parallel step: the global batch is split evenly across ranks;
  /// rank threads run concurrently and all-reduce gradients layer by layer.
  /// Returns the global mean loss. With `ckpt.every_n_steps` configured,
  /// commits a snapshot of the replicated state at that cadence. When a rank
  /// throws, its peers are released from the collectives and the rank's own
  /// error is rethrown once every rank thread has joined.
  float train_step(const data::Batch& global_batch);

  /// Parameter snapshot of one rank (all ranks stay identical; verified by
  /// the tests).
  void snapshot_params(int rank, std::vector<float>& out);

  core::EngineStats stats(int rank) const;
  std::size_t floats_communicated() const;

  /// Completed optimizer iterations (identical on every rank).
  std::uint64_t current_step() const;

  // --- Elasticity (call between train_steps only) ---

  /// Removes rank `r` from the world; remaining ranks keep the full state
  /// and the next step re-shards the global batch over the smaller world.
  void remove_rank(int r);

  /// Adds one rank. Its replica is restored from the newest committed
  /// checkpoint generation when that generation's step equals current_step()
  /// (the deterministic re-sharding path ISSUE headline demands), otherwise
  /// from a live snapshot of rank 0. Returns the new rank's index.
  int add_rank();

  // --- Checkpoint/resume of the replicated training state ---

  /// Synchronous checkpoint of the replicated state (captured on rank 0).
  /// Throws std::logic_error when no checkpoint directory is configured.
  void save_checkpoint();

  /// Restores every rank from the newest valid generation. Returns false
  /// when the directory has no committed generation (or checkpointing is
  /// disabled); throws ckpt::RestoreError when a generation exists but does
  /// not fit the model.
  bool resume_from_latest();

  /// Trainer-level Checkpointer (nullptr when `ckpt.dir` was empty).
  ckpt::Checkpointer* checkpointer() noexcept { return ckpt_.get(); }

 private:
  struct Rank {
    std::unique_ptr<nn::GptModel> model;
    std::unique_ptr<core::StrongholdEngine> engine;
    int comm_index = 0;  ///< position in the current collectives
  };

  std::unique_ptr<Rank> make_rank();
  /// Rebuilds the collectives (and 1/world) after a world-size change.
  void rebuild_comm();
  ckpt::Snapshot capture(core::StrongholdEngine& engine) const;

  nn::GptConfig model_config_;
  core::EngineConfig base_config_;  // grad_reducer/ckpt slots cleared
  ckpt::Config ckpt_cfg_;
  std::unique_ptr<ckpt::Checkpointer> ckpt_;
  std::unique_ptr<HeteroComm> comm_;
  float inv_world_ = 1.0f;
  std::size_t floats_comm_base_ = 0;  // traffic of retired collectives
  std::size_t head_index_;
  std::int64_t seq_;
  std::size_t ranks_made_ = 0;  // suffix of the next rank's swap path
  std::vector<std::unique_ptr<Rank>> ranks_;
};

}  // namespace sh::dist
