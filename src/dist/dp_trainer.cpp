#include "dist/dp_trainer.hpp"

#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "tensor/ops.hpp"

namespace sh::dist {

DataParallelTrainer::DataParallelTrainer(const nn::GptConfig& model_config,
                                         core::EngineConfig engine_config,
                                         int world)
    : model_config_(model_config),
      base_config_(std::move(engine_config)),
      head_index_(static_cast<std::size_t>(model_config.num_units()) - 1),
      seq_(model_config.max_seq) {
  if (world <= 0) throw std::invalid_argument("world must be >= 1");
  // The trainer owns checkpointing: one directory, one writer, snapshots of
  // the replicated state captured on rank 0. Engines get the slot cleared
  // AND the env overlay suppressed (SH_CKPT_DIR would otherwise re-enable a
  // per-rank Checkpointer inside each engine's constructor), so they neither
  // open the same directory nor write per-rank duplicates.
  ckpt_cfg_ = ckpt::config_from_env(base_config_.ckpt);
  base_config_.ckpt = {};
  base_config_.ckpt_env_overrides = false;
  if (!ckpt_cfg_.dir.empty()) {
    ckpt_ = std::make_unique<ckpt::Checkpointer>(ckpt_cfg_);
  }
  ranks_.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) ranks_.push_back(make_rank());
  rebuild_comm();
}

std::unique_ptr<DataParallelTrainer::Rank> DataParallelTrainer::make_rank() {
  auto rank = std::make_unique<Rank>();
  rank->model = std::make_unique<nn::GptModel>(model_config_);
  core::EngineConfig cfg = base_config_;
  // Each replica owns its swap file: a SwapFile truncates its path on open
  // and unlinks it on close, so ranks sharing one path would wipe each
  // other's tier. The suffix counts ranks ever made, so a joiner never
  // reuses a live rank's file (comm_index changes with elasticity).
  if (!cfg.swap_path.empty()) {
    cfg.swap_path += ".rank" + std::to_string(ranks_made_++);
  }
  // Blocks reduce over the GPU channel; the pinned embedding/head over the
  // CPU channel. Each rank averages after the sum so every replica applies
  // the global-mean gradient. The lambda reads comm_index/inv_world_ at call
  // time, so ranks survive world-size changes without re-wiring.
  Rank* self = rank.get();
  cfg.grad_reducer = [this, self](std::size_t layer, float* grads,
                                  std::int64_t n) {
    const bool pinned = layer == 0 || layer == head_index_;
    comm_->all_reduce_sum(pinned ? Channel::Cpu : Channel::Gpu,
                          self->comm_index,
                          {grads, static_cast<std::size_t>(n)});
    tensor::scale(inv_world_, grads, n);
  };
  rank->engine =
      std::make_unique<core::StrongholdEngine>(*rank->model, std::move(cfg));
  return rank;
}

void DataParallelTrainer::rebuild_comm() {
  // Sense-reversing barriers inside a ProcessGroup assume a fixed world, so
  // elasticity swaps in fresh collectives. Retired traffic counters carry
  // over to keep floats_communicated() monotonic.
  if (comm_) floats_comm_base_ += comm_->floats_communicated();
  comm_ = std::make_unique<HeteroComm>(world());
  inv_world_ = 1.0f / static_cast<float>(world());
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    ranks_[r]->comm_index = static_cast<int>(r);
  }
}

std::size_t DataParallelTrainer::floats_communicated() const {
  return floats_comm_base_ + (comm_ ? comm_->floats_communicated() : 0);
}

void DataParallelTrainer::init_params(std::uint64_t seed) {
  for (auto& r : ranks_) r->engine->init_params(seed);
}

std::uint64_t DataParallelTrainer::current_step() const {
  return ranks_.empty() ? 0 : ranks_.front()->engine->stats().iterations;
}

float DataParallelTrainer::train_step(const data::Batch& global_batch) {
  const int world = this->world();
  const std::size_t tokens = global_batch.ids.size();
  const auto seq = static_cast<std::size_t>(seq_);
  if (tokens % seq != 0 ||
      (tokens / seq) % static_cast<std::size_t>(world) != 0) {
    throw std::invalid_argument(
        "global batch rows must divide evenly across ranks");
  }
  const std::size_t shard = tokens / static_cast<std::size_t>(world);

  // A failing rank aborts the collectives, so its peers leave their waits
  // with dist::Aborted instead of parking in an all-reduce it never joins.
  std::vector<float> losses(static_cast<std::size_t>(world), 0.0f);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(world));
  std::vector<std::exception_ptr> aborts(static_cast<std::size_t>(world));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      try {
        data::Batch local;
        const std::size_t lo = static_cast<std::size_t>(r) * shard;
        local.ids.assign(
            global_batch.ids.begin() + static_cast<std::ptrdiff_t>(lo),
            global_batch.ids.begin() + static_cast<std::ptrdiff_t>(lo + shard));
        local.targets.assign(
            global_batch.targets.begin() + static_cast<std::ptrdiff_t>(lo),
            global_batch.targets.begin() +
                static_cast<std::ptrdiff_t>(lo + shard));
        losses[static_cast<std::size_t>(r)] =
            ranks_[static_cast<std::size_t>(r)]->engine->train_step(local);
      } catch (const Aborted&) {
        aborts[static_cast<std::size_t>(r)] = std::current_exception();
        comm_->abort();
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        comm_->abort();
      }
    });
  }
  for (auto& t : threads) t.join();
  // A rank's own failure outranks the Aborted it caused in its peers. The
  // aborted collectives are replaced, so the trainer stays usable.
  errors.insert(errors.end(), aborts.begin(), aborts.end());
  for (auto& err : errors) {
    if (!err) continue;
    rebuild_comm();
    std::rethrow_exception(err);
  }
  float mean = 0.0f;
  for (float l : losses) mean += l;

  if (ckpt_ && ckpt_cfg_.every_n_steps != 0 &&
      current_step() % ckpt_cfg_.every_n_steps == 0) {
    // Replicated state: one snapshot (rank 0) covers the whole world; the
    // write+commit overlaps with the following steps.
    ckpt_->save_async(capture(*ranks_.front()->engine));
  }
  return mean / static_cast<float>(world);
}

ckpt::Snapshot DataParallelTrainer::capture(
    core::StrongholdEngine& engine) const {
  ckpt::Snapshot snap = engine.capture_snapshot();
  snap.blobs.put("dp.world", static_cast<std::uint32_t>(world()));
  return snap;
}

void DataParallelTrainer::save_checkpoint() {
  if (!ckpt_) {
    throw std::logic_error(
        "DataParallelTrainer: no checkpoint directory configured");
  }
  ckpt_->save_now(capture(*ranks_.front()->engine));
}

bool DataParallelTrainer::resume_from_latest() {
  if (!ckpt_) return false;
  ckpt::Snapshot snap;
  try {
    snap = ckpt_->restore_latest();
  } catch (const ckpt::RestoreError& e) {
    if (e.kind() == ckpt::RestoreErrorKind::NoValidGeneration) return false;
    throw;
  }
  // Replicated (not sharded) state: the ONE manifest restores any world
  // size. The shard each rank trains on next step is re-derived from the
  // current world, which is the whole of elastic re-sharding.
  for (auto& r : ranks_) r->engine->restore_snapshot(snap);
  return true;
}

void DataParallelTrainer::remove_rank(int r) {
  if (world() <= 1) {
    throw std::invalid_argument("remove_rank: world would become empty");
  }
  ranks_.at(static_cast<std::size_t>(r));  // bounds check
  ranks_.erase(ranks_.begin() + static_cast<std::ptrdiff_t>(r));
  rebuild_comm();
}

int DataParallelTrainer::add_rank() {
  std::unique_ptr<Rank> rank = make_rank();
  // Seed the joiner. Preferred source: the newest committed generation, when
  // it matches the current step — the rejoin then depends only on durable
  // state (a rank can join a restarted world). Fallback: a live snapshot of
  // rank 0 (e.g. mid-interval joins with no fresh generation).
  bool restored = false;
  if (ckpt_) {
    // Settle any in-flight async save first so a generation written at this
    // very boundary is visible — the rejoin is then deterministic instead of
    // racing the background commit.
    ckpt_->finish();
    const auto latest = ckpt_->latest();
    if (latest && *latest == current_step()) {
      try {
        rank->engine->restore_snapshot(ckpt_->restore(*latest));
        restored = true;
      } catch (const ckpt::RestoreError&) {
        // A corrupt newest generation must not fail the join; fall through
        // to the live-peer snapshot, exactly like a mid-interval join.
      }
    }
  }
  if (!restored) {
    rank->engine->restore_snapshot(capture(*ranks_.front()->engine));
  }
  ranks_.push_back(std::move(rank));
  rebuild_comm();
  return world() - 1;
}

void DataParallelTrainer::snapshot_params(int rank, std::vector<float>& out) {
  ranks_.at(static_cast<std::size_t>(rank))->engine->snapshot_params(out);
}

core::EngineStats DataParallelTrainer::stats(int rank) const {
  return ranks_.at(static_cast<std::size_t>(rank))->engine->stats();
}

}  // namespace sh::dist
