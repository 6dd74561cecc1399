// Concurrent parameter update (Section III-E1).
//
// Conventional schemes (including ZeRO-Offload) drive one optimizer; the
// STRONGHOLD runtime instead dispatches updates as asynchronous actors so
// several layers update simultaneously on CPU cores, concurrently with the
// GPU's backward computation. The paper uses Ray actors; we use a thread
// pool. An optimizer is stateless (Optimizer::step is const and the moments
// live in each LayerState), so every update thread shares one instance.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <vector>

#include "core/layer_store.hpp"
#include "optim/optimizer.hpp"
#include "parallel/thread_pool.hpp"

namespace sh::core {

class OptimizerPool {
 public:
  /// Creates `workers` update threads that all step with `opt`, which must
  /// outlive the pool.
  OptimizerPool(const optim::Optimizer& opt, std::size_t workers);

  /// Schedules an asynchronous parameter update for `st` using its CPU-side
  /// grads and optimizer state. If `after` is valid, the update waits for it
  /// first (e.g. the grad d2h copy). `post_update` runs inside the task after
  /// the step (e.g. the NVMe tier write-back). `lr` overrides the learning
  /// rate (schedules). A failed moment read skips the update whole and
  /// counts it in moment_update_skips(). Returns the completion future and
  /// also stores it in `st.update_done`.
  std::shared_future<void> submit(LayerState& st,
                                  std::shared_future<void> after = {},
                                  std::function<void()> post_update = {},
                                  float lr = -1.0f);

  /// Runs an update synchronously on the caller's thread (used for the
  /// GPU-pinned layers, whose update the paper performs on the GPU). A
  /// failed moment read propagates its storage::IoError before any state
  /// changes.
  void update_now(LayerState& st, float* params, const float* grads,
                  float lr = -1.0f);

  void wait_all();
  std::size_t updates_completed() const noexcept { return completed_.load(); }
  /// Updates submitted but not yet finished (occupancy gauge).
  std::size_t in_flight() const { return pool_.pending(); }
  std::size_t workers() const noexcept { return pool_.num_threads(); }

  /// Enables NVMe-resident moment paging (ZeRO-Infinity-style optimizer
  /// offload): updates of `store`'s opt-tiered layers stage their Adam
  /// moments through a small ring of reusable host buffers, reading from and
  /// writing back to the store's swap tier. Call once before training.
  void enable_moment_tier(LayerStore& store);
  bool moment_tier_enabled() const noexcept { return store_ != nullptr; }

  /// Issues the tier read of `st`'s moments ahead of its update so the read
  /// overlaps preceding compute (call from the control thread; no-op for
  /// non-tiered layers). Blocks only when every staging buffer is in use —
  /// backpressure, since buffers free as queued updates drain.
  void prefetch_moments(LayerState& st);

  /// Moment-tier counters (zero when the tier is disabled).
  std::size_t moment_prefetches() const noexcept {
    return moment_prefetches_.load();
  }
  std::size_t moment_demand_reads() const noexcept {
    return moment_demand_reads_.load();
  }
  std::size_t moment_update_skips() const noexcept {
    return moment_update_skips_.load();
  }
  std::size_t moment_writes() const noexcept { return moment_writes_.load(); }

 private:
  // One staging slot of the moment ring. `read` is the pending tier read of
  // `owner`'s moments into `buf`; `last_op` is the last tier op touching
  // `buf` (the previous owner's write-back) and must complete before reuse.
  struct MomentLease {
    std::vector<float> buf;
    std::shared_future<void> read;
    std::shared_future<void> last_op;
    LayerState* owner = nullptr;
  };

  /// Returns the lease staging `st`'s moments. When `st` holds none yet, it
  /// claims a free one, issues the tier read into it and counts the read in
  /// `reads`. The read is NOT yet waited on.
  MomentLease* claim_moments(LayerState& st,
                             std::atomic<std::size_t>& reads);
  /// The one optimizer-step body: stages tier moments, steps `params`
  /// against `grads`, queues the moment write-back and counts the update. A
  /// failed moment read releases the lease and rethrows before anything is
  /// mutated.
  void step_layer(LayerState& st, float* params, const float* grads,
                  float lr);
  void release_moments(MomentLease* lease,
                       std::shared_future<void> write_back);

  const optim::Optimizer& opt_;
  std::atomic<std::size_t> completed_{0};

  LayerStore* store_ = nullptr;  // non-null once the moment tier is enabled
  std::vector<MomentLease> leases_;
  std::mutex moment_mu_;
  std::condition_variable moment_cv_;
  std::atomic<std::size_t> moment_prefetches_{0};
  std::atomic<std::size_t> moment_demand_reads_{0};
  std::atomic<std::size_t> moment_update_skips_{0};
  std::atomic<std::size_t> moment_writes_{0};

  parallel::ThreadPool pool_;
};

}  // namespace sh::core
