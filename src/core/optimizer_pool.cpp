#include "core/optimizer_pool.hpp"

#include <algorithm>
#include <span>

#include "obs/obs.hpp"
#include "storage/fault_plan.hpp"

namespace sh::core {

using obs::wall_seconds;

OptimizerPool::OptimizerPool(const optim::Optimizer& prototype,
                             std::size_t workers)
    : pool_(workers == 0 ? 1 : workers) {
  const std::size_t n = workers == 0 ? 1 : workers;
  actors_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) actors_.push_back(prototype.clone());
}

void OptimizerPool::enable_moment_tier(LayerStore& store) {
  store_ = &store;
  std::size_t max_floats = 0;
  for (std::size_t i = 0; i < store.size(); ++i) {
    if (store.state(i).opt_tiered) {
      max_floats = std::max(max_floats, store.opt_floats(i));
    }
  }
  // A few slots beyond the worker count so prefetched moments can sit staged
  // while every actor is mid-update.
  leases_.resize(actors_.size() + 4);
  for (auto& l : leases_) l.buf.resize(max_floats);
}

void OptimizerPool::prefetch_moments(LayerState& st) {
  if (store_ == nullptr || !st.opt_tiered) return;
  claim_moments(st, moment_prefetches_);
}

OptimizerPool::MomentLease* OptimizerPool::claim_moments(
    LayerState& st, std::atomic<std::size_t>& reads) {
  MomentLease* lease = nullptr;
  {
    std::unique_lock lk(moment_mu_);
    for (auto& l : leases_) {
      if (l.owner == &st) return &l;  // read already staged or pending
    }
    moment_cv_.wait(lk, [&] {
      for (auto& l : leases_) {
        if (l.owner == nullptr) {
          lease = &l;
          return true;
        }
      }
      return false;
    });
    lease->owner = &st;
  }
  // The previous owner's write-back must land before the buffer is reused.
  // FIFO tier ordering then guarantees this read observes that write.
  if (lease->last_op.valid()) lease->last_op.wait();
  lease->read = store_->swap()->read_async(
      LayerStore::moment_key(st.index),
      std::span<float>(lease->buf.data(), store_->opt_floats(st.index)));
  reads.fetch_add(1, std::memory_order_relaxed);
  return lease;
}

void OptimizerPool::release_moments(MomentLease* lease,
                                    std::shared_future<void> write_back) {
  std::lock_guard lk(moment_mu_);
  lease->read = {};
  lease->last_op = std::move(write_back);
  lease->owner = nullptr;
  moment_cv_.notify_all();
}

void OptimizerPool::step_layer(optim::Optimizer& opt, LayerState& st,
                               float* params, const float* grads, float lr) {
  float* opt_state = st.cpu_opt.data();
  MomentLease* lease = nullptr;
  if (store_ != nullptr && st.opt_tiered) {
    lease = claim_moments(st, moment_demand_reads_);
    try {
      lease->read.get();
    } catch (...) {
      release_moments(lease, {});
      throw;
    }
    opt_state = lease->buf.data();
  }
  ++st.step;
  opt.step(params, grads, opt_state, st.step, st.params, lr);
  if (lease != nullptr) {
    auto wb = store_->swap()->write_async(
        LayerStore::moment_key(st.index),
        std::span<const float>(lease->buf.data(),
                               store_->opt_floats(st.index)));
    moment_writes_.fetch_add(1, std::memory_order_relaxed);
    release_moments(lease, std::move(wb));
  }
  completed_.fetch_add(1, std::memory_order_relaxed);
}

std::shared_future<void> OptimizerPool::submit(LayerState& st,
                                               std::shared_future<void> after,
                                               std::function<void()> post_update,
                                               float lr) {
  const std::size_t actor =
      next_actor_.fetch_add(1, std::memory_order_relaxed) % actors_.size();
  optim::Optimizer* opt = actors_[actor].get();
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  auto fut = pool_.async([this, opt, &st, after, lr,
                          post = std::move(post_update)] {
    struct InFlight {
      std::atomic<std::size_t>& n;
      ~InFlight() { n.fetch_sub(1, std::memory_order_relaxed); }
    } in_flight_guard{in_flight_};
    if (after.valid()) after.wait();
    const double t0 = wall_seconds();
    try {
      step_layer(*opt, st, st.cpu_params.data(), st.cpu_grads.data(), lr);
    } catch (const storage::IoError&) {
      // Tier retry budget exhausted: drop this layer's step whole — params,
      // moments and step count all stay unchanged (no torn update). The
      // permanent failure is latched in the tier and re-raised as a typed
      // IoError at the step boundary via SwapFile::rethrow_pending().
      moment_update_skips_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (post) post();
    obs::span("cpu-opt", "update", t0, wall_seconds());
  });
  st.update_done = fut.share();
  return st.update_done;
}

void OptimizerPool::update_now(LayerState& st, float* params,
                               const float* grads, float lr) {
  obs::ObsScope scope("cpu-opt", "update_now");
  step_layer(*actors_[0], st, params, grads, lr);
}

void OptimizerPool::wait_all() { pool_.wait_idle(); }

}  // namespace sh::core
