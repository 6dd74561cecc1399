// One link (a CUDA copy stream, an NVMe queue) as an asynchronous engine.
//
// Jobs run FIFO on the link's own one-thread pool so they genuinely overlap
// with compute threads, like cudaMemcpyAsync on a dedicated stream. A job
// that moves bytes calls transfer(), the link's one throttle and byte
// counter: an optional bandwidth slows the link down to PCIe- or NVMe-like
// speeds for runs that need to provoke prefetch-miss / overlap behaviour.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <string>

#include "parallel/thread_pool.hpp"

namespace sh::hw {

class TransferEngine {
 public:
  /// `bytes_per_second` == 0 disables throttling (transfer() only counts).
  explicit TransferEngine(std::string name, double bytes_per_second = 0.0);

  TransferEngine(const TransferEngine&) = delete;
  TransferEngine& operator=(const TransferEngine&) = delete;

  /// Enqueues a job on the link. The returned future becomes ready when the
  /// job has completed (or carries its exception). Each job is one
  /// "<name>-queue"/"op" span: queue service time, which includes any wait
  /// on upstream dependencies (copy spans go on the bare "<name>" track).
  std::shared_future<void> run_async(std::function<void()> job);

  /// Blocks until every enqueued operation has completed.
  void wait_all() { worker_.wait_idle(); }

  /// Prices `bytes` of wire traffic that a job has just moved: sleeps
  /// `bytes / bytes_per_second` when the link is throttled, then counts one
  /// transfer. Callers pass the true wire bytes, whatever the element
  /// encoding, so bytes_transferred() stays dtype-honest. Safe to call from
  /// inside a job (jobs run outside the stats lock).
  void transfer(std::size_t bytes);

  std::size_t completed_transfers() const;
  std::size_t bytes_transferred() const;
  /// Jobs enqueued or executing right now (an observability gauge; the value
  /// is stale the moment it returns).
  std::size_t queue_depth() const { return worker_.pending(); }
  const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
  std::string obs_track_;  // "<name>-queue": worker occupancy span track
  double bytes_per_second_;
  mutable std::mutex mu_;
  std::size_t completed_ = 0;
  std::size_t bytes_ = 0;
  // Last member: destroyed first, so the worker drains and joins while the
  // counters it updates still exist. One thread keeps jobs FIFO.
  parallel::ThreadPool worker_{1};
};

}  // namespace sh::hw
