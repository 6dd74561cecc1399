// One link (a CUDA copy stream, an NVMe queue) as an asynchronous engine.
//
// Jobs run FIFO on a dedicated worker thread so they genuinely overlap with
// compute threads, like cudaMemcpyAsync on a dedicated stream. A job that
// moves bytes calls transfer(), the link's one throttle and byte counter: an
// optional bandwidth slows the link down to PCIe- or NVMe-like speeds for
// runs that need to provoke prefetch-miss / overlap behaviour.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>

namespace sh::hw {

/// Bounded-retry policy for run_async_retry. The engine is storage-agnostic:
/// which exceptions are worth retrying, how retries are counted, and what a
/// permanently failed op turns into are all supplied by the caller
/// (storage::SwapFile wires these to its fault counters and typed IoError).
struct RetryPolicy {
  /// Total tries per job (1 = no retry).
  std::size_t max_attempts = 1;
  /// Exponential backoff between attempts, executed ON the worker thread —
  /// a faulted op stalls the FIFO queue like a real stalled NVMe queue.
  double backoff_initial_s = 0.0;
  double backoff_multiplier = 2.0;
  double backoff_max_s = 0.0;  ///< 0 = uncapped
  /// Obs track for "retry" spans covering each backoff wait (nullptr = off).
  const char* obs_track = nullptr;
  /// Returns true if the failure is worth another attempt. Unset = never.
  std::function<bool(const std::exception_ptr&)> retryable;
  /// Invoked before each backoff+reattempt with (attempt, backoff seconds).
  std::function<void(std::size_t, double)> on_retry;
  /// Invoked when attempts are exhausted (or the error is non-retryable
  /// after a retry sequence began); may translate the final exception. A
  /// null return rethrows the original.
  std::function<std::exception_ptr(const std::exception_ptr&, std::size_t)>
      on_exhausted;
};

class TransferEngine {
 public:
  /// `bytes_per_second` == 0 disables throttling (transfer() only counts).
  explicit TransferEngine(std::string name, double bytes_per_second = 0.0);
  ~TransferEngine();

  TransferEngine(const TransferEngine&) = delete;
  TransferEngine& operator=(const TransferEngine&) = delete;

  /// Enqueues a job on the link. The returned future becomes ready when the
  /// job has completed (or carries its exception).
  std::shared_future<void> run_async(std::function<void()> job);

  /// Enqueues `job` with a bounded-retry policy. The job receives the
  /// 0-based attempt number; on a failure the policy deems retryable it is
  /// re-run after exponential backoff (all on the worker thread, preserving
  /// FIFO order with other jobs). Jobs must be idempotent. The returned
  /// future carries the final exception once attempts are exhausted
  /// (optionally translated by policy.on_exhausted).
  std::shared_future<void> run_async_retry(
      std::function<void(std::size_t)> job, RetryPolicy policy);

  /// Blocks until every enqueued operation has completed.
  void wait_all();

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
  std::size_t queue_depth() const;
  const std::string& name() const noexcept { return name_; }

 private:
  struct Job {
    std::function<void()> work;
    std::promise<void> done;
  };

  void worker_loop();

  std::string name_;
  std::string obs_track_;  // "<name>-queue": worker occupancy span track
  double bytes_per_second_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable cv_idle_;
  std::deque<Job> queue_;
  bool stop_ = false;
  bool busy_ = false;
  std::size_t completed_ = 0;
  std::size_t bytes_ = 0;
  std::thread worker_;
};

}  // namespace sh::hw
