#include "hw/transfer.hpp"

#include <chrono>
#include <exception>
#include <thread>

#include "obs/obs.hpp"

namespace sh::hw {

TransferEngine::TransferEngine(std::string name, double bytes_per_second)
    : name_(std::move(name)),
      obs_track_(name_ + "-queue"),
      bytes_per_second_(bytes_per_second) {
  worker_ = std::thread([this] { worker_loop(); });
}

TransferEngine::~TransferEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

void TransferEngine::transfer(std::size_t bytes) {
  if (bytes_per_second_ > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(
        static_cast<double>(bytes) / bytes_per_second_));
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++completed_;
  bytes_ += bytes;
}

std::shared_future<void> TransferEngine::run_async_retry(
    std::function<void(std::size_t)> job, RetryPolicy policy) {
  auto wrapper = [job = std::move(job), policy = std::move(policy)] {
    double backoff = policy.backoff_initial_s;
    const std::size_t max_attempts =
        policy.max_attempts > 0 ? policy.max_attempts : 1;
    for (std::size_t attempt = 0;; ++attempt) {
      try {
        job(attempt);
        return;
      } catch (...) {
        std::exception_ptr err = std::current_exception();
        const bool retryable = policy.retryable && policy.retryable(err);
        if (!retryable || attempt + 1 >= max_attempts) {
          if (policy.on_exhausted) {
            std::exception_ptr translated =
                policy.on_exhausted(err, attempt + 1);
            if (translated) err = std::move(translated);
          }
          std::rethrow_exception(err);
        }
        if (policy.on_retry) policy.on_retry(attempt, backoff);
        if (backoff > 0.0) {
          // The backoff stalls the FIFO worker on purpose: downstream ops
          // wait behind the unhealthy one exactly like a real device queue.
          const double t0 = obs::wall_seconds();
          std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
          if (policy.obs_track != nullptr) {
            obs::span(policy.obs_track, "retry", t0, obs::wall_seconds());
          }
        } else if (policy.obs_track != nullptr) {
          obs::instant(policy.obs_track, "retry");
        }
        backoff *= policy.backoff_multiplier;
        if (policy.backoff_max_s > 0.0 && backoff > policy.backoff_max_s) {
          backoff = policy.backoff_max_s;
        }
      }
    }
  };
  return run_async(std::move(wrapper));
}

std::shared_future<void> TransferEngine::run_async(std::function<void()> job) {
  Job j;
  j.work = std::move(job);
  auto fut = j.done.get_future().share();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(j));
  }
  cv_.notify_one();
  return fut;
}

void TransferEngine::wait_all() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && !busy_; });
}

std::size_t TransferEngine::completed_transfers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_;
}

std::size_t TransferEngine::bytes_transferred() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

std::size_t TransferEngine::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() + (busy_ ? 1 : 0);
}

void TransferEngine::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      busy_ = true;
    }
    try {
      // Worker-occupancy span on "<name>-queue" (jobs may block on upstream
      // dependencies, so this is queue service time, not pure copy time —
      // the engine records its copy spans on the bare "<name>" track).
      obs::ObsScope scope(obs_track_.c_str(), "op");
      job.work();
      job.done.set_value();
    } catch (...) {
      job.done.set_exception(std::current_exception());
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      busy_ = false;
      if (queue_.empty()) cv_idle_.notify_all();
    }
  }
}

}  // namespace sh::hw
