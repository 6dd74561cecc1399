#include "hw/transfer.hpp"

#include <chrono>
#include <thread>

#include "obs/obs.hpp"

namespace sh::hw {

TransferEngine::TransferEngine(std::string name, double bytes_per_second)
    : name_(std::move(name)),
      obs_track_(name_ + "-queue"),
      bytes_per_second_(bytes_per_second) {}

void TransferEngine::transfer(std::size_t bytes) {
  if (bytes_per_second_ > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(
        static_cast<double>(bytes) / bytes_per_second_));
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++completed_;
  bytes_ += bytes;
}

std::shared_future<void> TransferEngine::run_async(std::function<void()> job) {
  return worker_
      .async([this, job = std::move(job)] {
        obs::ObsScope scope(obs_track_.c_str(), "op");
        job();
      })
      .share();
}

std::size_t TransferEngine::completed_transfers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_;
}

std::size_t TransferEngine::bytes_transferred() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

}  // namespace sh::hw
