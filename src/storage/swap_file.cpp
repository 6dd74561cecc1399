#include "storage/swap_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace sh::storage {

SwapFile::SwapFile(std::string path, std::size_t capacity_bytes,
                   double bytes_per_second, FaultConfig faults)
    : path_(std::move(path)),
      capacity_(capacity_bytes),
      plan_(faults),
      io_("swap-io", bytes_per_second) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("SwapFile: cannot open " + path_);
  }
  obs_provider_id_ = obs::Registry::global().add_provider(
      [this](obs::MetricsSnapshot& out) {
        out.add("swap.bytes_used", static_cast<double>(bytes_used()), "bytes");
        out.add("swap.capacity_bytes", static_cast<double>(capacity_),
                "bytes");
        out.add("swap.reads", static_cast<double>(reads_completed()));
        out.add("swap.writes", static_cast<double>(writes_completed()));
        out.add("swap.queue_depth", static_cast<double>(queue_depth()));
        const FaultPlan::Counters c = plan_.counters();
        out.add("swap.faults.injected", static_cast<double>(c.faults_total));
        out.add("swap.faults.latency", static_cast<double>(c.latency_spikes));
        out.add("swap.faults.short_read",
                static_cast<double>(c.short_reads));
        out.add("swap.faults.short_write",
                static_cast<double>(c.short_writes));
        out.add("swap.faults.eio_read", static_cast<double>(c.eio_reads));
        out.add("swap.faults.eio_write", static_cast<double>(c.eio_writes));
        out.add("swap.retries", static_cast<double>(retries_attempted()));
        out.add("swap.retry_backoff_s", retry_backoff_seconds(), "s");
        out.add("swap.io_errors", static_cast<double>(io_errors()));
      });
}

SwapFile::~SwapFile() {
  obs::Registry::global().remove_provider(obs_provider_id_);
  io_.wait_all();
  if (fd_ >= 0) {
    ::close(fd_);
    if (unlink_on_close_) ::unlink(path_.c_str());
  }
}

void SwapFile::sync() {
  if (::fsync(fd_) != 0) {
    throw IoError(IoErrorKind::SyscallFailed,
                  "SwapFile: fsync failed for " + path_, IoOp::Write);
  }
}

SwapFile::RegionInfo SwapFile::region_info(std::int64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = regions_.find(key);
  if (it == regions_.end()) {
    throw IoError(IoErrorKind::UnknownKey,
                  "SwapFile: unknown key " + std::to_string(key), IoOp::Read,
                  key);
  }
  return RegionInfo{it->second.offset, it->second.bytes};
}

SwapFile::Region SwapFile::region_for(std::int64_t key, std::size_t bytes,
                                      bool create, IoOp op) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = regions_.find(key);
  if (it != regions_.end()) {
    if (it->second.bytes != bytes) {
      // Typed error, raised before anything reaches the queue: a mismatched
      // rewrite would otherwise overrun into the neighbouring region.
      throw IoError(IoErrorKind::SizeMismatch,
                    "SwapFile: size mismatch for key " + std::to_string(key) +
                        " (region " + std::to_string(it->second.bytes) +
                        " bytes, op " + std::to_string(bytes) + " bytes)",
                    op, key);
    }
    return it->second;
  }
  if (!create) {
    throw IoError(IoErrorKind::UnknownKey,
                  "SwapFile: unknown key " + std::to_string(key), op, key);
  }
  if (capacity_ != 0 && next_offset_ + bytes > capacity_) {
    throw IoError(IoErrorKind::CapacityExceeded,
                  "SwapFile: capacity exceeded (used " +
                      std::to_string(next_offset_) + " + " +
                      std::to_string(bytes) + " > " +
                      std::to_string(capacity_) + " bytes)",
                  op, key);
  }
  const Region r{next_offset_, bytes};
  next_offset_ += bytes;
  regions_[key] = r;
  return r;
}

void SwapFile::note_failure(const std::exception_ptr& err) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!pending_error_) pending_error_ = err;
}

void SwapFile::rethrow_pending() {
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::swap(err, pending_error_);
  }
  if (err) std::rethrow_exception(err);
}

hw::RetryPolicy SwapFile::retry_policy(IoOp op, std::int64_t key) {
  const FaultConfig& fc = plan_.config();
  hw::RetryPolicy p;
  p.max_attempts = std::max<std::size_t>(fc.max_attempts, 1);
  p.backoff_initial_s = fc.backoff_initial_s;
  p.backoff_multiplier = fc.backoff_multiplier;
  p.backoff_max_s = fc.backoff_max_s;
  p.obs_track = "swap";
  p.retryable = [](const std::exception_ptr& ep) {
    try {
      std::rethrow_exception(ep);
    } catch (const TransientIoError&) {
      return true;
    } catch (...) {
      return false;
    }
  };
  p.on_retry = [this](std::size_t, double backoff_s) {
    retries_.fetch_add(1, std::memory_order_relaxed);
    backoff_nanos_.fetch_add(static_cast<std::uint64_t>(backoff_s * 1e9),
                             std::memory_order_relaxed);
  };
  p.on_exhausted = [this, op, key](const std::exception_ptr& ep,
                                   std::size_t attempts) -> std::exception_ptr {
    // Only transient (injected) faults represent an exhausted retry budget;
    // structural errors (syscall failures) pass through unchanged.
    bool transient = false;
    std::string detail;
    try {
      std::rethrow_exception(ep);
    } catch (const TransientIoError& e) {
      transient = true;
      detail = e.what();
    } catch (...) {
    }
    if (!transient) {
      note_failure(ep);
      return nullptr;
    }
    io_errors_.fetch_add(1, std::memory_order_relaxed);
    auto out = std::make_exception_ptr(IoError(
        IoErrorKind::FaultBudgetExhausted,
        "SwapFile: fault budget exhausted after " + std::to_string(attempts) +
            " attempts (key " + std::to_string(key) + "): " + detail,
        op, key, attempts));
    note_failure(out);
    return out;
  };
  return p;
}

void SwapFile::attempt_io(IoOp op, std::int64_t key, const Region& r,
                          char* rd_buf, const char* wr_buf,
                          std::size_t attempt) {
  const FaultDecision d = plan_.decide(op, key, attempt);
  const bool is_read = op == IoOp::Read;
  if (d.kind == FaultKind::TransientError) {
    obs::instant("swap", is_read ? "fault:eio-read" : "fault:eio-write");
    throw TransientIoError(IoErrorKind::TransientFault,
                           std::string("SwapFile: injected transient ") +
                               (is_read ? "read" : "write") +
                               " failure (key " + std::to_string(key) + ")",
                           op, key, attempt + 1);
  }
  std::size_t limit = r.bytes;
  if (d.kind == FaultKind::ShortOp && r.bytes > 1) {
    // Transfer a deterministic prefix, then fail the attempt. The retry
    // redoes the whole op at the same offset, so recovery is exact.
    limit = std::clamp<std::size_t>(
        static_cast<std::size_t>(d.short_fraction *
                                 static_cast<double>(r.bytes)),
        1, r.bytes - 1);
  }
  std::size_t done = 0;
  while (done < limit) {
    const ssize_t n =
        is_read ? ::pread(fd_, rd_buf + done, limit - done,
                          static_cast<off_t>(r.offset + done))
                : ::pwrite(fd_, wr_buf + done, limit - done,
                           static_cast<off_t>(r.offset + done));
    if (n <= 0) {
      throw IoError(IoErrorKind::SyscallFailed,
                    std::string("SwapFile: ") +
                        (is_read ? "pread" : "pwrite") + " failed (key " +
                        std::to_string(key) + ")",
                    op, key, attempt + 1);
    }
    done += static_cast<std::size_t>(n);
  }
  if (d.kind == FaultKind::LatencySpike && d.extra_latency_s > 0.0) {
    // The op succeeds, just slowly — models device-side tail latency.
    std::this_thread::sleep_for(
        std::chrono::duration<double>(d.extra_latency_s));
  }
  io_.transfer(limit);
  if (limit < r.bytes) {
    obs::instant("swap", is_read ? "fault:short-read" : "fault:short-write");
    throw TransientIoError(
        IoErrorKind::TransientFault,
        std::string("SwapFile: injected short ") +
            (is_read ? "read" : "write") + " (key " + std::to_string(key) +
            ", " + std::to_string(limit) + "/" + std::to_string(r.bytes) +
            " bytes)",
        op, key, attempt + 1);
  }
}

std::shared_future<void> SwapFile::write_async(std::int64_t key,
                                               std::span<const float> data) {
  const Region r = region_for(key, data.size_bytes(), /*create=*/true,
                              IoOp::Write);
  auto job = [this, key, r, data](std::size_t attempt) {
    obs::ObsScope scope("swap", "write");
    attempt_io(IoOp::Write, key, r, nullptr,
               reinterpret_cast<const char*>(data.data()), attempt);
    writes_.fetch_add(1, std::memory_order_relaxed);
  };
  return io_.run_async_retry(std::move(job), retry_policy(IoOp::Write, key));
}

std::shared_future<void> SwapFile::read_async(std::int64_t key,
                                              std::span<float> out) {
  const Region r =
      region_for(key, out.size_bytes(), /*create=*/false, IoOp::Read);
  auto job = [this, key, r, out](std::size_t attempt) {
    obs::ObsScope scope("swap", "read");
    attempt_io(IoOp::Read, key, r, reinterpret_cast<char*>(out.data()),
               nullptr, attempt);
    reads_.fetch_add(1, std::memory_order_relaxed);
  };
  return io_.run_async_retry(std::move(job), retry_policy(IoOp::Read, key));
}

std::shared_future<void> SwapFile::join_async(
    std::vector<std::shared_future<void>> deps) {
  // FIFO: every dep was enqueued before this job, so the gets never block;
  // they exist purely to propagate the first failure.
  return io_.run_async([deps = std::move(deps)] {
    for (const auto& f : deps) {
      if (f.valid()) f.get();
    }
  });
}

void SwapFile::write(std::int64_t key, std::span<const float> data) {
  write_async(key, data).get();
}

void SwapFile::read(std::int64_t key, std::span<float> out) {
  read_async(key, out).get();
}

bool SwapFile::contains(std::int64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return regions_.count(key) > 0;
}

std::size_t SwapFile::bytes_used() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_offset_;
}

}  // namespace sh::storage
