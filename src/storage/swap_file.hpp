// Secondary-storage tier (Section III-G).
//
// The paper memory-maps a swap file on NVMe and issues asynchronous bulk
// reads/writes that overlap with CPU-GPU transfers and compute. This class
// provides the same capability over a real file: keyed per-layer regions,
// an asynchronous I/O worker with FIFO ordering, and an optional bandwidth
// throttle to emulate NVMe speeds in tests.
//
// The tier is fallible by design: a seeded FaultPlan (storage/fault_plan.hpp)
// can inject latency spikes, short reads/writes, and transient EIO-style
// failures into every attempt. The tier's own bounded retry loop with
// exponential backoff, run on the I/O worker, recovers from transient
// faults; structural failures are not retried, and every error surface is a
// typed storage::IoError. Permanent failures whose futures nobody holds
// (fire-and-forget write-backs) are latched and rethrown from
// rethrow_pending().
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "hw/transfer.hpp"
#include "storage/fault_plan.hpp"

namespace sh::storage {

class SwapFile {
 public:
  /// Creates (truncates) the swap file at `path`. `capacity_bytes` bounds the
  /// total region size (0 = unbounded). `bytes_per_second` throttles I/O
  /// (0 = full speed). `faults` configures injected faults and the retry
  /// budget (default: healthy device, no retries needed).
  SwapFile(std::string path, std::size_t capacity_bytes = 0,
           double bytes_per_second = 0.0, FaultConfig faults = {});
  ~SwapFile();

  SwapFile(const SwapFile&) = delete;
  SwapFile& operator=(const SwapFile&) = delete;

  /// Asynchronously writes `data` to the region of `key`, creating the
  /// region on first write. Rewrites must use the same size (mismatch is a
  /// typed IoError{SizeMismatch}, raised before anything is queued — the
  /// region is never partially overwritten).
  std::shared_future<void> write_async(std::int64_t key,
                                       std::span<const float> data);

  /// Asynchronously reads the region of `key` into `out` (size must match).
  std::shared_future<void> read_async(std::int64_t key, std::span<float> out);

  /// Enqueues a join barrier after previously returned futures: the result
  /// completes once every dep has, and carries the FIRST failure among them.
  /// Used by LayerStore to keep a dropped first-future's error from being
  /// lost (fault_in/write_back issue two tier ops per layer).
  std::shared_future<void> join_async(
      std::vector<std::shared_future<void>> deps);

  /// Synchronous conveniences.
  void write(std::int64_t key, std::span<const float> data);
  void read(std::int64_t key, std::span<float> out);

  /// Blocks until every queued asynchronous read/write has completed.
  /// Owners of buffers handed to write_async must call this (or hold the
  /// returned futures) before freeing them.
  void wait_all() { io_.wait_all(); }

  /// Rethrows (and clears) the first permanently failed op whose future was
  /// dropped — the engine polls this at iteration boundaries so write-back
  /// failures surface as IoError instead of dying silently in the queue.
  void rethrow_pending();

  /// Keeps the file on disk when this SwapFile is destroyed (by default the
  /// destructor unlinks it — swap space is transient). sh::ckpt flips this
  /// once a checkpoint generation's data has fully landed, turning the tier
  /// file into the durable artifact the rename-commit then publishes.
  void persist() noexcept { unlink_on_close_ = false; }

  /// fsync(2)s the backing file — called between "all writes landed" and the
  /// rename-commit so a crash after commit cannot expose unwritten blocks.
  /// Throws IoError{SyscallFailed} on failure.
  void sync();

  /// Placement of a key's region inside the backing file (offset + size in
  /// bytes). Checkpoint manifests record this so a restore can read tensors
  /// straight from the committed file. Throws IoError{UnknownKey}.
  struct RegionInfo {
    std::size_t offset;
    std::size_t bytes;
  };
  RegionInfo region_info(std::int64_t key) const;

  bool contains(std::int64_t key) const;
  std::size_t bytes_used() const;
  std::size_t capacity() const noexcept { return capacity_; }
  const std::string& path() const noexcept { return path_; }
  /// Completed asynchronous reads / writes (I/O-traffic counters).
  std::size_t reads_completed() const noexcept { return reads_.load(); }
  std::size_t writes_completed() const noexcept { return writes_.load(); }
  /// I/O jobs enqueued or executing right now (observability gauge).
  std::size_t queue_depth() const { return io_.queue_depth(); }

  /// Fault-injection observability.
  const FaultPlan& fault_plan() const noexcept { return plan_; }
  std::size_t retries_attempted() const noexcept { return retries_.load(); }
  std::size_t io_errors() const noexcept { return io_errors_.load(); }
  double retry_backoff_seconds() const noexcept {
    return static_cast<double>(backoff_nanos_.load()) * 1e-9;
  }

 private:
  struct Region {
    std::size_t offset;
    std::size_t bytes;
  };

  Region region_for(std::int64_t key, std::size_t bytes, bool create,
                    IoOp op);
  /// Queues one full-region read (into `rd_buf`) or write (from `wr_buf`)
  /// on the I/O worker with the FaultConfig's retry budget: a
  /// TransientIoError is retried after a backoff until the budget is spent
  /// and then becomes IoError{FaultBudgetExhausted}; any other error fails
  /// the op at once. Permanent failures are latched for rethrow_pending().
  std::shared_future<void> submit_io(IoOp op, std::int64_t key, Region r,
                                     char* rd_buf, const char* wr_buf);
  /// One faulted/healthy attempt of a full-region transfer. Applies the
  /// FaultDecision: EIO throws before any I/O, a short op transfers a
  /// prefix then throws (the retry redoes the idempotent full op), a
  /// latency spike sleeps after a successful transfer.
  void attempt_io(IoOp op, std::int64_t key, const Region& r, char* rd_buf,
                  const char* wr_buf, std::size_t attempt);
  void note_failure(const std::exception_ptr& err);

  std::string path_;
  std::size_t capacity_;
  int fd_ = -1;
  bool unlink_on_close_ = true;
  mutable std::mutex mu_;
  std::size_t next_offset_ = 0;
  std::unordered_map<std::int64_t, Region> regions_;
  std::atomic<std::size_t> reads_{0};
  std::atomic<std::size_t> writes_{0};
  FaultPlan plan_;
  std::atomic<std::size_t> retries_{0};
  std::atomic<std::size_t> io_errors_{0};
  std::atomic<std::uint64_t> backoff_nanos_{0};
  std::exception_ptr pending_error_;  // guarded by mu_
  std::uint64_t obs_provider_id_ = 0;
  hw::TransferEngine io_;  // FIFO async I/O worker; owns the throttle
};

}  // namespace sh::storage
