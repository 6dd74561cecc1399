// In-process process group: ranks are threads, collectives move real data.
//
// This substitutes for NCCL/Gloo in the paper. Determinism matters for the
// equivalence tests, so every reduced element is 0.0f + x_0 + ... + x_{w-1},
// added in rank order whatever the world size or chunking.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

namespace sh::dist {

/// Thrown by Barrier::arrive_and_wait once the barrier has been aborted.
class Aborted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A reusable sense-reversing barrier for `world` participants.
class Barrier {
 public:
  explicit Barrier(int world);
  void arrive_and_wait();
  /// Fails the barrier for good: current and later waiters throw Aborted,
  /// so a participant that dies cannot leave its peers parked.
  void abort();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int world_;
  int waiting_ = 0;
  std::uint64_t generation_ = 0;
  bool aborted_ = false;
};

/// Runs body(0), ..., body(n-1) concurrently and fail-stop: index 0 on the
/// calling thread, every other index on a thread of its own. A body that
/// throws calls `abort`, which must release the other bodies from their
/// waits (Barrier::abort, ProcessGroup::abort). Every thread is joined
/// before anything is rethrown: the lowest-index error that is not Aborted,
/// else the lowest-index Aborted, since a participant's own failure
/// outranks the Aborted it caused in its peers.
void run_fail_stop(std::size_t n, const std::function<void(std::size_t)>& body,
                   const std::function<void()>& abort);

/// Collective communication over `world` rank-threads. Every rank must call
/// each collective exactly once per round, like MPI/NCCL communicators.
/// Ranks read each other's buffers directly, so different ranks' buffers
/// must not overlap. Reductions are owner-chunked: of N elements, rank r
/// sums [N*r/w, N*(r+1)/w) of every rank's buffer. Buffer sizes are compared
/// across ranks after the first barrier; on a mismatch every rank throws
/// std::invalid_argument and none reads a peer's buffer.
class ProcessGroup {
 public:
  explicit ProcessGroup(int world);

  int world() const noexcept { return world_; }

  /// Element-wise sum across ranks; every rank ends with the full sum.
  /// Reduce-scatter into each owner's chunk of its own buffer, then
  /// all-gather of the other owners' chunks: three barriers.
  void all_reduce_sum(int rank, std::span<float> data);

  void barrier(int rank);

  /// Fails the group for good: ranks inside or entering a collective throw
  /// Aborted, so a rank that dies cannot leave its peers parked.
  void abort() { barrier_.abort(); }

  /// Total floats moved through collectives (communication volume counter,
  /// used by the Section VI-D2 experiments).
  std::size_t floats_communicated() const;

 private:
  /// What one rank hands to a collective, read by its peers between the
  /// enter and exit barriers.
  struct Peer {
    const float* in = nullptr;
    std::size_t size = 0;
  };

  void check_rank(int rank) const;
  /// Publishes this rank's buffer, waits for every rank, then checks that
  /// all agree on its size. Otherwise every rank passes one more barrier (so
  /// nobody republishes while a peer still validates) and throws
  /// std::invalid_argument.
  void enter(int rank, const Peer& self);
  /// Writes, into `out`, elements [lo, hi) of the rank-order sum of every
  /// rank's published buffer.
  void sum_chunk(std::size_t lo, std::size_t hi, float* out) const;

  int world_;
  Barrier barrier_;
  std::vector<Peer> peers_;
  std::atomic<std::size_t> floats_communicated_{0};
};

}  // namespace sh::dist
