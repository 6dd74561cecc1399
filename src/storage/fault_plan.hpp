// Fault injection for the secondary-storage tier (Section III-G).
//
// At billion scale the NVMe tier is a fallible bandwidth domain, not a
// perfect byte store: real devices exhibit latency spikes, short reads and
// writes, and transient EIO-style failures. A FaultPlan is a seeded,
// deterministic oracle the SwapFile consults before every I/O attempt; the
// decision is a pure function of (seed, key, op kind, per-key op sequence,
// attempt number), so a run with the same op sequence injects the same
// faults — which is what lets the tests assert bit-identical training
// results under injected faults.
//
// Recovery contract: injected faults throw TransientIoError (is-a IoError);
// the SwapFile's retry loop, which runs on its I/O worker, re-attempts the op
// with exponential backoff up to FaultConfig::max_attempts. Because every swap op is an
// idempotent pread/pwrite at a fixed region offset, a retry never changes
// the bytes that eventually land. When the attempt budget is exhausted the
// final error is rethrown as IoError{FaultBudgetExhausted} — the typed
// error the engine surfaces from train_step so a trainer can checkpoint.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace sh::storage {

enum class IoOp { Read, Write };

enum class IoErrorKind {
  TransientFault,        ///< injected EIO / short op (retryable)
  FaultBudgetExhausted,  ///< bounded retries used up; op permanently failed
  SizeMismatch,          ///< rewrite/read size differs from the region size
  UnknownKey,            ///< read of a key that was never written
  CapacityExceeded,      ///< region allocation past the configured capacity
  SyscallFailed,         ///< real pread/pwrite failure (not injected)
};

/// Typed storage-tier error. Everything the SwapFile throws derives from
/// this, so callers can catch one type and branch on kind().
class IoError : public std::runtime_error {
 public:
  IoError(IoErrorKind kind, const std::string& what, IoOp op = IoOp::Read,
          std::int64_t key = -1, std::size_t attempts = 0)
      : std::runtime_error(what),
        kind_(kind),
        op_(op),
        key_(key),
        attempts_(attempts) {}

  IoErrorKind kind() const noexcept { return kind_; }
  IoOp op() const noexcept { return op_; }
  std::int64_t key() const noexcept { return key_; }
  /// Attempts performed when the error was raised (0 when not applicable).
  std::size_t attempts() const noexcept { return attempts_; }

 private:
  IoErrorKind kind_;
  IoOp op_;
  std::int64_t key_;
  std::size_t attempts_;
};

/// Retryable injected fault — the retry loop re-attempts exactly these.
class TransientIoError : public IoError {
 public:
  using IoError::IoError;
};

/// What the plan injects into one I/O attempt.
enum class FaultKind { None, LatencySpike, ShortOp, TransientError };

struct FaultDecision {
  FaultKind kind = FaultKind::None;
  double extra_latency_s = 0.0;  ///< LatencySpike: added service time
  double short_fraction = 0.0;   ///< ShortOp: fraction transferred before cut
};

/// Knobs for the fault plan and the retry budget. Every field has an
/// SH_FAULT_* environment override (see fault_config_from_env / README).
struct FaultConfig {
  /// Per-attempt probability of injecting any fault; 0 disables the plan.
  double rate = 0.0;
  std::uint64_t seed = 0x5eedf00dULL;
  /// Relative mix of the three fault kinds (zero weight disables a kind).
  double latency_weight = 1.0;
  double short_weight = 1.0;
  double error_weight = 1.0;
  /// Added service time of a latency spike (the op still succeeds).
  double latency_spike_s = 1e-3;
  /// Consecutive attempts of ONE op that may fault; the next attempt is
  /// forced healthy. SIZE_MAX models a permanently failing device.
  std::size_t max_faults_per_op = 2;
  /// Restrict injection to one direction (budget-exhaustion tests arm reads
  /// only so parameter initialisation can still seed the tier).
  bool fault_reads = true;
  bool fault_writes = true;

  // Retry budget and backoff of SwapFile's retry loop.
  std::size_t max_attempts = 4;  ///< total tries per op (1 = no retry)
  double backoff_initial_s = 2e-4;
  double backoff_multiplier = 2.0;
  double backoff_max_s = 5e-3;

  bool enabled() const noexcept { return rate > 0.0; }
};

/// Applies SH_FAULT_* environment overrides on top of `base`:
///   SH_FAULT_RATE, SH_FAULT_SEED, SH_FAULT_LATENCY_SPIKE_S,
///   SH_FAULT_MAX_FAULTS_PER_OP, SH_FAULT_MAX_ATTEMPTS, SH_FAULT_BACKOFF_S.
/// Lets any bench or example run against an unhealthy tier with no code
/// changes (mirrors the SH_TRACE hook in sh::obs).
FaultConfig fault_config_from_env(FaultConfig base = {});

class FaultPlan {
 public:
  explicit FaultPlan(FaultConfig cfg) : cfg_(cfg) {}

  /// Decides the fault (if any) for attempt `attempt` (0-based) of the next
  /// op on (key, op). Deterministic given the op sequence; thread-safe.
  FaultDecision decide(IoOp op, std::int64_t key, std::size_t attempt);

  /// Per-kind injection counters (exported via the SwapFile obs provider).
  struct Counters {
    std::uint64_t ops = 0;  ///< attempts consulted (healthy or not)
    std::uint64_t latency_spikes = 0;
    std::uint64_t short_reads = 0;
    std::uint64_t short_writes = 0;
    std::uint64_t eio_reads = 0;
    std::uint64_t eio_writes = 0;
    std::uint64_t faults_total = 0;
  };
  Counters counters() const;

  const FaultConfig& config() const noexcept { return cfg_; }

 private:
  FaultConfig cfg_;
  std::mutex mu_;  // guards seq_
  std::unordered_map<std::uint64_t, std::uint64_t> seq_;  // (key,op) -> ops
  std::atomic<std::uint64_t> ops_{0};
  std::atomic<std::uint64_t> latency_spikes_{0};
  std::atomic<std::uint64_t> short_reads_{0};
  std::atomic<std::uint64_t> short_writes_{0};
  std::atomic<std::uint64_t> eio_reads_{0};
  std::atomic<std::uint64_t> eio_writes_{0};
  std::atomic<std::uint64_t> faults_{0};
};

}  // namespace sh::storage
