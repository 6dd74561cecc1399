#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <vector>

#include "obs/obs.hpp"
#include "storage/fault_plan.hpp"
#include "storage/swap_file.hpp"

namespace sh::storage {
namespace {

std::string tmp_path(const std::string& tag) {
  return ::testing::TempDir() + "swapfile_" + tag + ".bin";
}

/// A plan that faults every attempt (rate 1) of the selected kind, with
/// fast backoff, bounded so the retry budget always recovers.
FaultConfig faulty(FaultKind kind, IoOp op) {
  FaultConfig fc;
  fc.rate = 1.0;
  fc.seed = 7;
  fc.latency_weight = kind == FaultKind::LatencySpike ? 1.0 : 0.0;
  fc.short_weight = kind == FaultKind::ShortOp ? 1.0 : 0.0;
  fc.error_weight = kind == FaultKind::TransientError ? 1.0 : 0.0;
  fc.latency_spike_s = 1e-4;
  fc.max_faults_per_op = 2;  // attempts 0,1 fault; attempt 2 succeeds
  fc.max_attempts = 4;
  fc.backoff_initial_s = 1e-5;
  fc.fault_reads = op == IoOp::Read;
  fc.fault_writes = op == IoOp::Write;
  return fc;
}

TEST(SwapFile, WriteReadRoundTrip) {
  SwapFile swap(tmp_path("roundtrip"));
  std::vector<float> data(257);
  std::iota(data.begin(), data.end(), 0.0f);
  swap.write(1, data);
  std::vector<float> out(257, -1.0f);
  swap.read(1, out);
  EXPECT_EQ(out, data);
}

TEST(SwapFile, MultipleKeysGetDisjointRegions) {
  SwapFile swap(tmp_path("multikey"));
  std::vector<float> a(64, 1.0f), b(64, 2.0f), c(32, 3.0f);
  swap.write(10, a);
  swap.write(20, b);
  swap.write(30, c);
  EXPECT_EQ(swap.bytes_used(), (64u + 64u + 32u) * sizeof(float));
  std::vector<float> out(64);
  swap.read(10, out);
  EXPECT_EQ(out[0], 1.0f);
  swap.read(20, out);
  EXPECT_EQ(out[63], 2.0f);
}

TEST(SwapFile, RewriteUpdatesInPlace) {
  SwapFile swap(tmp_path("rewrite"));
  std::vector<float> v1(16, 1.0f), v2(16, 9.0f);
  swap.write(5, v1);
  const std::size_t used = swap.bytes_used();
  swap.write(5, v2);
  EXPECT_EQ(swap.bytes_used(), used);  // no new region
  std::vector<float> out(16);
  swap.read(5, out);
  EXPECT_EQ(out[7], 9.0f);
}

TEST(SwapFile, SizeMismatchIsTypedErrorAndRegionIntact) {
  // Regression for the rewrite-size footgun: a mismatched rewrite must be a
  // typed IoError raised before anything is queued — the stored bytes (and
  // the neighbouring region) stay intact.
  SwapFile swap(tmp_path("mismatch"));
  std::vector<float> v(16, 1.0f), neighbour(16, 5.0f);
  swap.write(1, v);
  swap.write(2, neighbour);
  std::vector<float> smaller(8), larger(24, 9.0f);
  const std::size_t used = swap.bytes_used();
  try {
    swap.write(1, larger);
    FAIL() << "mismatched rewrite did not throw";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::SizeMismatch);
    EXPECT_EQ(e.op(), IoOp::Write);
    EXPECT_EQ(e.key(), 1);
  }
  EXPECT_THROW(swap.write(1, smaller), IoError);
  EXPECT_THROW(swap.read(1, smaller), IoError);
  EXPECT_EQ(swap.bytes_used(), used);  // no region grew or moved
  std::vector<float> out(16);
  swap.read(1, out);
  EXPECT_EQ(out, v);
  swap.read(2, out);
  EXPECT_EQ(out, neighbour);
}

TEST(SwapFile, ReadUnknownKeyThrows) {
  SwapFile swap(tmp_path("unknown"));
  std::vector<float> out(4);
  try {
    swap.read(99, out);
    FAIL() << "unknown key did not throw";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::UnknownKey);
    EXPECT_EQ(e.key(), 99);
  }
}

TEST(SwapFile, CapacityEnforced) {
  SwapFile swap(tmp_path("capacity"), 100 * sizeof(float));
  std::vector<float> v(60, 1.0f);
  swap.write(1, v);
  try {
    swap.write(2, v);  // 120 > 100 floats
    FAIL() << "capacity overflow did not throw";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::CapacityExceeded);
  }
  EXPECT_TRUE(swap.contains(1));
  EXPECT_FALSE(swap.contains(2));
}

TEST(SwapFile, AsyncWritesAreFifoAndOverlapCaller) {
  SwapFile swap(tmp_path("async"), 0, 2e6);  // throttle: 2 MB/s
  std::vector<float> data(25000, 4.0f);      // 100 KB -> 0.05 s per op
  const auto t0 = std::chrono::steady_clock::now();
  auto f1 = swap.write_async(1, data);
  auto f2 = swap.write_async(2, data);
  const double submit =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(submit, 0.04);  // caller not blocked
  f1.get();
  f2.get();
  std::vector<float> out(25000);
  swap.read(2, out);
  EXPECT_EQ(out[100], 4.0f);
}

TEST(SwapFile, ManyKeysStress) {
  SwapFile swap(tmp_path("stress"));
  for (std::int64_t k = 0; k < 50; ++k) {
    std::vector<float> v(128, static_cast<float>(k));
    swap.write_async(k, v).get();
  }
  for (std::int64_t k = 49; k >= 0; --k) {
    std::vector<float> out(128);
    swap.read(k, out);
    EXPECT_EQ(out[0], static_cast<float>(k));
    EXPECT_EQ(out[127], static_cast<float>(k));
  }
}

// --- Fault injection ---------------------------------------------------------

struct FaultCase {
  FaultKind kind;
  IoOp op;
  bool async;
};

std::string fault_case_name(const ::testing::TestParamInfo<FaultCase>& info) {
  std::string name;
  switch (info.param.kind) {
    case FaultKind::LatencySpike: name = "Latency"; break;
    case FaultKind::ShortOp: name = "Short"; break;
    case FaultKind::TransientError: name = "Eio"; break;
    case FaultKind::None: name = "None"; break;
  }
  name += info.param.op == IoOp::Read ? "Read" : "Write";
  name += info.param.async ? "Async" : "Sync";
  return name;
}

class SwapFaultMatrix : public ::testing::TestWithParam<FaultCase> {};

TEST_P(SwapFaultMatrix, RecoversWithDataIntact) {
  const FaultCase& c = GetParam();
  SwapFile swap(tmp_path("matrix_" + fault_case_name({GetParam(), 0})), 0, 0.0,
                faulty(c.kind, c.op));
  // Three keyed ops per direction so the plan's per-(key,op) sequence and the
  // retry path both get exercised more than once.
  std::vector<std::vector<float>> blobs;
  for (std::int64_t k = 0; k < 3; ++k) {
    std::vector<float> v(256);
    std::iota(v.begin(), v.end(), static_cast<float>(k) * 1000.0f);
    if (c.async) {
      swap.write_async(k, v).get();
    } else {
      swap.write(k, v);
    }
    blobs.push_back(std::move(v));
  }
  for (std::int64_t k = 0; k < 3; ++k) {
    std::vector<float> out(256, -1.0f);
    if (c.async) {
      swap.read_async(k, out).get();
    } else {
      swap.read(k, out);
    }
    EXPECT_EQ(out, blobs[static_cast<std::size_t>(k)])
        << "corrupt data after recovery, key " << k;
  }

  // With rate 1 and max_faults_per_op 2, every op in the armed direction
  // faults on attempts 0 and 1 and recovers on attempt 2.
  const FaultPlan::Counters cnt = swap.fault_plan().counters();
  EXPECT_GT(cnt.faults_total, 0u);
  EXPECT_EQ(swap.io_errors(), 0u) << "all faults should have been recovered";
  switch (c.kind) {
    case FaultKind::LatencySpike:
      // The op still succeeds (just slowly): no retries consumed.
      EXPECT_EQ(cnt.latency_spikes, 3u);
      EXPECT_EQ(swap.retries_attempted(), 0u);
      break;
    case FaultKind::ShortOp:
      EXPECT_EQ(c.op == IoOp::Read ? cnt.short_reads : cnt.short_writes, 6u);
      EXPECT_EQ(c.op == IoOp::Read ? cnt.short_writes : cnt.short_reads, 0u);
      EXPECT_EQ(swap.retries_attempted(), 6u);
      EXPECT_GT(swap.retry_backoff_seconds(), 0.0);
      break;
    case FaultKind::TransientError:
      EXPECT_EQ(c.op == IoOp::Read ? cnt.eio_reads : cnt.eio_writes, 6u);
      EXPECT_EQ(c.op == IoOp::Read ? cnt.eio_writes : cnt.eio_reads, 0u);
      EXPECT_EQ(swap.retries_attempted(), 6u);
      EXPECT_GT(swap.retry_backoff_seconds(), 0.0);
      break;
    case FaultKind::None:
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsOpsModes, SwapFaultMatrix,
    ::testing::Values(
        FaultCase{FaultKind::LatencySpike, IoOp::Read, false},
        FaultCase{FaultKind::LatencySpike, IoOp::Read, true},
        FaultCase{FaultKind::LatencySpike, IoOp::Write, false},
        FaultCase{FaultKind::LatencySpike, IoOp::Write, true},
        FaultCase{FaultKind::ShortOp, IoOp::Read, false},
        FaultCase{FaultKind::ShortOp, IoOp::Read, true},
        FaultCase{FaultKind::ShortOp, IoOp::Write, false},
        FaultCase{FaultKind::ShortOp, IoOp::Write, true},
        FaultCase{FaultKind::TransientError, IoOp::Read, false},
        FaultCase{FaultKind::TransientError, IoOp::Read, true},
        FaultCase{FaultKind::TransientError, IoOp::Write, false},
        FaultCase{FaultKind::TransientError, IoOp::Write, true}),
    fault_case_name);

TEST(FaultPlan, SameSeedSameDecisions) {
  FaultConfig fc;
  fc.rate = 0.5;
  fc.seed = 42;
  FaultPlan a(fc), b(fc);
  FaultConfig other = fc;
  other.seed = 43;
  FaultPlan c(other);
  std::size_t differing = 0;
  std::size_t faulted = 0;
  for (int i = 0; i < 200; ++i) {
    const IoOp op = (i % 3 == 0) ? IoOp::Write : IoOp::Read;
    const std::int64_t key = i % 5;
    const std::size_t attempt = static_cast<std::size_t>(i % 2);
    const FaultDecision da = a.decide(op, key, attempt);
    const FaultDecision db = b.decide(op, key, attempt);
    const FaultDecision dc = c.decide(op, key, attempt);
    EXPECT_EQ(da.kind, db.kind) << "op " << i;
    EXPECT_EQ(da.extra_latency_s, db.extra_latency_s) << "op " << i;
    EXPECT_EQ(da.short_fraction, db.short_fraction) << "op " << i;
    if (da.kind != dc.kind) ++differing;
    if (da.kind != FaultKind::None) ++faulted;
  }
  EXPECT_GT(faulted, 0u) << "rate 0.5 over 200 ops must inject something";
  EXPECT_GT(differing, 0u) << "a different seed must change the plan";
  EXPECT_EQ(a.counters().faults_total, b.counters().faults_total);
}

TEST(FaultPlan, ShortFractionIsProperPrefix) {
  FaultConfig fc;
  fc.rate = 1.0;
  fc.latency_weight = 0.0;
  fc.error_weight = 0.0;
  FaultPlan plan(fc);
  for (int i = 0; i < 100; ++i) {
    const FaultDecision d = plan.decide(IoOp::Read, i, 0);
    ASSERT_EQ(d.kind, FaultKind::ShortOp);
    EXPECT_GT(d.short_fraction, 0.0);
    EXPECT_LT(d.short_fraction, 1.0);
  }
}

TEST(SwapFile, FaultBudgetExhaustedIsTypedError) {
  // max_faults_per_op = SIZE_MAX models a permanently failing device: the
  // bounded retry budget runs out and the caller sees a typed IoError
  // instead of an abort or a silent hang.
  FaultConfig fc = faulty(FaultKind::TransientError, IoOp::Read);
  fc.max_faults_per_op = std::numeric_limits<std::size_t>::max();
  fc.max_attempts = 3;
  SwapFile swap(tmp_path("budget"), 0, 0.0, fc);
  std::vector<float> v(64, 2.0f);
  swap.write(1, v);  // writes stay healthy: the tier can be seeded
  std::vector<float> out(64, -1.0f);
  try {
    swap.read(1, out);
    FAIL() << "permanently failing read did not throw";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::FaultBudgetExhausted);
    EXPECT_EQ(e.op(), IoOp::Read);
    EXPECT_EQ(e.key(), 1);
    EXPECT_EQ(e.attempts(), 3u);
  }
  EXPECT_EQ(swap.io_errors(), 1u);
  EXPECT_EQ(swap.retries_attempted(), 2u);  // attempts 1 and 2
}

TEST(SwapFile, DroppedFutureFailureLatchedForRethrowPending) {
  // Fire-and-forget write-backs drop their futures; a permanent failure must
  // be latched and surface from rethrow_pending() instead of vanishing.
  FaultConfig fc = faulty(FaultKind::TransientError, IoOp::Write);
  fc.max_faults_per_op = std::numeric_limits<std::size_t>::max();
  fc.max_attempts = 2;
  SwapFile swap(tmp_path("latch"), 0, 0.0, fc);
  std::vector<float> v(64, 3.0f);
  { auto dropped = swap.write_async(1, v); }  // future discarded
  swap.wait_all();
  EXPECT_EQ(swap.io_errors(), 1u);
  try {
    swap.rethrow_pending();
    FAIL() << "latched failure was not rethrown";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::FaultBudgetExhausted);
    EXPECT_EQ(e.op(), IoOp::Write);
    EXPECT_EQ(e.key(), 1);
  }
  swap.rethrow_pending();  // take-and-clear: second poll is a no-op
}

TEST(SwapFile, JoinAsyncCarriesFirstFailure) {
  // LayerStore joins the params+opt pair through this: a failed first op
  // must not be masked by a healthy second op.
  FaultConfig fc = faulty(FaultKind::TransientError, IoOp::Read);
  fc.max_faults_per_op = std::numeric_limits<std::size_t>::max();
  fc.max_attempts = 2;
  SwapFile swap(tmp_path("join"), 0, 0.0, fc);
  std::vector<float> v(64, 4.0f);
  swap.write(1, v);
  std::vector<float> out(64, -1.0f);
  auto failing = swap.read_async(1, out);       // exhausts its budget
  auto healthy = swap.write_async(2, v);        // writes are not armed
  auto joined = swap.join_async({failing, healthy});
  EXPECT_THROW(joined.get(), IoError);
  healthy.get();  // the healthy op itself completed fine
  EXPECT_TRUE(swap.contains(2));
  // The latch records exhausted ops regardless of who holds the future.
  EXPECT_THROW(swap.rethrow_pending(), IoError);
}

/// Number of (track, name) spans in the global recorder.
std::size_t count_spans(const char* track, const char* name) {
  std::size_t n = 0;
  for (const obs::Span& s : obs::Recorder::global().snapshot()) {
    if (s.track == track && s.name == name) ++n;
  }
  return n;
}

/// Enables the global recorder for one test and leaves it off and empty.
class RecorderOn {
 public:
  RecorderOn() {
    obs::Recorder::global().clear();
    obs::Recorder::global().set_enabled(true);
  }
  ~RecorderOn() {
    obs::Recorder::global().set_enabled(false);
    obs::Recorder::global().clear();
  }
};

TEST(SwapFile, RetryAccountingCountsEveryRetryAndCappedBackoff) {
  // Reads fault on attempts 0-2 and recover on attempt 3, so each read
  // retries three times. The backoff doubles from 1e-4 s and is capped at
  // 3e-4 s: 1e-4 + 2e-4 + 3e-4 per read.
  FaultConfig fc = faulty(FaultKind::TransientError, IoOp::Read);
  fc.max_faults_per_op = 3;
  fc.max_attempts = 5;
  fc.backoff_initial_s = 1e-4;
  fc.backoff_multiplier = 2.0;
  fc.backoff_max_s = 3e-4;
  RecorderOn recorder;
  SwapFile swap(tmp_path("retry_accounting"), 0, 0.0, fc);
  std::vector<float> v(64, 5.0f);
  constexpr std::int64_t kReads = 2;
  for (std::int64_t k = 0; k < kReads; ++k) swap.write(k, v);
  for (std::int64_t k = 0; k < kReads; ++k) {
    std::vector<float> out(64, -1.0f);
    swap.read_async(k, out).get();
    EXPECT_EQ(out, v);
  }
  swap.wait_all();

  double per_read = 0.0;
  double backoff = fc.backoff_initial_s;
  for (int retry = 0; retry < 3; ++retry) {
    per_read += backoff;
    backoff = std::min(backoff * fc.backoff_multiplier, fc.backoff_max_s);
  }
  EXPECT_EQ(swap.retries_attempted(), 3u * kReads);
  EXPECT_NEAR(swap.retry_backoff_seconds(), per_read * kReads, 1e-8);
  EXPECT_EQ(swap.io_errors(), 0u);
  EXPECT_EQ(count_spans("swap", "retry"), 3u * kReads);
  EXPECT_EQ(count_spans("swap", "read"), 4u * kReads);  // one per attempt
  EXPECT_EQ(count_spans("swap", "write"), static_cast<std::size_t>(kReads));
}

TEST(SwapFile, ZeroBackoffRetryRecordsAnInstant) {
  FaultConfig fc = faulty(FaultKind::TransientError, IoOp::Write);
  fc.backoff_initial_s = 0.0;
  RecorderOn recorder;
  SwapFile swap(tmp_path("retry_instant"), 0, 0.0, fc);
  std::vector<float> v(64, 6.0f);
  swap.write(1, v);
  EXPECT_EQ(swap.retries_attempted(), 2u);
  EXPECT_EQ(swap.retry_backoff_seconds(), 0.0);
  std::size_t instants = 0;
  for (const obs::Span& s : obs::Recorder::global().snapshot()) {
    if (s.track == "swap" && s.name == "retry" && s.instant) ++instants;
  }
  EXPECT_EQ(instants, 2u);
  EXPECT_EQ(count_spans("swap", "write"), 3u);
}

TEST(SwapFile, StructuralFailureIsNotRetriedButLatched) {
  // A file truncated behind the tier's back makes pread return 0: a real
  // syscall failure, not an injected fault. It must not consume the retry
  // budget or count as an exhausted one, and a dropped future must not lose
  // it.
  SwapFile swap(tmp_path("structural"), 0, 0.0, FaultConfig{});
  ASSERT_GT(swap.fault_plan().config().max_attempts, 1u);
  std::vector<float> v(64, 7.0f);
  swap.write(1, v);
  ASSERT_EQ(::truncate(swap.path().c_str(), 0), 0);
  std::vector<float> out(64, -1.0f);
  try {
    swap.read_async(1, out).get();
    FAIL() << "read of a truncated region did not throw";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::SyscallFailed);
    EXPECT_EQ(e.op(), IoOp::Read);
    EXPECT_EQ(e.key(), 1);
    EXPECT_EQ(e.attempts(), 1u);
  }
  EXPECT_EQ(swap.retries_attempted(), 0u);
  EXPECT_EQ(swap.io_errors(), 0u);
  try {
    swap.rethrow_pending();
    FAIL() << "structural failure was not latched";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::SyscallFailed);
  }
  swap.rethrow_pending();  // take-and-clear
}

TEST(SwapFile, HealthyPlanInjectsNothing) {
  SwapFile swap(tmp_path("healthy"), 0, 0.0, FaultConfig{});
  std::vector<float> v(128, 1.5f);
  for (std::int64_t k = 0; k < 4; ++k) swap.write(k, v);
  std::vector<float> out(128);
  for (std::int64_t k = 0; k < 4; ++k) swap.read(k, out);
  EXPECT_EQ(swap.fault_plan().counters().faults_total, 0u);
  EXPECT_EQ(swap.retries_attempted(), 0u);
  EXPECT_EQ(swap.io_errors(), 0u);
}

TEST(FaultConfig, EnvOverridesApply) {
  ::setenv("SH_FAULT_RATE", "0.25", 1);
  ::setenv("SH_FAULT_SEED", "123", 1);
  ::setenv("SH_FAULT_MAX_ATTEMPTS", "7", 1);
  FaultConfig fc = fault_config_from_env();
  EXPECT_DOUBLE_EQ(fc.rate, 0.25);
  EXPECT_EQ(fc.seed, 123u);
  EXPECT_EQ(fc.max_attempts, 7u);
  ::unsetenv("SH_FAULT_RATE");
  ::unsetenv("SH_FAULT_SEED");
  ::unsetenv("SH_FAULT_MAX_ATTEMPTS");
  FaultConfig base;
  base.rate = 0.5;
  EXPECT_DOUBLE_EQ(fault_config_from_env(base).rate, 0.5);
}

}  // namespace
}  // namespace sh::storage
