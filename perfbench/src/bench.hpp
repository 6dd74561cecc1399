// perfbench — the repository benchmark.
//
// One binary runs one named workload through the library's public API from a
// single driving thread and prints its metrics. With --trace 0 it measures
// the end-to-end metrics with the obs recorder off; with --trace 1 it runs
// the same workload untraced and then traced, and reports per-layer metrics
// from the recorded spans, the engines' stats, and probes that time public
// kernels at the workload's own shapes. Correctness checks run in both
// modes; the last line of stdout is the JSON result (see run.py).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"
#include "sim/trace.hpp"

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for swap files and Perfetto traces.
  std::string out_dir = ".";
};

/// Seconds on the library's monotonic clock (the one spans use).
double now();
/// Linearly interpolated percentile, q in [0, 1]; 0 for no samples.
double percentile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);
/// Peak resident set size of this process.
double peak_rss_bytes();

/// Host interference on a shared machine slows parts of a run. Timing
/// metrics are therefore computed on a steady sample: the run is cut into
/// consecutive chunks and the cheapest are kept. A change to the program
/// moves every chunk alike, so it still shows.
struct Range {
  std::size_t first = 0, last = 0;
};
/// The `keep` of `chunks` consecutive chunks of [0, n) with the lowest
/// cost(chunk), in order (every chunk when n < chunks).
std::vector<Range> steady_chunks(std::size_t n, std::size_t chunks,
                                 std::size_t keep,
                                 const std::function<double(Range)>& cost);
/// v[r.first, r.last).
std::vector<double> slice(const std::vector<double>& v, Range r);

/// Correctness bookkeeping and metrics of one run.
class Report {
 public:
  /// Counts `attempted` operations (steps, requests), `failed` of them.
  void ops(std::size_t attempted, std::size_t failed);
  /// A correctness check; a failing one counts as a failed attempt.
  void check(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
  /// A per-layer metric whose layer the workload does not run: reported as
  /// 0 with the reason printed beside it.
  void absent(const std::string& name, const std::string& unit,
              const std::string& why);
  std::size_t failed() const noexcept { return failed_; }
  /// Prints the JSON result as the last line of stdout.
  void print_result() const;

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Span statistics over one traced phase (the recorder is cleared when the
/// phase starts).
class SpanStats {
 public:
  explicit SpanStats(std::vector<sh::obs::Span> spans);
  /// Total duration of the spans on `track` (named `name`, if given).
  double sum_s(std::string_view track, std::string_view name = {}) const;
  std::size_t count(std::string_view track, std::string_view name = {}) const;
  /// Share of `a`'s busy time during which `b` is busy (union of spans).
  double overlap(const std::string& a, const std::string& b) const {
    return trace_.overlap_fraction(a, b);
  }

 private:
  std::vector<sh::obs::Span> spans_;
  sh::sim::Trace trace_;
};

/// Starts a traced phase: clears and enables the global recorder.
void begin_traced_phase();
/// Ends it: disables the recorder, writes the spans and the metrics registry
/// as a Perfetto trace to <out_dir>/<workload>-seed<seed>.trace.json, and
/// returns the span statistics.
SpanStats end_traced_phase(const Options& opt);

// Probes: the benchmark's own timing of public kernels at a workload's shapes
// (layers that record no span inside the program).

/// GFLOP/s of the twelve GEMMs of one transformer block's forward and
/// backward (QKV, attention output, MLP up and down) at `tokens` rows.
double probe_gemm_gflops(std::int64_t tokens, std::int64_t hidden);
/// Milliseconds of one fused causal attention forward plus backward.
double probe_attention_ms(std::int64_t batch, std::int64_t heads,
                          std::int64_t seq, std::int64_t hidden);
struct DtypeRates {
  double encode_sr_gbps = 0.0;   ///< f32 -> bf16, stochastic rounding
  double encode_rne_gbps = 0.0;  ///< f32 -> bf16, round-to-nearest-even
  double decode_gbps = 0.0;      ///< bf16 -> f32
};
/// Conversion bandwidth in GB/s of f32 bytes over `numel` elements.
DtypeRates probe_dtype(std::size_t numel, std::uint64_t seed);
/// Milliseconds for `world` threads to all-reduce one gradient buffer per
/// layer unit (sizes in floats), in layer order, through one ProcessGroup.
double probe_allreduce_ms(int world, const std::vector<std::size_t>& units);

void run_train_dense(const Options& opt, Report& report);
void run_train_offload(const Options& opt, Report& report);
void run_train_dp4(const Options& opt, Report& report);
void run_serve_open_loop(const Options& opt, Report& report);

}  // namespace pb
