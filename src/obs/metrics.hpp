// sh::obs metrics — histograms and the process-wide snapshot registry that
// absorbs the runtime's scattered stat surfaces.
//
// The registry is PULL-based: subsystems register a provider callback that
// appends (name, value, unit) rows when a snapshot is taken, so steady-state
// execution pays nothing — existing accessors (EngineStats, serve latency
// percentiles, SwapFile counters) keep working and are additionally exported
// through one obs::Registry::global().snapshot() surface. Benches serialize
// snapshots with obs::write_metrics_json (src/obs/export.hpp).
//
// Metric naming schema (prefixes, units) is documented in
// docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sh::obs {

/// Sample-storing distribution with interpolated percentiles — the one
/// implementation of "sort the samples and take p50/p99" (serve request
/// latency previously hand-rolled this).
class Histogram {
 public:
  void record(double v);
  std::size_t count() const;
  double sum() const;
  /// Linearly interpolated percentile, q in [0, 1] (0.5 = p50, 0.99 = p99).
  /// Returns 0 with no samples.
  double percentile(double q) const;

 private:
  mutable std::mutex mu_;
  std::vector<double> samples_;
};

struct Metric {
  std::string name;   ///< dotted path, e.g. "engine.h2d_bytes"
  double value = 0.0;
  std::string unit;   ///< "bytes", "count", "s", "layers", "" (dimensionless)
};

struct MetricsSnapshot {
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit = "count") {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// First metric with `name` (nullptr if absent). Snapshot rows keep
  /// provider registration order; duplicate names are allowed (two engines).
  const Metric* find(const std::string& name) const;
};

/// Snapshot aggregator. Subsystems register providers at construction and
/// remove them in their destructor (before tearing anything the callback
/// touches). Providers run under the registry lock: after remove_provider
/// returns, the callback will never run again.
class Registry {
 public:
  static Registry& global();

  using Provider = std::function<void(MetricsSnapshot&)>;

  std::uint64_t add_provider(Provider p);
  void remove_provider(std::uint64_t id);
  std::size_t provider_count() const;

  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::vector<std::pair<std::uint64_t, Provider>> providers_;
};

}  // namespace sh::obs
