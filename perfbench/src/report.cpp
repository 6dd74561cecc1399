#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>

#include "bench.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace pb {

double now() { return sh::obs::wall_seconds(); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;  // Linux: KiB
}

std::vector<Range> steady_chunks(std::size_t n, std::size_t chunks,
                                 std::size_t keep,
                                 const std::function<double(Range)>& cost) {
  const std::size_t k = std::min(chunks, n);
  std::vector<Range> all;
  for (std::size_t c = 0; c < k; ++c) all.push_back({c * n / k, (c + 1) * n / k});
  if (k < chunks) return all;
  std::vector<double> costs;
  for (const Range& r : all) costs.push_back(cost(r));
  std::vector<std::size_t> order(k);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return costs[a] < costs[b]; });
  order.resize(keep);
  std::sort(order.begin(), order.end());
  std::vector<Range> kept;
  for (const std::size_t c : order) kept.push_back(all[c]);
  return kept;
}

std::vector<double> slice(const std::vector<double>& v, Range r) {
  return {v.begin() + static_cast<std::ptrdiff_t>(r.first),
          v.begin() + static_cast<std::ptrdiff_t>(r.last)};
}

void Report::ops(std::size_t attempted, std::size_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::check(bool ok, const std::string& what) {
  std::printf("check %s: %s\n", ok ? "ok" : "FAILED", what.c_str());
  ops(1, ok ? 0 : 1);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  std::printf("  %-34s %16.6f %s\n", name.c_str(), value, unit.c_str());
  rows_.push_back({name, value, unit});
}

void Report::absent(const std::string& name, const std::string& unit,
                    const std::string& why) {
  std::printf("  %-34s %16s %s  (absent: %s)\n", name.c_str(), "0",
              unit.c_str(), why.c_str());
  rows_.push_back({name, 0.0, unit});
}

void Report::print_result() const {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              failed_ == 0 && attempted_ > 0 ? "true" : "false", attempted_,
              failed_);
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", rows_[i].name.c_str(), rows_[i].value,
                rows_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

SpanStats::SpanStats(std::vector<sh::obs::Span> spans)
    : spans_(std::move(spans)), trace_(sh::obs::to_sim_trace(spans_)) {}

double SpanStats::sum_s(std::string_view track, std::string_view name) const {
  double total = 0.0;
  for (const auto& s : spans_) {
    if (s.track == track && (name.empty() || s.name == name)) {
      total += s.duration();
    }
  }
  return total;
}

std::size_t SpanStats::count(std::string_view track,
                             std::string_view name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(), [&](const auto& s) {
        return s.track == track && (name.empty() || s.name == name);
      }));
}

void begin_traced_phase() {
  auto& rec = sh::obs::Recorder::global();
  rec.clear();
  rec.set_enabled(true);
}

SpanStats end_traced_phase(const Options& opt) {
  auto& rec = sh::obs::Recorder::global();
  rec.set_enabled(false);
  std::vector<sh::obs::Span> spans = rec.snapshot();
  const sh::obs::MetricsSnapshot metrics =
      sh::obs::Registry::global().snapshot();
  const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".trace.json";
  std::ofstream os(path);
  sh::obs::write_chrome_trace(os, spans, nullptr, &metrics);
  std::printf("trace: %zu spans written to %s\n", spans.size(), path.c_str());
  rec.clear();
  return SpanStats(std::move(spans));
}

}  // namespace pb
