// Timeline resources for schedule construction.
//
// A Timeline models any serialized execution resource — a CUDA stream, one
// direction of the PCIe link, an NVMe queue, a network port, a CPU core. Work
// items are appended FIFO: an item that becomes ready at time `r` on a
// resource that is busy until `b` runs during [max(r, b), max(r, b) + d].
// Training-iteration schedules for every strategy in the paper are built by
// threading per-layer work through a handful of such timelines, which is what
// produces (or fails to produce) computation/communication overlap.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

namespace sh::sim {

/// Virtual time in seconds.
using Time = double;

struct Interval {
  Time start = 0.0;
  Time end = 0.0;
  double duration() const noexcept { return end - start; }
};

/// Serialized FIFO resource.
class Timeline {
 public:
  explicit Timeline(std::string name) : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }
  Time busy_until() const noexcept { return busy_until_; }
  double busy_time() const noexcept { return busy_time_; }

  /// Appends a work item that is ready at `ready` and takes `duration`.
  Interval acquire(Time ready, double duration) {
    const Time start = std::max(ready, busy_until_);
    busy_until_ = start + duration;
    busy_time_ += duration;
    return {start, busy_until_};
  }

  void reset() noexcept {
    busy_until_ = 0.0;
    busy_time_ = 0.0;
  }

 private:
  std::string name_;
  Time busy_until_ = 0.0;
  double busy_time_ = 0.0;  // total occupied time (utilisation numerator)
};

/// A Timeline with a bandwidth/latency cost function — PCIe, NVMe, network.
class BandwidthLink {
 public:
  BandwidthLink(std::string name, double bytes_per_second,
                double latency_seconds = 0.0)
      : timeline_(std::move(name)),
        bytes_per_second_(bytes_per_second),
        latency_(latency_seconds) {}

  double seconds_for(double bytes) const noexcept {
    return latency_ + bytes / bytes_per_second_;
  }

  Interval transfer(Time ready, double bytes) {
    return timeline_.acquire(ready, seconds_for(bytes));
  }

  Timeline& timeline() noexcept { return timeline_; }
  double bandwidth() const noexcept { return bytes_per_second_; }
  void reset() noexcept { timeline_.reset(); }

 private:
  Timeline timeline_;
  double bytes_per_second_;
  double latency_;
};

/// Pool of identical parallel lanes (CPU cores running optimizer actors,
/// concurrent CUDA streams). Work is dispatched to the earliest-free lane.
class LanePool {
 public:
  LanePool(std::string name, std::size_t lanes);

  Interval acquire(Time ready, double duration);
  std::size_t lanes() const noexcept { return busy_until_.size(); }
  Time busy_until() const noexcept {
    return *std::max_element(busy_until_.begin(), busy_until_.end());
  }
  void reset() noexcept {
    std::fill(busy_until_.begin(), busy_until_.end(), 0.0);
  }

 private:
  std::string name_;
  std::vector<Time> busy_until_;
};

}  // namespace sh::sim
