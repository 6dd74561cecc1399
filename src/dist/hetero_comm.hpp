// Heterogeneous collective communications (Section III-E2).
//
// Native frameworks allow only one tensor kind (CPU or CUDA) in a collective
// at a time; STRONGHOLD extends NCCL and Gloo so CPU-tensor and GPU-tensor
// collectives proceed *concurrently*. Here each device kind gets its own
// independent ProcessGroup (channel), so a CPU-side all-reduce never
// serialises against a GPU-side one.
#pragma once

#include <functional>
#include <span>

#include "dist/process_group.hpp"

namespace sh::dist {

enum class Channel { Gpu, Cpu };

class HeteroComm {
 public:
  explicit HeteroComm(int world) : gpu_(world), cpu_(world) {}

  ProcessGroup& group(Channel ch) noexcept {
    return ch == Channel::Gpu ? gpu_ : cpu_;
  }

  void all_reduce_sum(Channel ch, int rank, std::span<float> data) {
    group(ch).all_reduce_sum(rank, data);
  }

  int world() const noexcept { return gpu_.world(); }

  /// Aborts both channels (ProcessGroup::abort).
  void abort() {
    gpu_.abort();
    cpu_.abort();
  }

  std::size_t floats_communicated() const {
    return gpu_.floats_communicated() + cpu_.floats_communicated();
  }

 private:
  ProcessGroup gpu_;
  ProcessGroup cpu_;
};

}  // namespace sh::dist
