#include "dist/process_group.hpp"

#include <algorithm>
#include <string>

namespace sh::dist {

namespace {

/// First element of `owner`'s chunk when n elements are split over w ranks.
std::size_t chunk_begin(std::size_t n, std::size_t owner, std::size_t w) {
  return n * owner / w;
}

}  // namespace

Barrier::Barrier(int world) : world_(world) {
  if (world <= 0) throw std::invalid_argument("Barrier world must be >= 1");
}

void Barrier::arrive_and_wait() {
  std::unique_lock<std::mutex> lock(mu_);
  if (aborted_) throw Aborted("dist::Barrier aborted");
  const std::uint64_t gen = generation_;
  if (++waiting_ == world_) {
    waiting_ = 0;
    ++generation_;
    cv_.notify_all();
    return;
  }
  cv_.wait(lock, [&] { return generation_ != gen || aborted_; });
  if (generation_ == gen) throw Aborted("dist::Barrier aborted");
}

void Barrier::abort() {
  std::lock_guard<std::mutex> lock(mu_);
  aborted_ = true;
  cv_.notify_all();
}

ProcessGroup::ProcessGroup(int world) : world_(world), barrier_(world) {
  peers_.resize(static_cast<std::size_t>(world));
}

void ProcessGroup::check_rank(int rank) const {
  if (rank < 0 || rank >= world_) {
    throw std::out_of_range("rank out of range");
  }
}

void ProcessGroup::enter(int rank, const Peer& self, const char* what) {
  check_rank(rank);
  peers_[static_cast<std::size_t>(rank)] = self;
  barrier_.arrive_and_wait();
  // Every rank validates the same published state, so on a mismatch all
  // ranks throw together instead of some deadlocking at the next barrier or
  // reading past the end of a smaller peer buffer.
  const bool agree = std::all_of(peers_.begin(), peers_.end(),
                                 [&](const Peer& p) {
                                   return p.ok && p.size == self.size &&
                                          p.root == self.root;
                                 });
  if (!agree) {
    barrier_.arrive_and_wait();
    throw std::invalid_argument(std::string(what) +
                                ": buffer shapes or roots differ across ranks");
  }
}

void ProcessGroup::sum_chunk(std::size_t lo, std::size_t hi,
                             float* out) const {
  // One L1-resident block at a time, ranks outermost, so the adds vectorise
  // while each element still sums 0.0f + x_0 + ... + x_{w-1}. A block is
  // read from every rank before it is written, so `out` may be this rank's
  // own published buffer.
  constexpr std::size_t kBlock = 1024;
  float acc[kBlock];
  for (std::size_t b = lo; b < hi; b += kBlock) {
    const std::size_t len = std::min(kBlock, hi - b);
    std::fill_n(acc, len, 0.0f);
    for (const Peer& p : peers_) {
      const float* src = p.in + b;
      for (std::size_t j = 0; j < len; ++j) acc[j] += src[j];
    }
    std::copy_n(acc, len, out + (b - lo));
  }
}

void ProcessGroup::all_reduce_sum(int rank, std::span<float> data) {
  enter(rank, {data.data(), data.size()}, "all_reduce");
  const std::size_t n = data.size();
  const auto w = static_cast<std::size_t>(world_);
  const auto me = static_cast<std::size_t>(rank);
  // Reduce-scatter: this rank sums its own chunk into its own buffer.
  const std::size_t lo = chunk_begin(n, me, w);
  sum_chunk(lo, chunk_begin(n, me + 1, w), data.data() + lo);
  barrier_.arrive_and_wait();
  // All-gather: copy the other owners' reduced chunks.
  for (std::size_t o = 0; o < w; ++o) {
    if (o == me) continue;
    const std::size_t begin = chunk_begin(n, o, w);
    std::copy(peers_[o].in + begin, peers_[o].in + chunk_begin(n, o + 1, w),
              data.data() + begin);
  }
  // Paper convention (Section III-F): (w-1) * w * N.
  if (rank == 0) floats_communicated_ += (w - 1) * w * n;
  barrier_.arrive_and_wait();
}

void ProcessGroup::all_gather(int rank, std::span<const float> in,
                              std::span<float> out) {
  const auto w = static_cast<std::size_t>(world_);
  enter(rank, {in.data(), in.size(), 0, out.size() == w * in.size()},
        "all_gather");
  for (std::size_t r = 0; r < w; ++r) {
    std::copy_n(peers_[r].in, in.size(), out.data() + r * in.size());
  }
  if (rank == 0) floats_communicated_ += (w - 1) * w * in.size();
  barrier_.arrive_and_wait();
}

void ProcessGroup::reduce_scatter_sum(int rank, std::span<const float> in,
                                      std::span<float> out) {
  const auto w = static_cast<std::size_t>(world_);
  enter(rank, {in.data(), in.size(), 0, in.size() == w * out.size()},
        "reduce_scatter");
  // Shard r is rank r's owner chunk; no peer reads `out`, so no barrier is
  // needed between the sum and the exit.
  const std::size_t lo = static_cast<std::size_t>(rank) * out.size();
  sum_chunk(lo, lo + out.size(), out.data());
  if (rank == 0) floats_communicated_ += (w - 1) * w * out.size();
  barrier_.arrive_and_wait();
}

void ProcessGroup::broadcast(int rank, int root, std::span<float> data) {
  enter(rank, {data.data(), data.size(), root, root >= 0 && root < world_},
        "broadcast");
  if (rank != root) {
    std::copy_n(peers_[static_cast<std::size_t>(root)].in, data.size(),
                data.data());
  }
  if (rank == 0) {
    floats_communicated_ += static_cast<std::size_t>(world_ - 1) * data.size();
  }
  barrier_.arrive_and_wait();
}

void ProcessGroup::barrier(int rank) {
  check_rank(rank);
  barrier_.arrive_and_wait();
}

std::size_t ProcessGroup::floats_communicated() const {
  return floats_communicated_.load();
}

}  // namespace sh::dist
