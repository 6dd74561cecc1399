#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "dist/comm_volume.hpp"
#include "dist/hetero_comm.hpp"
#include "dist/process_group.hpp"
#include "testing/util.hpp"

namespace sh::dist {
namespace {

/// Runs `fn(rank)` on `world` threads and joins.
void run_ranks(int world, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) threads.emplace_back(fn, r);
  for (auto& t : threads) t.join();
}

TEST(Barrier, ReleasesAllParticipants) {
  Barrier b(4);
  std::atomic<int> before{0}, after{0};
  run_ranks(4, [&](int) {
    before.fetch_add(1);
    b.arrive_and_wait();
    EXPECT_EQ(before.load(), 4);
    after.fetch_add(1);
  });
  EXPECT_EQ(after.load(), 4);
}

TEST(Barrier, IsReusableAcrossGenerations) {
  Barrier b(3);
  std::atomic<int> phase_sum{0};
  run_ranks(3, [&](int rank) {
    for (int phase = 0; phase < 10; ++phase) {
      b.arrive_and_wait();
      phase_sum.fetch_add(rank);
      b.arrive_and_wait();
    }
  });
  EXPECT_EQ(phase_sum.load(), 10 * (0 + 1 + 2));
}

TEST(ProcessGroup, AllReduceSumsAcrossRanks) {
  const int world = 4;
  ProcessGroup pg(world);
  std::vector<std::vector<float>> bufs(world, std::vector<float>(8));
  for (int r = 0; r < world; ++r) {
    for (int i = 0; i < 8; ++i) {
      bufs[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)] =
          static_cast<float>(r + i);
    }
  }
  run_ranks(world, [&](int rank) {
    pg.all_reduce_sum(rank, bufs[static_cast<std::size_t>(rank)]);
  });
  // Sum over ranks of (r + i) = 6 + 4i.
  for (int r = 0; r < world; ++r) {
    for (int i = 0; i < 8; ++i) {
      EXPECT_FLOAT_EQ(bufs[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)],
                      6.0f + 4.0f * i);
    }
  }
}

TEST(ProcessGroup, AllReduceRepeatedRounds) {
  const int world = 3;
  ProcessGroup pg(world);
  std::vector<std::vector<float>> bufs(world, std::vector<float>{1.0f});
  run_ranks(world, [&](int rank) {
    for (int round = 0; round < 5; ++round) {
      pg.all_reduce_sum(rank, bufs[static_cast<std::size_t>(rank)]);
    }
  });
  // Each round multiplies by world: 3^5.
  for (int r = 0; r < world; ++r) {
    EXPECT_FLOAT_EQ(bufs[static_cast<std::size_t>(r)][0], 243.0f);
  }
}

TEST(ProcessGroup, AllGatherConcatenatesShards) {
  const int world = 3;
  ProcessGroup pg(world);
  std::vector<std::vector<float>> outs(world, std::vector<float>(6));
  run_ranks(world, [&](int rank) {
    std::vector<float> in = {static_cast<float>(rank),
                             static_cast<float>(rank * 10)};
    pg.all_gather(rank, in, outs[static_cast<std::size_t>(rank)]);
  });
  for (int r = 0; r < world; ++r) {
    EXPECT_EQ(outs[static_cast<std::size_t>(r)],
              (std::vector<float>{0, 0, 1, 10, 2, 20}));
  }
}

TEST(ProcessGroup, ReduceScatterGivesEachRankItsShard) {
  const int world = 2;
  ProcessGroup pg(world);
  std::vector<std::vector<float>> outs(world, std::vector<float>(2));
  run_ranks(world, [&](int rank) {
    // Both ranks contribute [1,2,3,4] and [10,20,30,40].
    std::vector<float> in = rank == 0 ? std::vector<float>{1, 2, 3, 4}
                                      : std::vector<float>{10, 20, 30, 40};
    pg.reduce_scatter_sum(rank, in, outs[static_cast<std::size_t>(rank)]);
  });
  EXPECT_EQ(outs[0], (std::vector<float>{11, 22}));
  EXPECT_EQ(outs[1], (std::vector<float>{33, 44}));
}

TEST(ProcessGroup, BroadcastCopiesRoot) {
  const int world = 4;
  ProcessGroup pg(world);
  std::vector<std::vector<float>> bufs(world, std::vector<float>(3, 0.0f));
  bufs[2] = {7.0f, 8.0f, 9.0f};
  run_ranks(world, [&](int rank) {
    pg.broadcast(rank, 2, bufs[static_cast<std::size_t>(rank)]);
  });
  for (int r = 0; r < world; ++r) {
    EXPECT_EQ(bufs[static_cast<std::size_t>(r)],
              (std::vector<float>{7, 8, 9}));
  }
}

enum class Mismatch {
  AllReduce,
  AllGather,
  ReduceScatter,
  Broadcast,
  BroadcastRoot,  ///< same sizes, ranks name different roots
  AllGatherOut,   ///< same input sizes, one rank's `out` has the wrong size
};

class ProcessGroupMismatch : public ::testing::TestWithParam<Mismatch> {};

TEST_P(ProcessGroupMismatch, SizeMismatchThrowsOnEveryRank) {
  const int world = 3;
  ProcessGroup pg(world);
  std::atomic<int> threw{0};
  run_ranks(world, [&](int rank) {
    // Rank 1's buffer is one float short: a peer that read it at its own
    // length would run past its end.
    const bool shapes_differ = GetParam() != Mismatch::BroadcastRoot &&
                               GetParam() != Mismatch::AllGatherOut;
    const std::size_t n = shapes_differ && rank == 1 ? 4 : 5;
    std::vector<float> buf(n, 1.0f);
    std::vector<float> wide(n * world, 1.0f);
    try {
      switch (GetParam()) {
        case Mismatch::AllReduce:
          pg.all_reduce_sum(rank, buf);
          break;
        case Mismatch::AllGather:
          pg.all_gather(rank, buf, wide);
          break;
        case Mismatch::ReduceScatter:
          pg.reduce_scatter_sum(rank, wide, buf);
          break;
        case Mismatch::Broadcast:  // the short rank is the root
          pg.broadcast(rank, 1, buf);
          break;
        case Mismatch::BroadcastRoot:
          pg.broadcast(rank, rank == 2 ? 0 : 1, buf);
          break;
        case Mismatch::AllGatherOut:
          pg.all_gather(rank, buf,
                        std::span(wide).first(rank == 1 ? n : n * world));
          break;
      }
    } catch (const std::invalid_argument&) {
      threw.fetch_add(1);
    }
  });
  EXPECT_EQ(threw.load(), world);  // all ranks throw; nobody deadlocks
  // The group is still usable after a rejected round.
  std::vector<std::vector<float>> bufs(world, std::vector<float>{1.0f});
  run_ranks(world, [&](int rank) {
    pg.all_reduce_sum(rank, bufs[static_cast<std::size_t>(rank)]);
  });
  EXPECT_EQ(bufs[0][0], 3.0f);
}

std::string mismatch_name(const ::testing::TestParamInfo<Mismatch>& info) {
  constexpr const char* kNames[] = {"AllReduce",     "AllGather",
                                    "ReduceScatter", "Broadcast",
                                    "BroadcastRoot", "AllGatherOut"};
  return kNames[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    Collectives, ProcessGroupMismatch,
    ::testing::Values(Mismatch::AllReduce, Mismatch::AllGather,
                      Mismatch::ReduceScatter, Mismatch::Broadcast,
                      Mismatch::BroadcastRoot, Mismatch::AllGatherOut),
    mismatch_name);

/// Rank r's input at element i, chosen so that summing in any order but
/// rank order changes bits: magnitudes from 2^-24 to 2^27, the sequence
/// (1e8, 1, -1e8) across consecutive ranks (0 in rank order, 1 if the 1 is
/// added last), signed zeros (the sum of -0s is +0 only when it starts
/// from 0.0f), and ±inf and NaN.
float order_sensitive(int r, std::size_t i) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  // The kind of value depends on the element only, the value on the rank.
  switch (testing::mix64(i) % 16) {
    case 0: {
      constexpr float kCancel[] = {1e8f, 1.0f, -1e8f};
      return kCancel[r % 3];
    }
    case 1:
      return -0.0f;
    case 2:
      return r % 2 == 0 ? 0.0f : -0.0f;
    case 3:
      return r == 0 ? kInf : (r == 1 ? -kInf : 1.0f);
    case 4:
      return r == 1 ? std::numeric_limits<float>::quiet_NaN() : 2.0f;
    default: {
      const std::uint64_t x = testing::mix64(i * 64 + static_cast<unsigned>(r));
      const float mantissa = 1.0f + static_cast<float>(x >> 41) / 8388608.0f;
      const int exponent = static_cast<int>((x >> 8) % 52) - 24;
      const float v = std::ldexp(mantissa, exponent);
      return (x & 1) != 0 ? -v : v;
    }
  }
}

/// The serial reference: each element is 0.0f + x_0 + x_1 + ... + x_{w-1}.
std::vector<float> serial_rank_order_sum(
    const std::vector<std::vector<float>>& in) {
  std::vector<float> sum(in.front().size());
  for (std::size_t i = 0; i < sum.size(); ++i) {
    float s = 0.0f;
    for (const auto& x : in) s += x[i];
    sum[i] = s;
  }
  return sum;
}

constexpr int kOrderWorlds[] = {1, 2, 3, 4, 5, 8};

std::vector<std::size_t> order_lengths(int world) {
  const auto w = static_cast<std::size_t>(world);
  return {0, 1, w - 1, w + 1, 1023, 1024, 1025, 789763};
}

TEST(ProcessGroup, AllReduceEqualsSerialRankOrderSumBitwise) {
  for (const int world : kOrderWorlds) {
    for (const std::size_t n : order_lengths(world)) {
      SCOPED_TRACE("world " + std::to_string(world) + " n " +
                   std::to_string(n));
      std::vector<std::vector<float>> bufs(static_cast<std::size_t>(world));
      for (int r = 0; r < world; ++r) {
        auto& b = bufs[static_cast<std::size_t>(r)];
        b.resize(n);
        for (std::size_t i = 0; i < n; ++i) b[i] = order_sensitive(r, i);
      }
      const std::vector<float> want = serial_rank_order_sum(bufs);
      ProcessGroup pg(world);
      run_ranks(world, [&](int rank) {
        pg.all_reduce_sum(rank, bufs[static_cast<std::size_t>(rank)]);
      });
      for (const auto& b : bufs) EXPECT_TRUE(testing::bits_equal(b, want));
    }
  }
}

TEST(ProcessGroup, ReduceScatterEqualsSerialRankOrderSumBitwise) {
  for (const int world : kOrderWorlds) {
    const auto w = static_cast<std::size_t>(world);
    for (const std::size_t len : order_lengths(world)) {
      // Each rank keeps a shard of ceil(len / w), so the inputs hold len
      // floats rounded up to a multiple of the world.
      const std::size_t shard = (len + w - 1) / w;
      SCOPED_TRACE("world " + std::to_string(world) + " shard " +
                   std::to_string(shard));
      std::vector<std::vector<float>> in(w);
      for (int r = 0; r < world; ++r) {
        auto& x = in[static_cast<std::size_t>(r)];
        x.resize(shard * w);
        for (std::size_t i = 0; i < x.size(); ++i) x[i] = order_sensitive(r, i);
      }
      const std::vector<float> want = serial_rank_order_sum(in);
      std::vector<std::vector<float>> outs(w, std::vector<float>(shard));
      ProcessGroup pg(world);
      run_ranks(world, [&](int rank) {
        const auto r = static_cast<std::size_t>(rank);
        pg.reduce_scatter_sum(rank, in[r], outs[r]);
      });
      for (std::size_t r = 0; r < w; ++r) {
        EXPECT_TRUE(testing::bits_equal(
            outs[r], std::span(want).subspan(r * shard, shard)));
      }
    }
  }
}

TEST(ProcessGroup, CountsCommunicationVolume) {
  const int world = 4;
  ProcessGroup pg(world);
  std::vector<std::vector<float>> bufs(world, std::vector<float>(10, 1.0f));
  run_ranks(world, [&](int rank) {
    pg.all_reduce_sum(rank, bufs[static_cast<std::size_t>(rank)]);
  });
  // Paper convention: (w-1) * w * N = 3 * 4 * 10.
  EXPECT_EQ(pg.floats_communicated(), 120u);
}

TEST(ProcessGroup, WorldOfOneIsIdentity) {
  ProcessGroup pg(1);
  std::vector<float> v = {3.0f};
  pg.all_reduce_sum(0, v);
  EXPECT_FLOAT_EQ(v[0], 3.0f);
  EXPECT_EQ(pg.floats_communicated(), 0u);
}

TEST(HeteroComm, ChannelsAreIndependent) {
  // A GPU-channel collective must complete even while the CPU channel is
  // mid-collective (one rank late) — the paper's concurrent heterogeneous
  // collectives requirement.
  const int world = 2;
  HeteroComm comm(world);
  std::vector<float> gpu_a = {1.0f}, gpu_b = {2.0f};
  std::vector<float> cpu_a = {10.0f}, cpu_b = {20.0f};
  std::atomic<bool> gpu_done{false};

  std::thread r0([&] {
    // Rank 0 starts the CPU collective late; the GPU one must not wait.
    comm.all_reduce_sum(Channel::Gpu, 0, gpu_a);
    gpu_done = true;
    comm.all_reduce_sum(Channel::Cpu, 0, cpu_a);
  });
  std::thread r1([&] {
    std::thread cpu_part([&] { comm.all_reduce_sum(Channel::Cpu, 1, cpu_b); });
    comm.all_reduce_sum(Channel::Gpu, 1, gpu_b);
    cpu_part.join();
  });
  r0.join();
  r1.join();
  EXPECT_TRUE(gpu_done.load());
  EXPECT_FLOAT_EQ(gpu_a[0], 3.0f);
  EXPECT_FLOAT_EQ(cpu_a[0], 30.0f);
  EXPECT_EQ(comm.floats_communicated(), 2u + 2u);
}

TEST(CommVolume, SimplifiedFormulaMatchesExact) {
  // The closed form assumes seq=1024, vs=30K.
  for (int bs : {2, 4, 8, 16}) {
    VolumeParams p{.w = 8, .layers = 50, .hidden = 4096, .vocab = 30000,
                   .batch = bs, .seq = 1024};
    EXPECT_NEAR(mp_over_dp(p), mp_over_dp_simplified(p),
                0.02 * mp_over_dp(p));
  }
}

TEST(CommVolume, PaperExampleEvaluatesPerFormula) {
  // Paper example: 20B model, bs=16, n=50, hd=4K. The paper prose claims
  // this "halves the communication traffic", but its own closed form
  // bs / (3 hd/256 + 30/n) evaluates to 16 / 48.6 ~= 0.33 — we reproduce the
  // formula faithfully and record the prose/formula inconsistency in
  // EXPERIMENTS.md.
  VolumeParams p{.w = 8, .layers = 50, .hidden = 4096, .vocab = 30000,
                 .batch = 16, .seq = 1024};
  EXPECT_NEAR(mp_over_dp_simplified(p), 16.0 / (48.0 + 30.0 / 50.0), 1e-6);
  EXPECT_NEAR(mp_over_dp(p), 0.329, 0.01);
}

TEST(CommVolume, DpWinsBeyondCrossoverBatch) {
  // MP->DP conversion pays off (ratio > 1) once bs exceeds 3 hd/256 + 30/n.
  VolumeParams p{.w = 8, .layers = 50, .hidden = 4096, .vocab = 30000,
                 .batch = 1, .seq = 1024};
  const double crossover = 3.0 * 4096.0 / 256.0 + 30.0 / 50.0;
  p.batch = static_cast<std::int64_t>(crossover) + 2;
  EXPECT_GT(mp_over_dp(p), 1.0);
  p.batch = static_cast<std::int64_t>(crossover) - 2;
  EXPECT_LT(mp_over_dp(p), 1.0);
}

TEST(CommVolume, NarrowModelsFavorDpConversion) {
  // Smaller hidden sizes push the crossover down: at hd=1024, n=50 the
  // crossover is bs = 12.6, so bs=16 already reduces traffic.
  VolumeParams p{.w = 8, .layers = 50, .hidden = 1024, .vocab = 30000,
                 .batch = 16, .seq = 1024};
  EXPECT_GT(mp_over_dp(p), 1.0);
}

TEST(CommVolume, RatioGrowsLinearlyInBatch) {
  VolumeParams p{.w = 8, .layers = 50, .hidden = 4096, .vocab = 30000,
                 .batch = 4, .seq = 1024};
  const double r4 = mp_over_dp(p);
  p.batch = 8;
  EXPECT_NEAR(mp_over_dp(p), 2.0 * r4, 1e-9);
}

}  // namespace
}  // namespace sh::dist
