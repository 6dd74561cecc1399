// The strategy simulators must reproduce the paper's headline comparisons:
// capacity ordering and throughput ratios on the V100 server (Figs. 1, 6a,
// 7a, 8a) and the cluster results (Figs. 6b, 12).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "baselines/cluster.hpp"
#include "baselines/l2l.hpp"
#include "baselines/megatron.hpp"
#include "baselines/stronghold_strategy.hpp"
#include "baselines/zero_infinity.hpp"
#include "baselines/zero_offload.hpp"

namespace sh::baselines {
namespace {

Workload workload_1p7b(double batch = 4.0) {
  Workload w;
  w.model = sim::table1_model(20, 2560);
  w.batch = batch;
  return w;
}

TEST(Capacity, MegatronMaxesNear1p7BOnV100) {
  const auto m = sim::v100_server();
  MegatronStrategy megatron;
  const double b = largest_trainable_billions(megatron, m, 2560, 1, 4.0);
  EXPECT_GT(b, 1.2);
  EXPECT_LT(b, 2.5);
}

TEST(Capacity, L2lAndZeroOffloadReachAboutSixBillion) {
  const auto m = sim::v100_server();
  const double l2l = largest_trainable_billions(L2lStrategy(), m, 2560, 1, 4.0);
  const double zoff =
      largest_trainable_billions(ZeroOffloadStrategy(), m, 2560, 1, 4.0);
  EXPECT_GT(l2l, 4.5);
  EXPECT_LT(l2l, 8.0);
  EXPECT_GT(zoff, 4.5);
  EXPECT_LT(zoff, 8.0);
}

TEST(Capacity, ZeroInfinityReachesAboutTwentyBillion) {
  const auto m = sim::v100_server();
  const double b =
      largest_trainable_billions(ZeroInfinityStrategy(), m, 2560, 1, 4.0);
  EXPECT_GT(b, 16.0);
  EXPECT_LT(b, 25.0);
}

TEST(Capacity, StrongholdReachesAboutFortyBillion) {
  const auto m = sim::v100_server();
  const double b =
      largest_trainable_billions(StrongholdStrategy(), m, 2560, 1, 4.0);
  EXPECT_GT(b, 35.0);
  EXPECT_LT(b, 45.0);
}

TEST(Capacity, PaperOrderingHoldsOnV100) {
  const auto m = sim::v100_server();
  const double megatron =
      largest_trainable_billions(MegatronStrategy(), m, 2560, 1, 4.0);
  const double l2l = largest_trainable_billions(L2lStrategy(), m, 2560, 1, 4.0);
  const double zinf =
      largest_trainable_billions(ZeroInfinityStrategy(), m, 2560, 1, 4.0);
  const double sh =
      largest_trainable_billions(StrongholdStrategy(), m, 2560, 1, 4.0);
  EXPECT_LT(megatron, l2l);
  EXPECT_LT(l2l, zinf);
  EXPECT_LT(zinf, sh);
  // Paper: 6.5x over L2L/ZeRO-Offload, 1.9x over ZeRO-Infinity.
  EXPECT_NEAR(sh / l2l, 6.5, 2.0);
  EXPECT_NEAR(sh / zinf, 1.9, 0.6);
}

TEST(Capacity, NvmeExtendsStrongholdToHalfATrillion) {
  const auto m = sim::v100_server();
  StrongholdStrategy sh({.use_nvme = true});
  const double b = largest_trainable_billions(sh, m, 5120, 1, 4.0, 16384);
  EXPECT_GT(b, 350.0);
  EXPECT_LT(b, 700.0);
}

TEST(Capacity, StrongholdMinimumGpuFootprintIsSmall) {
  // A 20.5B model needs only a slice of GPU memory under STRONGHOLD.
  const auto m = sim::v100_server();
  Workload w;
  w.model = sim::table1_model(260, 2560);
  w.batch = 4.0;
  const auto cap = StrongholdStrategy().capacity(w, m);
  EXPECT_TRUE(cap.fits);
  EXPECT_LT(cap.gpu_bytes, 0.5 * m.gpu.mem_bytes);
}

TEST(Throughput, Fig8aRatiosOnCommonModel) {
  const auto m = sim::v100_server();
  const auto w = workload_1p7b();
  const double megatron = MegatronStrategy().iteration(w, m, nullptr).throughput;
  const double l2l = L2lStrategy().iteration(w, m, nullptr).throughput;
  const double zoff = ZeroOffloadStrategy().iteration(w, m, nullptr).throughput;
  const double zinf = ZeroInfinityStrategy().iteration(w, m, nullptr).throughput;
  const double sh = StrongholdStrategy().iteration(w, m, nullptr).throughput;

  // L2L delivers ~22% of Megatron (paper: 22.2%).
  EXPECT_NEAR(l2l / megatron, 0.22, 0.08);
  // ZeRO-Offload and ZeRO-Infinity below 57%.
  EXPECT_LT(zoff / megatron, 0.60);
  EXPECT_GT(zoff / megatron, 0.30);
  EXPECT_LT(zinf / megatron, 0.60);
  EXPECT_GT(zinf / megatron, 0.25);
  // STRONGHOLD is the only offloading scheme beating Megatron.
  EXPECT_GT(sh / megatron, 1.05);
}

TEST(Throughput, StrongholdAchievesSixToNineTflopsOnV100) {
  const auto m = sim::v100_server();
  // Largest trainable model (Fig. 7a): ~39.5B.
  Workload w;
  w.model = sim::table1_model(500, 2560);
  w.batch = 8.0;
  const auto rep = StrongholdStrategy().iteration(w, m, nullptr);
  EXPECT_GT(rep.achieved_flops, 5.0e12);
  EXPECT_LT(rep.achieved_flops, 10.0e12);
}

TEST(Throughput, StrongholdTflopsFarExceedOtherOffloaders) {
  const auto m = sim::v100_server();
  // Each scheme on its own largest model, like Fig. 7a.
  Workload l2l_w;
  l2l_w.model = sim::table1_model(75, 2560);
  l2l_w.batch = 8.0;
  Workload zinf_w;
  zinf_w.model = sim::table1_model(260, 2560);
  zinf_w.batch = 8.0;
  Workload sh_w;
  sh_w.model = sim::table1_model(500, 2560);
  sh_w.batch = 8.0;
  const double l2l = L2lStrategy().iteration(l2l_w, m, nullptr).achieved_flops;
  const double zoff =
      ZeroOffloadStrategy().iteration(l2l_w, m, nullptr).achieved_flops;
  const double zinf =
      ZeroInfinityStrategy().iteration(zinf_w, m, nullptr).achieved_flops;
  const double sh =
      StrongholdStrategy().iteration(sh_w, m, nullptr).achieved_flops;
  // Paper Fig. 7a measures far larger ratios (SH 6-9 TF vs 0.5-1.9 TF); our
  // simulator reproduces the ordering and a >=2x gap (see EXPERIMENTS.md).
  EXPECT_GT(sh, 2.0 * l2l);
  EXPECT_GT(sh, 2.0 * zoff);
  EXPECT_GT(sh, 2.0 * zinf);
}

TEST(Throughput, NvmeStrongholdBeatsNvmeZeroInfinityByOver8x) {
  const auto m = sim::v100_server();
  Workload w;
  w.model = sim::table1_model(500, 2560);  // 39.4B
  w.batch = 4.0;
  const double zinf = ZeroInfinityStrategy(ZeroInfinityStrategy::Tier::Nvme)
                          .iteration(w, m, nullptr)
                          .throughput;
  const double sh = StrongholdStrategy({.use_nvme = true})
                        .iteration(w, m, nullptr)
                        .throughput;
  EXPECT_GT(sh / zinf, 8.0);
}

TEST(Window, AnalyticalModelPicksSmallWindowOnV100) {
  // Fig. 9: throughput plateaus by window ~8; the model should pick a
  // single-digit window for the 1.7B model.
  const auto m = sim::v100_server();
  const auto w = workload_1p7b();
  StrongholdStrategy sh;
  const auto d = sh.window_decision(w, m);
  EXPECT_TRUE(d.feasible);
  EXPECT_GE(d.m, 1u);
  EXPECT_LE(d.m, 10u);
}

TEST(Window, ThroughputPlateausWithWindowSize) {
  const auto m = sim::v100_server();
  const auto w = workload_1p7b();
  double prev = 0.0;
  for (std::size_t win : {1u, 2u, 4u, 8u}) {
    StrongholdStrategy sh({.fixed_window = win});
    const double thr = sh.iteration(w, m, nullptr).throughput;
    EXPECT_GE(thr, prev * 0.999);
    prev = thr;
  }
  // Window 16 gains little over window 8 (plateau).
  StrongholdStrategy sh8({.fixed_window = 8});
  StrongholdStrategy sh16({.fixed_window = 16});
  const double t8 = sh8.iteration(w, m, nullptr).throughput;
  const double t16 = sh16.iteration(w, m, nullptr).throughput;
  EXPECT_LT(t16 / t8, 1.1);
}

TEST(MultiStream, SpeedupOverMegatronInPaperRange) {
  // Fig. 11: at least 1.7x (up to 2.1x) over Megatron-LM.
  const auto m = sim::v100_server();
  MegatronStrategy megatron;
  StrongholdStrategy sh;
  for (double bs : {4.0, 8.0, 16.0}) {
    auto w = workload_1p7b(bs);
    const double ratio = sh.iteration(w, m, nullptr).throughput /
                         megatron.iteration(w, m, nullptr).throughput;
    EXPECT_GT(ratio, 1.4) << "bs=" << bs;
    EXPECT_LT(ratio, 2.4) << "bs=" << bs;
  }
}

TEST(MultiStream, DisabledFallsBackToSingleStream) {
  const auto m = sim::v100_server();
  const auto w = workload_1p7b(8.0);
  StrongholdStrategy on;
  StrongholdStrategy off({.multi_stream = false});
  EXPECT_EQ(off.stream_count(w, m), 1);
  EXPECT_GT(on.stream_count(w, m), 1);
  EXPECT_GT(on.iteration(w, m, nullptr).throughput,
            off.iteration(w, m, nullptr).throughput);
}

TEST(Ablation, EachOptimizationContributes) {
  // Fig. 14 directions: concurrent update ~1.5x, memory mgmt ~2.2x,
  // multi-stream ~2x, each toggled on top of the unoptimized scheme.
  const auto m = sim::v100_server();
  Workload w;
  w.model = sim::table1_model(50, 2560);  // the 4B model of Fig. 14
  w.batch = 4.0;
  StrongholdOptions none{.concurrent_update = false,
                         .user_level_memory = false,
                         .multi_stream = false,
                         .use_nvme = true};
  const double base =
      StrongholdStrategy(none).iteration(w, m, nullptr).throughput;

  auto with = [&](auto mutate) {
    StrongholdOptions o = none;
    mutate(o);
    return StrongholdStrategy(o).iteration(w, m, nullptr).throughput;
  };
  const double conc =
      with([](StrongholdOptions& o) { o.concurrent_update = true; });
  const double mem =
      with([](StrongholdOptions& o) { o.user_level_memory = true; });
  const double streams =
      with([](StrongholdOptions& o) { o.multi_stream = true; });
  EXPECT_GT(conc / base, 1.2);
  EXPECT_GT(mem / base, 1.5);
  EXPECT_GT(streams / base, 1.2);
}

TEST(Cluster, Fig6bCapacityOrdering) {
  const auto c = sim::a10_cluster();
  const double megatron = largest_trainable_billions_cluster(
      MegatronStrategy(), c, 5120, 4.0);
  const double zinf = largest_trainable_billions_cluster(
      ZeroInfinityStrategy(), c, 5120, 4.0);
  const double sh = largest_trainable_billions_cluster(
      StrongholdStrategy(), c, 5120, 4.0);
  EXPECT_LT(megatron, zinf);
  EXPECT_LT(zinf, sh);
  // Paper: ZeRO-Infinity 56.9B, STRONGHOLD 82.1B.
  EXPECT_NEAR(zinf, 56.9, 15.0);
  EXPECT_NEAR(sh, 82.1, 15.0);
}

TEST(Cluster, Fig12StrongholdBeatsZeroDp) {
  const auto c = sim::a10_cluster();
  Workload w;
  w.model = sim::table1_model(37, 2560);  // ~3B, largest ZeRO-2 model
  w.batch = 1.0;
  ZeroDpStrategy z2(ZeroDpStrategy::Stage::Two, c);
  ZeroDpStrategy z3(ZeroDpStrategy::Stage::Three, c);
  ASSERT_TRUE(z2.capacity(w, c.node).fits);
  const double z2t = z2.iteration(w, c.node, nullptr).throughput;
  const double z3t = z3.iteration(w, c.node, nullptr).throughput;
  const double sht = stronghold_dp_iteration(w, c).throughput;
  EXPECT_GT(sht / z2t, 2.0);
  EXPECT_GT(sht / z3t, 2.0);
}

TEST(Cluster, ZeroTwoCapsNearThreeBillion) {
  // Fig. 12 setup: 3B is the largest model ZeRO-2 supports on the cluster.
  const auto c = sim::a10_cluster();
  ZeroDpStrategy z2(ZeroDpStrategy::Stage::Two, c);
  const double b = largest_trainable_billions(z2, c.node, 2560, 1, 1.0);
  EXPECT_GT(b, 1.5);
  EXPECT_LT(b, 5.5);
}

TEST(Trace, StrongholdOverlapsTransfersWithCompute) {
  // Fig. 4: communication largely hidden under GPU computation.
  const auto m = sim::v100_server();
  Workload w;
  w.model = sim::table1_model(50, 2560);  // 4B model as in Fig. 4
  w.batch = 4.0;
  sim::Trace trace;
  StrongholdStrategy sh;
  (void)sh.iteration(w, m, &trace);
  EXPECT_GT(trace.overlap_fraction("d2h", "gpu"), 0.7);
  EXPECT_GT(trace.utilization("gpu"), 0.8);
}

// --- The forward sweep of the STRONGHOLD schedule ----------------------
//
// Layer i computes after layer i-1 and after its own fetch; layers 0..m-1
// start resident, and the fetch of layer i >= m is issued when layer i-m
// starts computing, onto a FIFO h2d link. With per-layer compute t_c and
// per-layer fetch t_f this max-plus recurrence has the closed form
//   end = max(n*t_c, t_c + (n-m)*t_f) for n > m, and n*t_c otherwise:
// the longest path either computes every layer or rides the link from the
// first fetch to the last one. The Timeline schedule must match it.

struct ForwardSweep {
  std::vector<sim::Interval> compute;  // "gpu"/"f", one per layer in order
  std::vector<sim::Interval> fetches;  // "h2d"/"p" issued during FP
  double t_c = 0.0;
  double t_f = 0.0;

  double end() const { return compute.empty() ? 0.0 : compute.back().end; }
  double gpu_idle() const {
    double idle = 0.0;
    double free_at = 0.0;
    for (const auto& iv : compute) {
      idle += iv.start - free_at;
      free_at = iv.end;
    }
    return idle;
  }
};

/// The FP spans of a STRONGHOLD trace: everything recorded before the head.
ForwardSweep forward_sweep_of(const sim::Trace& trace) {
  ForwardSweep s;
  for (const auto& span : trace.spans()) {
    if (span.resource == "gpu" && span.label == "h") break;
    if (span.resource == "gpu" && span.label == "f") {
      s.compute.push_back(span.interval);
    } else if (span.resource == "h2d" && span.label == "p") {
      s.fetches.push_back(span.interval);
    }
  }
  if (!s.compute.empty()) s.t_c = s.compute.front().duration();
  if (!s.fetches.empty()) s.t_f = s.fetches.front().duration();
  return s;
}

Workload sweep_workload(std::int64_t layers) {
  Workload w;
  w.model = sim::table1_model(layers, 2560);
  w.batch = 4.0;
  return w;
}

/// A V100 server whose PCIe link is rescaled so that one layer's fetch
/// takes `fetch_ratio` forward computes, `latency_share` of it fixed cost.
sim::MachineSpec machine_with_fetch_ratio(double fetch_ratio,
                                          double latency_share = 0.0) {
  // Calibrate on a two-layer, window-1 sweep over a latency-free link: the
  // per-layer compute and fetch bytes do not depend on the layer count.
  auto m = sim::v100_server();
  m.pcie_latency_s = 0.0;
  sim::Trace trace;
  (void)StrongholdStrategy({.fixed_window = 1})
      .iteration(sweep_workload(2), m, &trace);
  const auto cal = forward_sweep_of(trace);
  const double t_f = fetch_ratio * cal.t_c;
  m.pcie_latency_s = latency_share * t_f;
  m.pcie_bytes_per_s *= cal.t_f / ((1.0 - latency_share) * t_f);
  return m;
}

ForwardSweep run_sweep(std::int64_t layers, std::size_t window,
                       const sim::MachineSpec& machine,
                       double* iteration_seconds = nullptr) {
  sim::Trace trace;
  const auto r = StrongholdStrategy({.fixed_window = window})
                     .iteration(sweep_workload(layers), machine, &trace);
  if (iteration_seconds != nullptr) *iteration_seconds = r.seconds;
  return forward_sweep_of(trace);
}

struct SweepCase {
  std::int64_t layers;
  std::size_t window;
  double fetch_ratio;    // t_f / t_c
  double latency_share;  // fixed share of t_f
};

class ForwardSweepRegime : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ForwardSweepRegime, TimelineScheduleMatchesMaxPlusClosedForm) {
  const auto& c = GetParam();
  const auto s = run_sweep(
      c.layers, c.window,
      machine_with_fetch_ratio(c.fetch_ratio, c.latency_share));
  const auto n = static_cast<std::size_t>(c.layers);
  const std::size_t m = std::min(c.window, n);
  ASSERT_EQ(s.compute.size(), n);
  ASSERT_EQ(s.fetches.size(), n - m);
  if (!s.fetches.empty()) {
    EXPECT_NEAR(s.t_f / s.t_c, c.fetch_ratio, 1e-9 * c.fetch_ratio);
  }
  for (std::size_t j = 0; j < s.fetches.size(); ++j) {
    // Issued by layer j's pre-forward hook, consumed by layer j+m.
    EXPECT_GE(s.fetches[j].start, s.compute[j].start) << "fetch " << j;
    EXPECT_GE(s.compute[j + m].start, s.fetches[j].end) << "fetch " << j;
  }
  const double dn = static_cast<double>(n);
  const double expected =
      n > m ? std::max(dn * s.t_c,
                       s.t_c + static_cast<double>(n - m) * s.t_f)
            : dn * s.t_c;
  EXPECT_NEAR(s.end(), expected, 1e-9 * expected);
  EXPECT_NEAR(s.gpu_idle(), expected - dn * s.t_c, 1e-9 * expected);
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, ForwardSweepRegime,
    ::testing::Values(
        SweepCase{20, 2, 0.2, 0.0},   // compute-bound: no stalls
        SweepCase{20, 1, 5.0, 0.0},   // transfer-bound: stalls
        SweepCase{20, 4, 1.0, 0.02},  // balanced with latency
        SweepCase{8, 8, 3.0, 0.0},    // fully resident: no fetches
        SweepCase{50, 3, 3.5, 0.0},   // bandwidth saturation
        SweepCase{1, 1, 1.0, 0.0}));  // single layer

TEST(ForwardSweep, ComputeBoundHasZeroIdle) {
  const auto s = run_sweep(30, 2, machine_with_fetch_ratio(0.3));
  ASSERT_EQ(s.compute.size(), 30u);
  EXPECT_EQ(s.fetches.size(), 28u);
  EXPECT_DOUBLE_EQ(s.gpu_idle(), 0.0);
  EXPECT_NEAR(s.end(), 30.0 * s.t_c, 1e-9 * s.end());
}

TEST(ForwardSweep, TransferBoundMakespanIsLinkLimited) {
  // One-layer window, fetch twice as slow as compute: the link paces the
  // sweep after the resident prefix. Layer 0 computes during [0, t_c); fetch
  // i completes at i*t_f, back to back on the link; layer 9 computes last.
  const auto s = run_sweep(10, 1, machine_with_fetch_ratio(2.0));
  ASSERT_EQ(s.fetches.size(), 9u);
  EXPECT_GT(s.gpu_idle(), 0.0);
  for (std::size_t j = 1; j < s.fetches.size(); ++j) {
    EXPECT_DOUBLE_EQ(s.fetches[j].start, s.fetches[j - 1].end) << j;
  }
  EXPECT_NEAR(s.end(), 9.0 * s.t_f + s.t_c, 1e-9 * s.end());
  EXPECT_NEAR(s.end() / s.t_c, 19.0, 1e-9);
}

TEST(ForwardSweep, LargerWindowNeverHurts) {
  const auto machine = machine_with_fetch_ratio(2.5);
  for (std::size_t m = 1; m <= 8; ++m) {
    double seconds_m = 0.0;
    double seconds_next = 0.0;
    const auto a = run_sweep(24, m, machine, &seconds_m);
    const auto b = run_sweep(24, m + 1, machine, &seconds_next);
    EXPECT_LE(b.end(), a.end() * (1.0 + 1e-12)) << "window " << m;
    EXPECT_LE(seconds_next, seconds_m * (1.0 + 1e-12)) << "window " << m;
  }
}

TEST(Lineup, ContainsPaperBaselinesInOrder) {
  const auto v = single_gpu_lineup();
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v[0]->name(), "Megatron-LM");
  EXPECT_EQ(v[1]->name(), "L2L");
  EXPECT_EQ(v[2]->name(), "ZeRO-Offload");
  EXPECT_EQ(v[3]->name(), "ZeRO-Infinity");
  EXPECT_EQ(v[4]->name(), "STRONGHOLD");
}

}  // namespace
}  // namespace sh::baselines
