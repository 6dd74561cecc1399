#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "sim/hardware.hpp"
#include "sim/resource.hpp"
#include "sim/trace.hpp"

namespace sh::sim {
namespace {

TEST(Timeline, SerializesWork) {
  Timeline t("stream");
  auto a = t.acquire(0.0, 2.0);
  auto b = t.acquire(0.0, 3.0);  // ready at 0 but must wait for a
  EXPECT_DOUBLE_EQ(a.start, 0.0);
  EXPECT_DOUBLE_EQ(a.end, 2.0);
  EXPECT_DOUBLE_EQ(b.start, 2.0);
  EXPECT_DOUBLE_EQ(b.end, 5.0);
  EXPECT_DOUBLE_EQ(t.busy_time(), 5.0);
}

TEST(Timeline, RespectsReadyTime) {
  Timeline t("stream");
  auto a = t.acquire(10.0, 1.0);
  EXPECT_DOUBLE_EQ(a.start, 10.0);
  auto b = t.acquire(5.0, 1.0);  // resource free at 11, ready at 5
  EXPECT_DOUBLE_EQ(b.start, 11.0);
}

TEST(Timeline, ResetClears) {
  Timeline t("s");
  t.acquire(0.0, 4.0);
  t.reset();
  EXPECT_DOUBLE_EQ(t.busy_until(), 0.0);
  EXPECT_DOUBLE_EQ(t.busy_time(), 0.0);
}

TEST(BandwidthLink, TransferTimeIsBytesOverBandwidth) {
  BandwidthLink link("pcie", 10.0, 0.5);  // 10 B/s, 0.5 s latency
  EXPECT_DOUBLE_EQ(link.seconds_for(20.0), 2.5);
  auto iv = link.transfer(0.0, 20.0);
  EXPECT_DOUBLE_EQ(iv.duration(), 2.5);
  auto iv2 = link.transfer(0.0, 10.0);  // queued behind the first
  EXPECT_DOUBLE_EQ(iv2.start, 2.5);
  EXPECT_DOUBLE_EQ(iv2.end, 4.0);
}

TEST(LanePool, DispatchesToEarliestFreeLane) {
  LanePool pool("cpu", 2);
  auto a = pool.acquire(0.0, 4.0);
  auto b = pool.acquire(0.0, 1.0);
  EXPECT_DOUBLE_EQ(a.start, 0.0);
  EXPECT_DOUBLE_EQ(b.start, 0.0);  // second lane
  auto c = pool.acquire(0.0, 1.0);
  EXPECT_DOUBLE_EQ(c.start, 1.0);  // lane 2 frees first
  EXPECT_DOUBLE_EQ(pool.busy_until(), 4.0);
}

TEST(LanePool, SingleLaneDegeneratesToTimeline) {
  LanePool pool("one", 1);
  auto a = pool.acquire(0.0, 2.0);
  auto b = pool.acquire(0.0, 2.0);
  EXPECT_DOUBLE_EQ(a.end, 2.0);
  EXPECT_DOUBLE_EQ(b.start, 2.0);
}

TEST(LanePool, RejectsZeroLanes) {
  EXPECT_THROW(LanePool("bad", 0), std::invalid_argument);
}

TEST(Trace, UtilizationAndOverlap) {
  Trace tr;
  tr.record("compute", "f", {0.0, 8.0});
  tr.record("pcie", "t", {2.0, 6.0});
  tr.record("pcie", "t", {9.0, 10.0});
  EXPECT_DOUBLE_EQ(tr.end_time(), 10.0);
  EXPECT_DOUBLE_EQ(tr.utilization("compute"), 0.8);
  EXPECT_DOUBLE_EQ(tr.utilization("pcie"), 0.5);
  // 4 of 5 pcie seconds overlap compute.
  EXPECT_DOUBLE_EQ(tr.overlap_fraction("pcie", "compute"), 0.8);
}

TEST(Trace, EmptyTraceMetricsAreZero) {
  Trace tr;
  EXPECT_DOUBLE_EQ(tr.end_time(), 0.0);
  EXPECT_DOUBLE_EQ(tr.utilization("gpu"), 0.0);
  EXPECT_DOUBLE_EQ(tr.overlap_fraction("gpu", "pcie"), 0.0);
}

TEST(Trace, ZeroLengthSpansContributeNothing) {
  Trace tr;
  tr.record("mem", "defer", {3.0, 3.0});  // engine's deferred-prefetch marker
  tr.record("gpu", "f", {0.0, 4.0});
  EXPECT_DOUBLE_EQ(tr.end_time(), 4.0);
  EXPECT_DOUBLE_EQ(tr.utilization("mem"), 0.0);
  EXPECT_DOUBLE_EQ(tr.utilization("gpu"), 1.0);
  EXPECT_DOUBLE_EQ(tr.overlap_fraction("mem", "gpu"), 0.0);
  EXPECT_DOUBLE_EQ(tr.overlap_fraction("gpu", "mem"), 0.0);
}

TEST(Trace, OverlappingSpansOnOneResourceDoNotExceedFullUtilization) {
  // Real wall-clock traces (obs::to_sim_trace) carry nested/concurrent spans
  // on one track; busy time must be the interval union, not the sum.
  Trace tr;
  tr.record("gpu", "outer", {0.0, 8.0});
  tr.record("gpu", "inner", {2.0, 6.0});
  tr.record("gpu", "tail", {7.0, 10.0});
  EXPECT_DOUBLE_EQ(tr.utilization("gpu"), 1.0);
}

TEST(Trace, OverlapFractionDoesNotDoubleCountDuplicateBSpans) {
  Trace tr;
  tr.record("pcie", "t", {0.0, 4.0});
  tr.record("gpu", "f", {1.0, 3.0});
  tr.record("gpu", "f", {1.0, 3.0});  // duplicate busy window on b
  // 2 of 4 pcie seconds coincide with gpu busy time, regardless of how many
  // gpu spans cover that window.
  EXPECT_DOUBLE_EQ(tr.overlap_fraction("pcie", "gpu"), 0.5);
}

TEST(Trace, RenderProducesOneRowPerResource) {
  Trace tr;
  tr.record("gpu", "f", {0.0, 1.0});
  tr.record("pcie", "c", {0.5, 1.0});
  std::ostringstream os;
  tr.render(os, 20);
  const std::string out = os.str();
  EXPECT_NE(out.find("gpu"), std::string::npos);
  EXPECT_NE(out.find("pcie"), std::string::npos);
  EXPECT_NE(out.find('f'), std::string::npos);
  EXPECT_NE(out.find('c'), std::string::npos);
}

TEST(Trace, CsvHasHeaderAndRows) {
  Trace tr;
  tr.record("gpu", "fp", {0.0, 1.5});
  std::ostringstream os;
  tr.write_csv(os);
  EXPECT_NE(os.str().find("resource,label,start,end"), std::string::npos);
  EXPECT_NE(os.str().find("gpu,fp,0,1.5"), std::string::npos);
}

TEST(Hardware, V100SpecsMatchPaperPlatform) {
  const auto m = v100_server();
  EXPECT_NEAR(m.gpu.mem_bytes / (1024.0 * 1024 * 1024), 32.0, 1e-9);
  EXPECT_NEAR(m.gpu.peak_flops, 15.7e12, 1e9);
  EXPECT_EQ(m.cpu.cores, 48);
  EXPECT_GT(m.cpu.ram_bytes, 700.0 * 1024 * 1024 * 1024);
  EXPECT_GT(m.pcie_bytes_per_s, 0.0);
}

TEST(Hardware, A10ClusterHasEightNodes) {
  const auto c = a10_cluster();
  EXPECT_EQ(c.num_nodes, 8);
  EXPECT_NEAR(c.node.gpu.mem_bytes / (1024.0 * 1024 * 1024), 24.0, 1e-9);
  EXPECT_EQ(c.node.cpu.cores, 128);
}

TEST(Hardware, EffectiveFlopsIncreasesWithBatch) {
  const auto g = v100_server().gpu;
  EXPECT_LT(g.effective_flops(1), g.effective_flops(4));
  EXPECT_LT(g.effective_flops(4), g.effective_flops(16));
  EXPECT_LT(g.effective_flops(1024), g.peak_flops);
}

}  // namespace
}  // namespace sh::sim
