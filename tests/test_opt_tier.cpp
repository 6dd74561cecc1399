// Three-tier optimizer-state offload (SH_OPT_TIER=nvme): moments paged
// through the swap tier must never change the numbers — healthy, faulted or
// under activation-spill pressure — and an exhausted fault budget must
// surface as a typed IoError at a step boundary with no torn state.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <vector>

#include "baselines/stronghold_strategy.hpp"
#include "baselines/strategy.hpp"
#include "core/engine.hpp"
#include "core/monolithic.hpp"
#include "core/window_model.hpp"
#include "data/synthetic.hpp"
#include "sim/hardware.hpp"
#include "storage/fault_plan.hpp"
#include "testing/util.hpp"

namespace sh::core {
namespace {

nn::GptConfig tiny_config(bool checkpoint = false) {
  nn::GptConfig cfg;
  cfg.vocab = 32;
  cfg.max_seq = 8;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.layers = 4;
  cfg.checkpoint_activations = checkpoint;
  return cfg;
}

std::vector<data::Batch> make_batches(std::int64_t bs, std::int64_t seq,
                                      int count, std::uint64_t seed = 99) {
  data::SyntheticCorpus corpus(32, seed);
  std::vector<data::Batch> out;
  for (int i = 0; i < count; ++i) out.push_back(corpus.next_batch(bs, seq));
  return out;
}

EngineConfig nvme_tier_config(const std::string& tag) {
  EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.optimizer_tier = OptimizerTier::nvme;
  ecfg.swap_path = ::testing::TempDir() + "opt_tier_" + tag + ".bin";
  return ecfg;
}

std::pair<std::vector<float>, std::vector<float>> run_engine(
    const nn::GptConfig& mcfg, EngineConfig ecfg,
    const std::vector<data::Batch>& batches, EngineStats* stats = nullptr) {
  nn::GptModel model(mcfg);
  StrongholdEngine engine(model, std::move(ecfg));
  engine.init_params(42);
  std::vector<float> losses;
  for (const auto& b : batches) losses.push_back(engine.train_step(b));
  std::vector<float> params;
  engine.snapshot_params(params);
  if (stats != nullptr) *stats = engine.stats();
  return {params, losses};
}

std::pair<std::vector<float>, std::vector<float>> run_monolithic(
    const nn::GptConfig& mcfg, const std::vector<data::Batch>& batches) {
  nn::GptModel model(mcfg);
  MonolithicTrainer trainer(model, optim::AdamConfig{});
  trainer.init_params(42);
  std::vector<float> losses;
  for (const auto& b : batches) losses.push_back(trainer.train_step(b));
  std::vector<float> params;
  trainer.snapshot_params(params);
  return {params, losses};
}

TEST(OptTier, NvmeMomentsMatchMonolithicBitwise) {
  const auto mcfg = tiny_config();
  const auto batches = make_batches(2, mcfg.max_seq, 3);
  const auto [ref_params, ref_losses] = run_monolithic(mcfg, batches);

  EngineStats stats;
  const auto [params, losses] =
      run_engine(mcfg, nvme_tier_config("bitwise"), batches, &stats);

  EXPECT_GT(stats.opt_tiered_layers, 0u) << "no layer's moments were tiered";
  EXPECT_GT(stats.moment_writes, 0u) << "no moment write-back reached the tier";
  EXPECT_GT(stats.moment_prefetches + stats.moment_demand_reads, 0u);
  EXPECT_EQ(stats.moment_update_skips, 0u);
  EXPECT_EQ(losses, ref_losses);
  sh::testing::expect_allclose(params, ref_params, 0.0f, 0.0f);
}

TEST(OptTier, CombinesWithSwapBackedLayerStates) {
  // Moments on the tier AND layer params/opt regions past the CPU budget on
  // the same swap file (distinct key spaces) — still bit-identical.
  const auto mcfg = tiny_config();
  const auto batches = make_batches(2, mcfg.max_seq, 2);
  const auto [ref_params, ref_losses] = run_monolithic(mcfg, batches);

  EngineConfig ecfg = nvme_tier_config("combined");
  ecfg.window = 1;
  ecfg.cpu_capacity_bytes = 64 * 1024;
  EngineStats stats;
  const auto [params, losses] = run_engine(mcfg, ecfg, batches, &stats);
  EXPECT_GT(stats.swap_backed_layers, 0u);
  EXPECT_GT(stats.opt_tiered_layers, 0u);
  EXPECT_EQ(losses, ref_losses);
  sh::testing::expect_allclose(params, ref_params, 0.0f, 0.0f);
}

TEST(OptTier, EnvVarSelectsTierAndRejectsGarbage) {
  const auto mcfg = tiny_config();
  ::setenv("SH_OPT_TIER", "nvme", 1);
  {
    nn::GptModel model(mcfg);
    EngineConfig ecfg;
    ecfg.window = 2;
    ecfg.swap_path = ::testing::TempDir() + "opt_tier_env.bin";
    StrongholdEngine engine(model, ecfg);
    EXPECT_GT(engine.stats().opt_tiered_layers, 0u);
  }
  {
    // The tier needs a backing file: nvme without swap_path must be a
    // loud config error, not a silent fallback.
    nn::GptModel model(mcfg);
    EXPECT_THROW(StrongholdEngine(model, EngineConfig{}),
                 std::invalid_argument);
  }
  ::setenv("SH_OPT_TIER", "floppy", 1);
  {
    nn::GptModel model(mcfg);
    EngineConfig ecfg;
    ecfg.swap_path = ::testing::TempDir() + "opt_tier_env2.bin";
    EXPECT_THROW(StrongholdEngine(model, ecfg), std::invalid_argument);
  }
  ::unsetenv("SH_OPT_TIER");
}

TEST(OptTier, FaultedMomentPagingLossBitIdentical) {
  // Transient tier faults during moment paging (reads and write-backs) must
  // be absorbed by the retry policy: same losses, same params, no skips —
  // at every injection rate.
  const auto mcfg = tiny_config();
  const auto batches = make_batches(2, mcfg.max_seq, 3);
  const auto [ref_params, ref_losses] =
      run_engine(mcfg, nvme_tier_config("healthy"), batches);

  for (const double rate : {0.5, 0.9}) {
    EngineConfig faulted = nvme_tier_config("faulted_" + std::to_string(rate));
    faulted.swap_faults.rate = rate;
    faulted.swap_faults.seed = 2026;
    faulted.swap_faults.latency_spike_s = 1e-4;
    faulted.swap_faults.max_faults_per_op = 2;  // bounded: retries recover
    faulted.swap_faults.max_attempts = 4;
    faulted.swap_faults.backoff_initial_s = 1e-5;

    EngineStats stats;
    const auto [params, losses] = run_engine(mcfg, faulted, batches, &stats);
    EXPECT_GT(stats.swap_faults_injected, 0u)
        << "fault plan never fired at rate " << rate;
    EXPECT_EQ(stats.swap_io_errors, 0u);
    EXPECT_EQ(stats.moment_update_skips, 0u)
        << "bounded transient faults must not skip updates";
    EXPECT_EQ(losses, ref_losses) << "loss diverged at rate " << rate;
    sh::testing::expect_allclose(params, ref_params, 0.0f, 0.0f);
  }
}

TEST(OptTier, ExhaustedBudgetRaisesIoErrorWithoutTornState) {
  // A permanently failing tier (every moment read EIOs past the retry
  // budget) must skip the affected updates atomically — params, moments and
  // step counters keep their pre-update values — and surface a typed
  // storage::IoError at a step boundary, never a torn update or a hang.
  const auto mcfg = tiny_config();
  const auto batches = make_batches(2, mcfg.max_seq, 2);

  EngineConfig ecfg = nvme_tier_config("dead");
  ecfg.swap_faults.rate = 1.0;
  ecfg.swap_faults.latency_weight = 0.0;
  ecfg.swap_faults.short_weight = 0.0;
  ecfg.swap_faults.fault_writes = false;  // init can seed the zero moments
  ecfg.swap_faults.max_faults_per_op = std::numeric_limits<std::size_t>::max();
  ecfg.swap_faults.max_attempts = 3;
  ecfg.swap_faults.backoff_initial_s = 1e-5;

  nn::GptModel model(mcfg);
  {
    StrongholdEngine engine(model, ecfg);
    engine.init_params(42);
    std::vector<float> before;
    engine.snapshot_params(before);

    bool threw = false;
    try {
      for (const auto& b : batches) engine.train_step(b);
    } catch (const storage::IoError&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << "dead moment tier never surfaced an IoError";

    // Every tiered update was skipped whole: the offloadable blocks'
    // masters are exactly the post-init values, never a torn mix of
    // stepped params and unstepped moments. (The pinned embedding/head
    // are not tiered and legitimately complete their updates.)
    std::vector<float> after;
    engine.snapshot_params(after);
    // Read after the drain: the skipped updates may still be queued when
    // train_step throws.
    EXPECT_GT(engine.stats().moment_update_skips, 0u);
    ASSERT_EQ(after.size(), before.size());
    const auto head =
        static_cast<std::size_t>(model.layer(0).param_count());
    const auto tail = static_cast<std::size_t>(
        model.layer(model.num_layers() - 1).param_count());
    for (std::size_t i = head; i < after.size() - tail; ++i) {
      ASSERT_EQ(after[i], before[i])
          << "tiered block parameter moved despite the skipped update, "
             "index "
          << i;
    }
  }  // destructor joins workers without hanging or rethrowing
}

TEST(OptTier, CheckpointRoundTripsAcrossTiers) {
  // The snapshot format is tier-transparent: a snapshot taken under
  // SH_OPT_TIER=nvme restores into a CPU-tier engine (and vice versa) and
  // both continue with bit-identical trajectories.
  const auto mcfg = tiny_config();
  const auto warm = make_batches(2, mcfg.max_seq, 2, 7);
  const auto cont = make_batches(2, mcfg.max_seq, 2, 8);

  nn::GptModel model_a(mcfg);
  StrongholdEngine tiered(model_a, nvme_tier_config("ckpt_src"));
  tiered.init_params(42);
  for (const auto& b : warm) tiered.train_step(b);
  const ckpt::Snapshot snap = tiered.capture_snapshot();

  // Restore into a CPU-tier engine and into a fresh NVMe-tier engine.
  nn::GptModel model_b(mcfg);
  EngineConfig cpu_cfg;
  cpu_cfg.window = 2;
  StrongholdEngine cpu_tier(model_b, cpu_cfg);
  cpu_tier.init_params(1);  // overwritten by the snapshot
  cpu_tier.restore_snapshot(snap);

  nn::GptModel model_c(mcfg);
  StrongholdEngine retiered(model_c, nvme_tier_config("ckpt_dst"));
  retiered.init_params(1);
  retiered.restore_snapshot(snap);

  for (const auto& b : cont) {
    const float l0 = tiered.train_step(b);
    EXPECT_EQ(l0, cpu_tier.train_step(b));
    EXPECT_EQ(l0, retiered.train_step(b));
  }
  std::vector<float> p0, p1, p2;
  tiered.snapshot_params(p0);
  cpu_tier.snapshot_params(p1);
  retiered.snapshot_params(p2);
  sh::testing::expect_allclose(p1, p0, 0.0f, 0.0f);
  sh::testing::expect_allclose(p2, p0, 0.0f, 0.0f);
}

TEST(OptTier, ActivationSpillUnderPressureStaysExact) {
  // Second tier client: with a byte-budget window too small for the
  // prefetch lookahead, arena pressure spills already-forwarded activation
  // checkpoints to the tier; they restore before their backward and the
  // numbers never move.
  const auto mcfg = tiny_config(/*checkpoint=*/true);
  const auto batches = make_batches(2, mcfg.max_seq, 3);
  const auto [ref_params, ref_losses] = run_monolithic(mcfg, batches);

  nn::GptModel probe(mcfg);
  std::size_t block_floats = 0;
  for (std::size_t i = 1; i + 1 < probe.num_layers(); ++i) {
    block_floats = std::max(
        block_floats,
        2 * static_cast<std::size_t>(probe.layer(i).param_count()));
  }

  EngineConfig ecfg = nvme_tier_config("spill");
  ecfg.window_mode = WindowMode::ByteBudget;
  // 2.5 slots where window 2 wants 3: every hook-time prefetch of a third
  // layer signals pressure before deferring.
  ecfg.window_budget_floats = 2 * block_floats + block_floats / 2;

  EngineStats stats;
  const auto [params, losses] = run_engine(mcfg, ecfg, batches, &stats);
  EXPECT_GT(stats.arena.pressure_events, 0u) << "pressure never fired";
  EXPECT_GT(stats.act_spills, 0u) << "no activation checkpoint was spilled";
  EXPECT_EQ(stats.act_spills, stats.act_restores)
      << "every spilled checkpoint must be restored for its backward";
  EXPECT_EQ(losses, ref_losses);
  sh::testing::expect_allclose(params, ref_params, 0.0f, 0.0f);
}

TEST(OptTier, WindowModelChargesMomentPaging) {
  // Eq. 3 must charge t_opt_cpu + t_opt_io; tier_io_hidden isolates the
  // I/O share so a tier-bound failure is distinguishable from a CPU-bound
  // one.
  WindowModelInput input;
  LayerProfile p;
  p.t_fp = 1.0;
  p.t_bp = 2.0;
  p.t_c2g = 0.1;
  p.t_g2c = 0.1;
  p.s_fp = 1.0;
  p.s_bp = 1.0;
  p.t_opt_cpu = 0.5;
  input.layers.assign(6, p);
  input.s_avail = 100.0;

  auto d = solve_window(input);
  ASSERT_TRUE(d.feasible);
  EXPECT_TRUE(d.update_hidden);
  EXPECT_TRUE(d.tier_io_hidden) << "zero t_opt_io must report hidden";

  for (auto& l : input.layers) l.t_opt_io = 1e6;  // tier far too slow
  d = solve_window(input);
  EXPECT_FALSE(d.update_hidden);
  EXPECT_FALSE(d.tier_io_hidden);

  // I/O hides but the CPU update does not: the refinement separates them.
  for (auto& l : input.layers) {
    l.t_opt_io = 0.1;
    l.t_opt_cpu = 1e6;
  }
  d = solve_window(input);
  EXPECT_FALSE(d.update_hidden);
  EXPECT_TRUE(d.tier_io_hidden);
}

TEST(OptTier, SimulatedCapacityAtLeastDoubles) {
  // The documented capacity story (docs/MEMORY_TIERS.md): at fixed GPU +
  // pinned CPU RAM, moving moments + spilled checkpoints to NVMe must at
  // least double the max trainable size on the paper's V100 server.
  const auto v100 = sim::v100_server();
  baselines::StrongholdOptions tiered;
  tiered.nvme_optimizer_tier = true;
  const baselines::StrongholdStrategy two_tier;
  const baselines::StrongholdStrategy three_tier(tiered);
  EXPECT_EQ(three_tier.name(), "STRONGHOLD(NVMe-opt)");

  baselines::Workload w;
  w.model = sim::table1_model(550, 2560);
  w.batch = 4;
  const auto base_cap = two_tier.capacity(w, v100);
  const auto tier_cap = three_tier.capacity(w, v100);
  EXPECT_FALSE(base_cap.fits);
  EXPECT_EQ(base_cap.limiter, "cpu-pinned");
  EXPECT_TRUE(tier_cap.fits) << "limiter: " << tier_cap.limiter;
  EXPECT_GT(tier_cap.nvme_bytes, 0.0);
  EXPECT_LT(tier_cap.cpu_bytes, 0.55 * base_cap.cpu_bytes)
      << "CPU bytes must roughly halve when moments leave RAM";

  const double base =
      baselines::largest_trainable_billions(two_tier, v100, 2560, 1, 4);
  const double grown =
      baselines::largest_trainable_billions(three_tier, v100, 2560, 1, 4);
  EXPECT_GT(base, 0.0);
  EXPECT_GE(grown, 2.0 * base)
      << "three-tier plan no longer doubles capacity: " << base << "B -> "
      << grown << "B";
}

}  // namespace
}  // namespace sh::core
