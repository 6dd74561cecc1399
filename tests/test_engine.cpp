// End-to-end correctness of the STRONGHOLD offload engine: offloaded,
// windowed, concurrently-updated training must match conventional monolithic
// training exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/monolithic.hpp"
#include "data/synthetic.hpp"
#include "storage/fault_plan.hpp"
#include "testing/util.hpp"
#include "testing/watchdog.hpp"

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

/// Trains `steps` iterations through the engine and returns the final
/// parameter snapshot and losses.
std::pair<std::vector<float>, std::vector<float>> run_engine(
    const nn::GptConfig& mcfg, EngineConfig ecfg,
    const std::vector<data::Batch>& batches) {
  nn::GptModel model(mcfg);
  StrongholdEngine engine(model, std::move(ecfg));
  engine.init_params(42);
  std::vector<float> losses;
  for (const auto& b : batches) losses.push_back(engine.train_step(b));
  std::vector<float> params;
  engine.snapshot_params(params);
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

TEST(Engine, OffloadedTrainingMatchesMonolithicBitwise) {
  const auto mcfg = tiny_config();
  const auto batches = make_batches(2, mcfg.max_seq, 3);
  const auto [ref_params, ref_losses] = run_monolithic(mcfg, batches);

  EngineConfig ecfg;
  ecfg.window = 2;
  const auto [params, losses] = run_engine(mcfg, ecfg, batches);

  ASSERT_EQ(params.size(), ref_params.size());
  for (std::size_t i = 0; i < losses.size(); ++i) {
    EXPECT_EQ(losses[i], ref_losses[i]) << "loss diverged at step " << i;
  }
  sh::testing::expect_allclose(params, ref_params, 0.0f, 0.0f);
}

class WindowSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WindowSweep, EveryWindowSizeIsExact) {
  const auto mcfg = tiny_config();
  const auto batches = make_batches(2, mcfg.max_seq, 2);
  const auto [ref_params, ref_losses] = run_monolithic(mcfg, batches);

  EngineConfig ecfg;
  ecfg.window = GetParam();
  const auto [params, losses] = run_engine(mcfg, ecfg, batches);
  EXPECT_EQ(losses, ref_losses);
  sh::testing::expect_allclose(params, ref_params, 0.0f, 0.0f);
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

TEST(Engine, ThrottledTransfersDoNotChangeResults) {
  const auto mcfg = tiny_config();
  const auto batches = make_batches(2, mcfg.max_seq, 2);
  const auto [ref_params, ref_losses] = run_monolithic(mcfg, batches);

  EngineConfig ecfg;
  ecfg.window = 1;
  ecfg.h2d_bytes_per_s = 4e6;  // slow enough to provoke real stalls
  ecfg.d2h_bytes_per_s = 4e6;
  const auto [params, losses] = run_engine(mcfg, ecfg, batches);
  EXPECT_EQ(losses, ref_losses);
  sh::testing::expect_allclose(params, ref_params, 0.0f, 0.0f);
}

TEST(Engine, CheckpointedActivationsMatchMonolithic) {
  const auto mcfg = tiny_config(/*checkpoint=*/true);
  const auto batches = make_batches(2, mcfg.max_seq, 2);
  const auto [ref_params, ref_losses] = run_monolithic(mcfg, batches);
  EngineConfig ecfg;
  ecfg.window = 2;
  const auto [params, losses] = run_engine(mcfg, ecfg, batches);
  EXPECT_EQ(losses, ref_losses);
  sh::testing::expect_allclose(params, ref_params, 0.0f, 0.0f);
}

TEST(Engine, MultiExecutorMatchesSingleExecutor) {
  const auto mcfg = tiny_config();
  const auto batches = make_batches(4, mcfg.max_seq, 2);

  EngineConfig single;
  single.window = 2;
  const auto [p1, l1] = run_engine(mcfg, single, batches);

  EngineConfig multi;
  multi.window = 2;
  multi.num_executors = 2;
  const auto [p2, l2] = run_engine(mcfg, multi, batches);

  // Micro-batch splitting reorders float additions; results agree to a tight
  // tolerance but not bitwise.
  for (std::size_t i = 0; i < l1.size(); ++i) {
    EXPECT_NEAR(l1[i], l2[i], 1e-5f);
  }
  sh::testing::expect_allclose(p2, p1, 1e-5f, 1e-4f);
}

TEST(Engine, FourExecutorsStillCorrect) {
  const auto mcfg = tiny_config();
  const auto batches = make_batches(4, mcfg.max_seq, 1);
  EngineConfig single;
  single.window = 3;
  const auto [p1, l1] = run_engine(mcfg, single, batches);
  EngineConfig multi;
  multi.window = 3;
  multi.num_executors = 4;
  const auto [p4, l4] = run_engine(mcfg, multi, batches);
  EXPECT_NEAR(l1[0], l4[0], 1e-5f);
  sh::testing::expect_allclose(p4, p1, 1e-5f, 1e-4f);
}

TEST(Engine, SwapTierTrainingMatchesInMemory) {
  const auto mcfg = tiny_config();
  const auto batches = make_batches(2, mcfg.max_seq, 2);
  const auto [ref_params, ref_losses] = run_monolithic(mcfg, batches);

  EngineConfig ecfg;
  ecfg.window = 1;
  // Budget only covers the first couple of layers; the rest live on "NVMe".
  ecfg.cpu_capacity_bytes = 64 * 1024;
  ecfg.swap_path = ::testing::TempDir() + "engine_swap.bin";
  nn::GptModel model(mcfg);
  StrongholdEngine engine(model, ecfg);
  EXPECT_GT(engine.stats().swap_backed_layers, 0u);
  engine.init_params(42);
  std::vector<float> losses;
  for (const auto& b : batches) losses.push_back(engine.train_step(b));
  std::vector<float> params;
  engine.snapshot_params(params);
  EXPECT_EQ(losses, ref_losses);
  sh::testing::expect_allclose(params, ref_params, 0.0f, 0.0f);
}

TEST(Engine, FaultyTierLossBitIdentical) {
  // Training against an unhealthy NVMe tier (latency spikes, short ops and
  // transient EIOs on ~90% of attempts) must degrade gracefully: the window
  // stalls while the tier retries, and the numbers are bit-identical to a
  // healthy-tier run because retried ops are idempotent.
  const auto mcfg = tiny_config();
  const auto batches = make_batches(2, mcfg.max_seq, 2);

  EngineConfig healthy;
  healthy.window = 1;
  healthy.cpu_capacity_bytes = 64 * 1024;
  healthy.swap_path = ::testing::TempDir() + "engine_swap_healthy.bin";
  const auto [ref_params, ref_losses] = run_engine(mcfg, healthy, batches);

  EngineConfig faulted = healthy;
  faulted.swap_path = ::testing::TempDir() + "engine_swap_faulted.bin";
  faulted.swap_faults.rate = 0.9;
  faulted.swap_faults.seed = 2026;
  faulted.swap_faults.latency_spike_s = 1e-4;
  faulted.swap_faults.max_faults_per_op = 2;  // bounded: attempt 2 recovers
  faulted.swap_faults.max_attempts = 4;
  faulted.swap_faults.backoff_initial_s = 1e-5;

  nn::GptModel model(mcfg);
  StrongholdEngine engine(model, faulted);
  engine.init_params(42);
  std::vector<float> losses;
  for (const auto& b : batches) losses.push_back(engine.train_step(b));
  std::vector<float> params;
  engine.snapshot_params(params);

  const auto s = engine.stats();
  EXPECT_GT(s.swap_faults_injected, 0u) << "fault plan never fired";
  EXPECT_GT(s.swap_retries, 0u) << "no retry was exercised";
  EXPECT_EQ(s.swap_io_errors, 0u) << "bounded faults must all recover";
  EXPECT_EQ(losses, ref_losses);
  sh::testing::expect_allclose(params, ref_params, 0.0f, 0.0f);
}

class EngineFault : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineFault, FaultBudgetExhaustedRaisesIoError) {
  // A permanently failing tier (every read attempt EIOs, budget SIZE_MAX)
  // must surface as a typed storage::IoError from train_step — the trainer
  // can checkpoint — not as an abort or a hang, whatever the executor
  // count: executor 0 fails in its fetch while its peers wait on the step
  // barrier. The engine must still tear down cleanly afterwards.
  const auto mcfg = tiny_config();
  const auto batches = make_batches(4, mcfg.max_seq, 1);
  EngineConfig ecfg;
  ecfg.window = 1;
  ecfg.num_executors = GetParam();
  ecfg.cpu_capacity_bytes = 64 * 1024;
  ecfg.swap_path = ::testing::TempDir() + "engine_swap_dead_" +
                   std::to_string(GetParam()) + ".bin";
  ecfg.swap_faults.rate = 1.0;
  ecfg.swap_faults.latency_weight = 0.0;
  ecfg.swap_faults.short_weight = 0.0;
  ecfg.swap_faults.fault_writes = false;  // init_params can seed the tier
  ecfg.swap_faults.max_faults_per_op =
      std::numeric_limits<std::size_t>::max();
  ecfg.swap_faults.max_attempts = 3;
  ecfg.swap_faults.backoff_initial_s = 1e-5;

  nn::GptModel model(mcfg);
  {
    StrongholdEngine engine(model, ecfg);
    engine.init_params(42);
    EXPECT_GT(engine.stats().swap_backed_layers, 0u);
    EXPECT_THROW(engine.train_step(batches[0]), storage::IoError);
    EXPECT_GT(engine.stats().swap_io_errors, 0u);
  }  // destructor joins the workers without hanging or rethrowing
}

INSTANTIATE_TEST_SUITE_P(
    Executors, EngineFault,
    ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{4}),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::to_string(info.param);
    });

std::vector<std::int64_t> layer_steps(StrongholdEngine& engine) {
  const ckpt::Snapshot snap = engine.capture_snapshot();
  const auto& blob = snap.blobs.entries.at("engine.layer_steps");
  std::vector<std::int64_t> steps(blob.size() / sizeof(std::int64_t));
  std::memcpy(steps.data(), blob.data(), blob.size());
  return steps;
}

TEST(EngineClipFault, MidStepTierFaultAppliesNoUpdateAndTearsDown) {
  // Under global-norm clipping no layer update exists before the norm does,
  // so a tier read that fails mid-step applies none of that step's updates:
  // every layer's optimizer step still equals the iteration count, also
  // after training on, and capture and teardown return instead of waiting
  // on updates that can never run. The failure mode this guards against is
  // a hang, so the test body runs in a child process under a deadline.
  if (!sh::testing::in_watchdog_child()) {
    sh::testing::run_in_child_within(120.0);
    return;
  }
  nn::GptConfig mcfg = tiny_config();
  mcfg.layers = 6;
  const std::size_t window = 1;
  // The fault plan is a seeded pure function: search for a seed that fails
  // a fetch read during backward, after some blocks have offloaded their
  // gradients — the point where their updates would already exist if they
  // were queued before the norm.
  bool exercised = false;
  for (std::uint64_t seed = 0; seed < 64 && !exercised; ++seed) {
    EngineConfig ecfg;
    ecfg.window = window;
    ecfg.clip_grad_norm = 1.0f;
    ecfg.cpu_capacity_bytes = 16 * 1024;
    ecfg.swap_path = ::testing::TempDir() + "engine_clip_fault.bin";
    ecfg.swap_faults.rate = 0.02;
    ecfg.swap_faults.seed = seed;
    ecfg.swap_faults.latency_weight = 0.0;
    ecfg.swap_faults.short_weight = 0.0;
    ecfg.swap_faults.fault_writes = false;  // reads only: faults are mid-step
    ecfg.swap_faults.max_faults_per_op =
        std::numeric_limits<std::size_t>::max();
    ecfg.swap_faults.max_attempts = 1;
    nn::GptModel model(mcfg);
    StrongholdEngine engine(model, ecfg);
    engine.init_params(42);
    ASSERT_GT(engine.stats().swap_backed_layers, 0u);
    data::SyntheticCorpus corpus(mcfg.vocab, 9);
    std::size_t completed = 0;
    try {
      for (; completed < 20; ++completed) {
        engine.train_step(corpus.next_batch(2, mcfg.max_seq));
      }
      continue;  // no read faulted within the horizon; next seed
    } catch (const storage::IoError&) {
    }
    ASSERT_EQ(engine.stats().iterations, completed) << "seed " << seed;
    const std::vector<std::int64_t> steps = layer_steps(engine);  // drains
    EXPECT_EQ(steps, std::vector<std::int64_t>(
                         model.num_layers(),
                         static_cast<std::int64_t>(completed)))
        << "seed " << seed;
    // Every completed step offloads the gradients of the blocks outside the
    // window; any beyond that were offloaded by the failed step.
    const auto offloaded = static_cast<std::size_t>(mcfg.layers) - window;
    exercised = engine.stats().d2h_transfers > completed * offloaded;
    // Training on must not apply the failed step's updates late.
    for (int i = 0; i < 2; ++i) {
      try {
        engine.train_step(corpus.next_batch(2, mcfg.max_seq));
      } catch (const storage::IoError&) {
      }
    }
    const auto iterations =
        static_cast<std::int64_t>(engine.stats().iterations);
    EXPECT_EQ(layer_steps(engine),
              std::vector<std::int64_t>(model.num_layers(), iterations))
        << "seed " << seed;
  }  // each engine destructs here, with the failed step's updates dropped
  ASSERT_TRUE(exercised)
      << "no fault seed in [0,64) failed a read during backward";
}

TEST(Engine, OptimizerUpdatesCountEveryAppliedUpdate) {
  // stats().optimizer_updates reads the pool's live counter: once
  // snapshot_params has drained the pool, it counts every update applied,
  // including those still queued behind a slow d2h link at step end.
  const auto mcfg = tiny_config();
  const auto batches = make_batches(2, mcfg.max_seq, 3);
  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = 1;
  ecfg.d2h_bytes_per_s = 1e6;
  StrongholdEngine engine(model, ecfg);
  engine.init_params(3);
  for (const auto& b : batches) engine.train_step(b);
  std::vector<float> params;
  engine.snapshot_params(params);
  EXPECT_EQ(engine.stats().optimizer_updates,
            batches.size() * model.num_layers());
}

TEST(Engine, AutoWindowSelectsAndFreezes) {
  const auto mcfg = tiny_config();
  const auto batches = make_batches(2, mcfg.max_seq, 4);
  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = 0;  // automatic
  ecfg.warmup_iterations = 2;
  StrongholdEngine engine(model, ecfg);
  engine.init_params(1);
  for (const auto& b : batches) engine.train_step(b);
  const auto s = engine.stats();
  EXPECT_TRUE(s.window_auto_selected);
  EXPECT_GE(s.window, 1u);
  EXPECT_LE(s.window, static_cast<std::size_t>(mcfg.layers));
  EXPECT_EQ(s.iterations, batches.size());
}

TEST(Engine, AutoWindowStillMatchesMonolithic) {
  const auto mcfg = tiny_config();
  const auto batches = make_batches(2, mcfg.max_seq, 4);
  const auto [ref_params, ref_losses] = run_monolithic(mcfg, batches);
  EngineConfig ecfg;
  ecfg.window = 0;
  ecfg.warmup_iterations = 1;
  const auto [params, losses] = run_engine(mcfg, ecfg, batches);
  EXPECT_EQ(losses, ref_losses);
  sh::testing::expect_allclose(params, ref_params, 0.0f, 0.0f);
}

TEST(Engine, OomWhenGpuCannotHoldWindow) {
  const auto mcfg = tiny_config();
  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = 4;
  ecfg.gpu_memory_bytes = 16 * 1024;  // pinned layers alone exceed this
  EXPECT_THROW(StrongholdEngine(model, ecfg), mem::OomError);
}

TEST(Engine, TracksTransferAndStallStatistics) {
  const auto mcfg = tiny_config();
  const auto batches = make_batches(2, mcfg.max_seq, 2);
  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = 1;
  ecfg.h2d_bytes_per_s = 2e6;
  StrongholdEngine engine(model, ecfg);
  engine.init_params(7);
  for (const auto& b : batches) engine.train_step(b);
  const auto s = engine.stats();
  EXPECT_GT(s.h2d_transfers, 0u);
  EXPECT_GT(s.d2h_transfers, 0u);
  EXPECT_GT(s.h2d_bytes, 0u);
  EXPECT_GT(s.optimizer_updates, 0u);
  // A window of one with a slow link must stall at least once.
  EXPECT_GT(s.prefetch_stalls, 0u);
  EXPECT_GT(s.gpu_high_water_bytes, 0u);
}

TEST(Engine, LossDecreasesOnLearnableData) {
  const auto mcfg = tiny_config();
  data::SyntheticCorpus corpus(32, 5);
  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.adam.lr = 3e-3f;
  StrongholdEngine engine(model, ecfg);
  engine.init_params(3);
  const int steps = 120;
  std::vector<float> losses;
  for (int i = 0; i < steps; ++i) {
    losses.push_back(engine.train_step(corpus.next_batch(4, mcfg.max_seq)));
  }
  auto mean = [&](int lo, int hi) {
    float s = 0.0f;
    for (int i = lo; i < hi; ++i) s += losses[static_cast<std::size_t>(i)];
    return s / static_cast<float>(hi - lo);
  };
  const float early = mean(0, 10);
  const float late = mean(steps - 10, steps);
  EXPECT_LT(late, early * 0.8f) << "training did not reduce the loss (early "
                                << early << ", late " << late << ")";
}

TEST(Engine, InferenceMatchesAcrossWindowSizes) {
  const auto mcfg = tiny_config();
  data::SyntheticCorpus corpus(32, 11);
  const auto batch = corpus.next_batch(2, mcfg.max_seq);
  const nn::BatchShape shape{2, mcfg.max_seq};

  nn::GptModel m1(mcfg), m2(mcfg);
  EngineConfig c1;
  c1.window = 1;
  EngineConfig c2;
  c2.window = 4;
  StrongholdEngine e1(m1, c1), e2(m2, c2);
  e1.init_params(21);
  e2.init_params(21);
  auto out1 = e1.inference(batch.ids, shape);
  auto out2 = e2.inference(batch.ids, shape);
  sh::testing::expect_allclose(out1.span(), out2.span(), 0.0f, 0.0f);
}

TEST(Engine, InferenceObserverSeesEveryBlock) {
  const auto mcfg = tiny_config();
  data::SyntheticCorpus corpus(32, 13);
  const auto batch = corpus.next_batch(1, mcfg.max_seq);
  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = 2;
  StrongholdEngine engine(model, ecfg);
  engine.init_params(9);
  std::vector<std::size_t> seen;
  engine.inference(batch.ids, {1, mcfg.max_seq},
                   [&](std::size_t layer, const tensor::Tensor& act) {
                     seen.push_back(layer);
                     EXPECT_EQ(act.shape().dim(1), mcfg.hidden);
                   });
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(mcfg.layers));
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i + 1);
}

TEST(Engine, TrainingAfterInferenceStaysCorrect) {
  const auto mcfg = tiny_config();
  const auto batches = make_batches(2, mcfg.max_seq, 2);
  const auto [ref_params, ref_losses] = run_monolithic(mcfg, batches);

  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = 2;
  StrongholdEngine engine(model, ecfg);
  engine.init_params(42);
  (void)engine.inference(batches[0].ids, {2, mcfg.max_seq});
  std::vector<float> losses;
  for (const auto& b : batches) losses.push_back(engine.train_step(b));
  std::vector<float> params;
  engine.snapshot_params(params);
  EXPECT_EQ(losses, ref_losses);
  sh::testing::expect_allclose(params, ref_params, 0.0f, 0.0f);
}

TEST(Engine, OutOfRangeIdsAndTargetsThrowBeforeAnyUpdate) {
  // A token id or target outside [0, vocab) would index past the embedding
  // table or a logits row. train_step raises std::out_of_range before any
  // update: the step does not count, the parameters are untouched, and
  // training then continues exactly as if the bad batch had never come.
  const auto mcfg = tiny_config();
  const auto batches = make_batches(2, mcfg.max_seq, 2);
  EngineConfig ecfg;
  ecfg.window = 1;
  const auto [ref_params, ref_losses] = run_engine(mcfg, ecfg, batches);

  nn::GptModel model(mcfg);
  StrongholdEngine engine(model, ecfg);
  engine.init_params(42);
  std::vector<float> losses = {engine.train_step(batches[0])};
  std::vector<float> before;
  engine.snapshot_params(before);
  const auto vocab = static_cast<std::int32_t>(mcfg.vocab);
  struct Case {
    const char* what;
    bool target;
    std::int32_t value;
  };
  for (const Case c : {Case{"id == vocab", false, vocab},
                       Case{"target == vocab", true, vocab},
                       Case{"id == -1", false, -1}}) {
    data::Batch bad = batches[1];
    (c.target ? bad.targets : bad.ids)[5] = c.value;
    EXPECT_THROW(engine.train_step(bad), std::out_of_range) << c.what;
    EXPECT_EQ(engine.stats().iterations, 1u) << c.what;
    std::vector<float> after;
    engine.snapshot_params(after);
    EXPECT_TRUE(sh::testing::bits_equal(after, before)) << c.what;
  }
  losses.push_back(engine.train_step(batches[1]));
  std::vector<float> params;
  engine.snapshot_params(params);
  EXPECT_EQ(losses, ref_losses);
  EXPECT_TRUE(sh::testing::bits_equal(params, ref_params));
}

TEST(Engine, InferenceAndDecodingRejectOutOfRangeIds) {
  const auto mcfg = tiny_config();
  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = 1;
  StrongholdEngine engine(model, ecfg);
  engine.init_params(42);
  const std::vector<std::int32_t> good = {1, 2, 3, 4};
  const auto want = engine.generate_incremental(good, 3);
  const auto vocab = static_cast<std::int32_t>(mcfg.vocab);
  const std::vector<std::int32_t> bad = {1, vocab, 3, 4};
  EXPECT_THROW(engine.inference(bad, {1, 4}), std::out_of_range);
  EXPECT_THROW(engine.generate_incremental(bad, 3), std::out_of_range);
  EXPECT_EQ(engine.generate_incremental(good, 3), want);  // still usable
}

TEST(Engine, RejectsInvalidConfigs) {
  const auto mcfg = tiny_config();
  nn::GptModel model(mcfg);
  EngineConfig bad_exec;
  bad_exec.num_executors = 0;
  EXPECT_THROW(StrongholdEngine(model, bad_exec), std::invalid_argument);

  EngineConfig bad_swap;
  bad_swap.cpu_capacity_bytes = 1024;  // capacity without a swap path
  EXPECT_THROW(StrongholdEngine(model, bad_swap), std::invalid_argument);
}

TEST(Engine, RejectsIndivisibleBatchForExecutors) {
  const auto mcfg = tiny_config();
  nn::GptModel model(mcfg);
  EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.num_executors = 2;
  StrongholdEngine engine(model, ecfg);
  engine.init_params(1);
  data::SyntheticCorpus corpus(32, 1);
  auto batch = corpus.next_batch(3, mcfg.max_seq);  // 3 % 2 != 0
  EXPECT_THROW(engine.train_step(batch), std::invalid_argument);
}

}  // namespace
}  // namespace sh::core
