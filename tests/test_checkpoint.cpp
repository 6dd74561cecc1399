// Engine snapshots: capture/restore must resume exactly, restoring while
// layers are resident must refresh their device copies exactly as a fresh
// fetch would encode them, and a snapshot must resume at any window size —
// under every window encoding.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.hpp"
#include "data/synthetic.hpp"
#include "testing/util.hpp"

namespace sh::core {
namespace {

nn::GptConfig tiny_config() {
  nn::GptConfig cfg;
  cfg.vocab = 32;
  cfg.max_seq = 8;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.layers = 4;
  return cfg;
}

TEST(Checkpoint, ResumedEngineMatchesContinuousRun) {
  const auto mcfg = tiny_config();
  data::SyntheticCorpus corpus(mcfg.vocab, 50);
  std::vector<data::Batch> batches;
  for (int i = 0; i < 6; ++i) batches.push_back(corpus.next_batch(2, mcfg.max_seq));

  // Continuous run: 6 steps.
  nn::GptModel m1(mcfg);
  EngineConfig cfg;
  cfg.window = 2;
  StrongholdEngine cont(m1, cfg);
  cont.init_params(42);
  std::vector<float> cont_losses;
  for (const auto& b : batches) cont_losses.push_back(cont.train_step(b));
  std::vector<float> cont_params;
  cont.snapshot_params(cont_params);

  // Interrupted run: 3 steps, capture, restore into a FRESH engine, 3 more.
  ckpt::Snapshot snap;
  {
    nn::GptModel m2(mcfg);
    StrongholdEngine first(m2, cfg);
    first.init_params(42);
    for (int i = 0; i < 3; ++i) first.train_step(batches[static_cast<std::size_t>(i)]);
    snap = first.capture_snapshot();
  }
  nn::GptModel m3(mcfg);
  StrongholdEngine resumed(m3, cfg);
  resumed.init_params(0);  // wrong weights on purpose
  resumed.restore_snapshot(snap);
  std::vector<float> resumed_losses;
  for (int i = 3; i < 6; ++i) {
    resumed_losses.push_back(
        resumed.train_step(batches[static_cast<std::size_t>(i)]));
  }
  std::vector<float> resumed_params;
  resumed.snapshot_params(resumed_params);

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(resumed_losses[static_cast<std::size_t>(i)],
              cont_losses[static_cast<std::size_t>(i + 3)])
        << "loss diverged after resume at step " << i + 3;
  }
  sh::testing::expect_allclose(resumed_params, cont_params, 0.0f, 0.0f);
}

struct WindowCase {
  const char* name;
  tensor::DType dtype;
  tensor::Rounding rounding;
};

class CheckpointResident : public ::testing::TestWithParam<WindowCase> {};

TEST_P(CheckpointResident, RestoreMidTrainingRefreshesResidentLayers) {
  const auto mcfg = tiny_config();
  data::SyntheticCorpus corpus(mcfg.vocab, 51);
  const auto b0 = corpus.next_batch(2, mcfg.max_seq);
  const auto b1 = corpus.next_batch(2, mcfg.max_seq);

  nn::GptModel m1(mcfg);
  EngineConfig cfg;
  cfg.window = 2;
  cfg.window_dtype = GetParam().dtype;
  cfg.window_rounding = GetParam().rounding;
  StrongholdEngine engine(m1, cfg);
  engine.init_params(7);
  const ckpt::Snapshot s0 = engine.capture_snapshot();
  const float loss_fresh = engine.train_step(b0);
  std::vector<float> params_fresh;
  engine.snapshot_params(params_fresh);
  (void)engine.train_step(b1);  // drift away from S0
  engine.restore_snapshot(s0);  // rewind to S0 while layers are resident
  const float loss_again = engine.train_step(b0);
  std::vector<float> params_again;
  engine.snapshot_params(params_again);
  EXPECT_EQ(loss_again, loss_fresh);  // exact rewind
  sh::testing::expect_allclose(params_again, params_fresh, 0.0f, 0.0f);
}

class CheckpointAcrossWindows : public ::testing::TestWithParam<WindowCase> {};

TEST_P(CheckpointAcrossWindows, ResumesBitIdenticallyAtAnotherWindowSize) {
  // A snapshot carries FP32 masters and no residency, and no encode depends
  // on which layers were resident: a run captured at window 2 continues at
  // windows 1 and 4 exactly as it would have at window 2.
  const auto mcfg = tiny_config();
  data::SyntheticCorpus corpus(mcfg.vocab, 52);
  std::vector<data::Batch> batches;
  for (int i = 0; i < 6; ++i) batches.push_back(corpus.next_batch(2, mcfg.max_seq));

  EngineConfig cfg;
  cfg.window = 2;
  cfg.window_dtype = GetParam().dtype;
  cfg.window_rounding = GetParam().rounding;

  nn::GptModel m1(mcfg);
  StrongholdEngine cont(m1, cfg);
  cont.init_params(42);
  std::vector<float> cont_losses;
  for (const auto& b : batches) cont_losses.push_back(cont.train_step(b));
  std::vector<float> cont_params;
  cont.snapshot_params(cont_params);

  ckpt::Snapshot snap;
  {
    nn::GptModel m2(mcfg);
    StrongholdEngine first(m2, cfg);
    first.init_params(42);
    for (int i = 0; i < 3; ++i) first.train_step(batches[static_cast<std::size_t>(i)]);
    snap = first.capture_snapshot();
  }

  for (std::size_t window : {1u, 4u}) {
    SCOPED_TRACE("window " + std::to_string(window));
    EngineConfig other = cfg;
    other.window = window;
    nn::GptModel m3(mcfg);
    StrongholdEngine resumed(m3, other);
    resumed.init_params(0);  // wrong weights on purpose
    resumed.restore_snapshot(snap);
    for (int i = 3; i < 6; ++i) {
      EXPECT_EQ(resumed.train_step(batches[static_cast<std::size_t>(i)]),
                cont_losses[static_cast<std::size_t>(i)])
          << "step " << i + 1;
    }
    std::vector<float> params;
    resumed.snapshot_params(params);
    sh::testing::expect_allclose(params, cont_params, 0.0f, 0.0f);
  }
}

class CheckpointFreshEngine : public ::testing::TestWithParam<WindowCase> {};

TEST_P(CheckpointFreshEngine, SwapBackedRestoresWithoutInitParams) {
  // A restore overwrites every master, so it must not read one back from
  // the tier first: a fresh engine's tier holds no region yet. Restored
  // without init_params, the engine continues exactly like its source.
  const auto mcfg = tiny_config();
  data::SyntheticCorpus corpus(mcfg.vocab, 53);
  std::vector<data::Batch> batches;
  for (int i = 0; i < 4; ++i) batches.push_back(corpus.next_batch(2, mcfg.max_seq));

  EngineConfig cfg;
  cfg.window = 1;
  cfg.window_dtype = GetParam().dtype;
  cfg.window_rounding = GetParam().rounding;
  cfg.cpu_capacity_bytes = 64 * 1024;
  const std::string tag = GetParam().name;
  cfg.swap_path = ::testing::TempDir() + "fresh_restore_src_" + tag + ".bin";
  nn::GptModel m1(mcfg);
  StrongholdEngine source(m1, cfg);
  ASSERT_GT(source.stats().swap_backed_layers, 0u);
  source.init_params(42);
  for (int i = 0; i < 2; ++i) source.train_step(batches[static_cast<std::size_t>(i)]);
  const ckpt::Snapshot snap = source.capture_snapshot();

  cfg.swap_path = ::testing::TempDir() + "fresh_restore_dst_" + tag + ".bin";
  nn::GptModel m2(mcfg);
  StrongholdEngine fresh(m2, cfg);
  fresh.restore_snapshot(snap);  // no init_params
  for (int i = 2; i < 4; ++i) {
    const auto& b = batches[static_cast<std::size_t>(i)];
    EXPECT_EQ(fresh.train_step(b), source.train_step(b)) << "step " << i + 1;
  }
  std::vector<float> want, got;
  source.snapshot_params(want);
  fresh.snapshot_params(got);
  sh::testing::expect_allclose(got, want, 0.0f, 0.0f);
}

const WindowCase kWindowCases[] = {
    {"f32", tensor::DType::f32, tensor::Rounding::nearest_even},
    {"bf16", tensor::DType::bf16, tensor::Rounding::nearest_even},
    {"bf16_sr", tensor::DType::bf16, tensor::Rounding::stochastic},
};

std::string window_case_name(const ::testing::TestParamInfo<WindowCase>& info) {
  return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Windows, CheckpointResident,
                         ::testing::ValuesIn(kWindowCases), window_case_name);
INSTANTIATE_TEST_SUITE_P(Windows, CheckpointAcrossWindows,
                         ::testing::ValuesIn(kWindowCases), window_case_name);
INSTANTIATE_TEST_SUITE_P(Windows, CheckpointFreshEngine,
                         ::testing::ValuesIn(kWindowCases), window_case_name);

}  // namespace
}  // namespace sh::core
