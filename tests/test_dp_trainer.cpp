// Data-parallel training across rank replicas (Section VI-D2 mechanism):
// every rank runs a full STRONGHOLD engine; gradients all-reduce through the
// heterogeneous channels; replicas must stay in lockstep.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/engine.hpp"
#include "core/monolithic.hpp"
#include "data/synthetic.hpp"
#include "dist/dp_trainer.hpp"
#include "testing/util.hpp"
#include "testing/watchdog.hpp"

namespace sh::dist {
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

TEST(DataParallel, ReplicasStayBitIdentical) {
  const auto mcfg = tiny_config();
  core::EngineConfig ecfg;
  ecfg.window = 2;
  DataParallelTrainer trainer(mcfg, ecfg, /*world=*/2);
  trainer.init_params(42);
  data::SyntheticCorpus corpus(mcfg.vocab, 99);
  for (int i = 0; i < 3; ++i) {
    trainer.train_step(corpus.next_batch(4, mcfg.max_seq));
  }
  std::vector<float> p0, p1;
  trainer.snapshot_params(0, p0);
  trainer.snapshot_params(1, p1);
  sh::testing::expect_allclose(p0, p1, 0.0f, 0.0f);
}

TEST(DataParallel, MatchesSingleEngineOnGlobalBatch) {
  const auto mcfg = tiny_config();
  data::SyntheticCorpus corpus(mcfg.vocab, 99);
  std::vector<data::Batch> batches;
  for (int i = 0; i < 3; ++i) batches.push_back(corpus.next_batch(4, mcfg.max_seq));

  // Reference: one engine trains the full global batch.
  nn::GptModel ref_model(mcfg);
  core::EngineConfig ref_cfg;
  ref_cfg.window = 2;
  core::StrongholdEngine ref(ref_model, ref_cfg);
  ref.init_params(42);
  std::vector<float> ref_losses;
  for (const auto& b : batches) ref_losses.push_back(ref.train_step(b));
  std::vector<float> ref_params;
  ref.snapshot_params(ref_params);

  // Two data-parallel ranks, two samples each.
  core::EngineConfig ecfg;
  ecfg.window = 2;
  DataParallelTrainer trainer(mcfg, ecfg, 2);
  trainer.init_params(42);
  std::vector<float> dp_losses;
  for (const auto& b : batches) dp_losses.push_back(trainer.train_step(b));
  std::vector<float> dp_params;
  trainer.snapshot_params(0, dp_params);

  for (std::size_t i = 0; i < ref_losses.size(); ++i) {
    EXPECT_NEAR(dp_losses[i], ref_losses[i], 1e-5f);
  }
  // Sharded loss/grad averaging reorders float sums: tight but not bitwise.
  sh::testing::expect_allclose(dp_params, ref_params, 1e-5f, 1e-4f);
}

TEST(DataParallel, FourRanksConverge) {
  const auto mcfg = tiny_config();
  core::EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.adam.lr = 3e-3f;
  DataParallelTrainer trainer(mcfg, ecfg, 4);
  trainer.init_params(1);
  data::SyntheticCorpus corpus(mcfg.vocab, 5);
  float first = 0.0f, last = 0.0f;
  for (int i = 0; i < 40; ++i) {
    last = trainer.train_step(corpus.next_batch(8, mcfg.max_seq));
    if (i == 0) first = last;
  }
  EXPECT_LT(last, first);
  EXPECT_GT(trainer.floats_communicated(), 0u);
}

TEST(DataParallel, CommunicatesEveryLayerEveryStep) {
  const auto mcfg = tiny_config();
  core::EngineConfig ecfg;
  ecfg.window = 2;
  const int world = 2;
  DataParallelTrainer trainer(mcfg, ecfg, world);
  trainer.init_params(3);
  data::SyntheticCorpus corpus(mcfg.vocab, 7);
  trainer.train_step(corpus.next_batch(2, mcfg.max_seq));
  // Paper convention volume: (w-1) * w * params per all-reduce, every layer
  // unit all-reduced once per step.
  nn::GptModel probe(mcfg);
  const auto expected = static_cast<std::size_t>(world * (world - 1)) *
                        static_cast<std::size_t>(probe.total_params());
  EXPECT_EQ(trainer.floats_communicated(), expected);
}

TEST(DataParallel, WorldOfOneDegeneratesToSingleEngine) {
  const auto mcfg = tiny_config();
  const data::Batch batch = data::SyntheticCorpus(mcfg.vocab, 2).next_batch(
      2, mcfg.max_seq);

  nn::GptModel ref_model(mcfg);
  core::EngineConfig rcfg;
  rcfg.window = 2;
  core::StrongholdEngine ref(ref_model, rcfg);
  ref.init_params(8);
  const float ref_loss = ref.train_step(batch);

  core::EngineConfig ecfg;
  ecfg.window = 2;
  DataParallelTrainer trainer(mcfg, ecfg, 1);
  trainer.init_params(8);
  EXPECT_EQ(trainer.train_step(batch), ref_loss);
  std::vector<float> a, b;
  ref.snapshot_params(a);
  trainer.snapshot_params(0, b);
  sh::testing::expect_allclose(b, a, 0.0f, 0.0f);
}

// --- world-size matrix (ISSUE: push the test matrix to 8 ranks) ----------

class DataParallelScale : public ::testing::TestWithParam<int> {};

TEST_P(DataParallelScale, ReplicasStayBitIdenticalAcrossWorldSizes) {
  const int world = GetParam();
  const auto mcfg = tiny_config();
  core::EngineConfig ecfg;
  ecfg.window = 2;
  DataParallelTrainer trainer(mcfg, ecfg, world);
  trainer.init_params(42);
  data::SyntheticCorpus corpus(mcfg.vocab, 99);
  for (int i = 0; i < 3; ++i) {
    trainer.train_step(corpus.next_batch(8, mcfg.max_seq));
  }
  EXPECT_EQ(trainer.current_step(), 3u);
  std::vector<float> p0;
  trainer.snapshot_params(0, p0);
  for (int r = 1; r < world; ++r) {
    std::vector<float> pr;
    trainer.snapshot_params(r, pr);
    sh::testing::expect_allclose(pr, p0, 0.0f, 0.0f);
  }
  if (world > 1) {
    EXPECT_GT(trainer.floats_communicated(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Worlds, DataParallelScale,
                         ::testing::Values(1, 2, 4, 8),
                         ::testing::PrintToStringParamName());

// --- elasticity + checkpoint/resume ---------------------------------------

std::string fresh_dir(const std::string& name) {
  std::string dir = ::testing::TempDir() + name;
  if (const auto* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    dir += std::string("_") + info->name();
  }
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<data::Batch> make_batches(const nn::GptConfig& mcfg, int n) {
  data::SyntheticCorpus corpus(mcfg.vocab, 99);
  std::vector<data::Batch> batches;
  for (int i = 0; i < n; ++i) batches.push_back(corpus.next_batch(8, mcfg.max_seq));
  return batches;
}

/// Uninterrupted world-`world` run over `batches`: the reference every
/// elastic/resumed run must match bit for bit (replicas of the SAME world
/// are bitwise; only cross-world comparisons reassociate float sums).
struct DpReference {
  std::vector<float> losses;
  std::vector<float> params;
};

DpReference run_reference(const nn::GptConfig& mcfg,
                          const std::vector<data::Batch>& batches, int world) {
  core::EngineConfig ecfg;
  ecfg.window = 2;
  DataParallelTrainer trainer(mcfg, ecfg, world);
  trainer.init_params(42);
  DpReference ref;
  for (const auto& b : batches) ref.losses.push_back(trainer.train_step(b));
  trainer.snapshot_params(0, ref.params);
  return ref;
}

TEST(DataParallelElastic, RankLeavesAndRejoinsFromManifestBitIdentically) {
  // Eight ranks; one leaves and rejoins at a checkpoint-cadence step
  // boundary, so the joiner seeds from the committed generation (durable
  // state, not a live peer). The full run must match an uninterrupted
  // world-8 run bit for bit — elastic re-sharding is deterministic.
  const auto mcfg = tiny_config();
  const auto batches = make_batches(mcfg, 4);
  const DpReference ref = run_reference(mcfg, batches, 8);

  core::EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.ckpt.dir = fresh_dir("dp_elastic_manifest");
  ecfg.ckpt.every_n_steps = 2;
  DataParallelTrainer trainer(mcfg, ecfg, 8);
  trainer.init_params(42);
  std::vector<float> losses;
  losses.push_back(trainer.train_step(batches[0]));
  losses.push_back(trainer.train_step(batches[1]));  // gen-2 staged async

  trainer.remove_rank(3);
  EXPECT_EQ(trainer.world(), 7);
  const int joined = trainer.add_rank();  // finishes gen-2 -> manifest path
  EXPECT_EQ(trainer.world(), 8);
  EXPECT_EQ(joined, 7);
  ASSERT_NE(trainer.checkpointer(), nullptr);
  EXPECT_EQ(trainer.checkpointer()->latest(),
            std::optional<std::uint64_t>{2});

  losses.push_back(trainer.train_step(batches[2]));
  losses.push_back(trainer.train_step(batches[3]));

  for (std::size_t i = 0; i < losses.size(); ++i) {
    EXPECT_EQ(losses[i], ref.losses[i]) << "step " << i + 1;
  }
  for (int r = 0; r < trainer.world(); ++r) {
    std::vector<float> pr;
    trainer.snapshot_params(r, pr);
    sh::testing::expect_allclose(pr, ref.params, 0.0f, 0.0f);
  }
}

TEST(DataParallelElastic, RankRejoinsFromLivePeerWithoutCheckpoints) {
  // No checkpoint directory: the joiner seeds from a live snapshot of rank 0
  // (the mid-interval fallback). Same bit-identity requirement.
  const auto mcfg = tiny_config();
  const auto batches = make_batches(mcfg, 4);
  const DpReference ref = run_reference(mcfg, batches, 8);

  core::EngineConfig ecfg;
  ecfg.window = 2;
  DataParallelTrainer trainer(mcfg, ecfg, 8);
  trainer.init_params(42);
  std::vector<float> losses;
  losses.push_back(trainer.train_step(batches[0]));

  trainer.remove_rank(0);  // even rank 0 (the capture source) may leave
  trainer.add_rank();
  EXPECT_EQ(trainer.world(), 8);

  for (int i = 1; i < 4; ++i) losses.push_back(trainer.train_step(batches[i]));
  for (std::size_t i = 0; i < losses.size(); ++i) {
    EXPECT_EQ(losses[i], ref.losses[i]) << "step " << i + 1;
  }
  for (int r = 0; r < trainer.world(); ++r) {
    std::vector<float> pr;
    trainer.snapshot_params(r, pr);
    sh::testing::expect_allclose(pr, ref.params, 0.0f, 0.0f);
  }
}

TEST(DataParallelElastic, StochasticRoundingRankRejoinsBitIdentically) {
  // Under a bf16 window with stochastic rounding, a rejoined rank's engine
  // has run fewer encodes than its peers. The rounding streams are keyed on
  // restored state (layer, optimizer step, iteration), so it still rounds
  // onto the same bytes and every replica matches the uninterrupted run.
  const auto mcfg = tiny_config();
  const auto batches = make_batches(mcfg, 4);
  core::EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.window_dtype = tensor::DType::bf16;
  ecfg.window_rounding = tensor::Rounding::stochastic;

  DataParallelTrainer ref(mcfg, ecfg, 4);
  ref.init_params(42);
  std::vector<float> ref_losses;
  for (const auto& b : batches) ref_losses.push_back(ref.train_step(b));
  std::vector<float> ref_params;
  ref.snapshot_params(0, ref_params);

  DataParallelTrainer trainer(mcfg, ecfg, 4);
  trainer.init_params(42);
  std::vector<float> losses;
  losses.push_back(trainer.train_step(batches[0]));
  losses.push_back(trainer.train_step(batches[1]));
  trainer.remove_rank(1);
  trainer.add_rank();
  EXPECT_EQ(trainer.world(), 4);
  losses.push_back(trainer.train_step(batches[2]));
  losses.push_back(trainer.train_step(batches[3]));

  EXPECT_EQ(losses, ref_losses);
  for (int r = 0; r < trainer.world(); ++r) {
    std::vector<float> pr;
    trainer.snapshot_params(r, pr);
    sh::testing::expect_allclose(pr, ref_params, 0.0f, 0.0f);
  }
}

TEST(DataParallelElastic, SwapBackedRankRejoinsBitIdentically) {
  // With a CPU budget, masters of the later blocks live on the swap tier. A
  // joining rank's engine is fresh — no init_params, no tier regions — and
  // seeds from a live snapshot; the world must still match an
  // uninterrupted run bit for bit.
  const auto mcfg = tiny_config();
  const auto batches = make_batches(mcfg, 4);
  core::EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.cpu_capacity_bytes = 64 * 1024;

  ecfg.swap_path = ::testing::TempDir() + "dp_rejoin_swap_ref.bin";
  DataParallelTrainer ref(mcfg, ecfg, 2);
  ASSERT_GT(ref.stats(0).swap_backed_layers, 0u);
  ref.init_params(42);
  std::vector<float> ref_losses;
  for (const auto& b : batches) ref_losses.push_back(ref.train_step(b));
  std::vector<float> ref_params;
  ref.snapshot_params(0, ref_params);

  ecfg.swap_path = ::testing::TempDir() + "dp_rejoin_swap.bin";
  DataParallelTrainer trainer(mcfg, ecfg, 2);
  trainer.init_params(42);
  std::vector<float> losses;
  losses.push_back(trainer.train_step(batches[0]));
  losses.push_back(trainer.train_step(batches[1]));
  trainer.remove_rank(1);
  trainer.add_rank();
  EXPECT_EQ(trainer.world(), 2);
  losses.push_back(trainer.train_step(batches[2]));
  losses.push_back(trainer.train_step(batches[3]));

  EXPECT_EQ(losses, ref_losses);
  for (int r = 0; r < trainer.world(); ++r) {
    std::vector<float> pr;
    trainer.snapshot_params(r, pr);
    sh::testing::expect_allclose(pr, ref_params, 0.0f, 0.0f);
  }
}

TEST(DataParallelElastic, NvmeTierRankJoinsBitIdentically) {
  // Masters and Adam moments on the swap tier. Every replica owns its swap
  // file, so a joiner's file cannot truncate the moments its peers still
  // page, and a leaver's cannot unlink theirs. A rank joins and the joiner
  // leaves again; the world must match an uninterrupted run bit for bit.
  const auto mcfg = tiny_config();
  const auto batches = make_batches(mcfg, 4);
  core::EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.optimizer_tier = core::OptimizerTier::nvme;
  ecfg.cpu_capacity_bytes = 64 * 1024;

  ecfg.swap_path = ::testing::TempDir() + "dp_nvme_join_ref.bin";
  DataParallelTrainer ref(mcfg, ecfg, 2);
  ref.init_params(42);
  std::vector<float> ref_losses;
  for (const auto& b : batches) ref_losses.push_back(ref.train_step(b));
  std::vector<float> ref_params;
  ref.snapshot_params(0, ref_params);

  const std::string path = ::testing::TempDir() + "dp_nvme_join.bin";
  ecfg.swap_path = path;
  DataParallelTrainer trainer(mcfg, ecfg, 2);
  ASSERT_GT(trainer.stats(0).swap_backed_layers, 0u);
  trainer.init_params(42);
  std::vector<float> losses;
  losses.push_back(trainer.train_step(batches[0]));
  losses.push_back(trainer.train_step(batches[1]));
  EXPECT_EQ(trainer.add_rank(), 2);
  trainer.remove_rank(2);
  EXPECT_TRUE(std::filesystem::exists(path + ".rank0"));
  EXPECT_TRUE(std::filesystem::exists(path + ".rank1"));
  EXPECT_FALSE(std::filesystem::exists(path + ".rank2"));
  losses.push_back(trainer.train_step(batches[2]));
  losses.push_back(trainer.train_step(batches[3]));

  EXPECT_EQ(losses, ref_losses);
  for (int r = 0; r < trainer.world(); ++r) {
    std::vector<float> pr;
    trainer.snapshot_params(r, pr);
    EXPECT_TRUE(sh::testing::bits_equal(pr, ref_params)) << "rank " << r;
  }
}

// --- a failing rank ---------------------------------------------------------

/// (world, executors per rank).
class DataParallelFault
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(DataParallelFault, RankFailureRaisesWithoutHanging) {
  // The last rank's shard holds an out-of-range token id, so that rank fails
  // in its embedding while its peers run on into the gradient all-reduce.
  // train_step must raise the rank's own std::out_of_range, not the Aborted
  // it causes in its peers, and must not hang. The failure comes before any
  // update, so the trainer then trains on bit-identically to an
  // uninterrupted run. The failure mode is a hang, so the body runs in a
  // child process under a deadline.
  if (!sh::testing::in_watchdog_child()) {
    sh::testing::run_in_child_within(120.0);
    return;
  }
  const auto [world, executors] = GetParam();
  const auto mcfg = tiny_config();
  const auto batches = make_batches(mcfg, 3);
  core::EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.num_executors = executors;

  DataParallelTrainer ref(mcfg, ecfg, world);
  ref.init_params(42);
  std::vector<float> ref_losses;
  for (const auto& b : batches) ref_losses.push_back(ref.train_step(b));
  std::vector<float> ref_params;
  ref.snapshot_params(0, ref_params);

  DataParallelTrainer trainer(mcfg, ecfg, world);
  trainer.init_params(42);
  std::vector<float> losses = {trainer.train_step(batches[0])};
  std::vector<float> before;
  trainer.snapshot_params(0, before);
  data::Batch bad = batches[1];
  bad.ids.back() = static_cast<std::int32_t>(mcfg.vocab);
  EXPECT_THROW(trainer.train_step(bad), std::out_of_range);
  EXPECT_EQ(trainer.current_step(), 1u);
  for (int r = 0; r < world; ++r) {
    std::vector<float> pr;
    trainer.snapshot_params(r, pr);
    EXPECT_TRUE(sh::testing::bits_equal(pr, before)) << "rank " << r;
  }

  losses.push_back(trainer.train_step(batches[1]));
  losses.push_back(trainer.train_step(batches[2]));
  EXPECT_EQ(losses, ref_losses);
  for (int r = 0; r < world; ++r) {
    std::vector<float> pr;
    trainer.snapshot_params(r, pr);
    EXPECT_TRUE(sh::testing::bits_equal(pr, ref_params)) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorldsAndExecutors, DataParallelFault,
    ::testing::Combine(::testing::Values(2, 4),
                       ::testing::Values(std::size_t{1}, std::size_t{2})),
    [](const ::testing::TestParamInfo<std::tuple<int, std::size_t>>& info) {
      return "w" + std::to_string(std::get<0>(info.param)) + "_e" +
             std::to_string(std::get<1>(info.param));
    });

TEST(DataParallelElastic, WorldShrinksAndRegrowsAcrossSteps) {
  // Train at world 8, shrink to 4 (batch re-shards over fewer ranks), grow
  // back to 8 — replicas stay bitwise identical throughout.
  const auto mcfg = tiny_config();
  const auto batches = make_batches(mcfg, 6);
  core::EngineConfig ecfg;
  ecfg.window = 2;
  DataParallelTrainer trainer(mcfg, ecfg, 8);
  trainer.init_params(42);
  trainer.train_step(batches[0]);
  trainer.train_step(batches[1]);
  for (int i = 0; i < 4; ++i) trainer.remove_rank(0);
  EXPECT_EQ(trainer.world(), 4);
  trainer.train_step(batches[2]);
  trainer.train_step(batches[3]);
  for (int i = 0; i < 4; ++i) trainer.add_rank();
  EXPECT_EQ(trainer.world(), 8);
  trainer.train_step(batches[4]);
  trainer.train_step(batches[5]);
  EXPECT_EQ(trainer.current_step(), 6u);
  std::vector<float> p0;
  trainer.snapshot_params(0, p0);
  for (int r = 1; r < trainer.world(); ++r) {
    std::vector<float> pr;
    trainer.snapshot_params(r, pr);
    sh::testing::expect_allclose(pr, p0, 0.0f, 0.0f);
  }
}

TEST(DataParallelElastic, RemoveRankRejectsEmptyWorldAndBadIndex) {
  const auto mcfg = tiny_config();
  core::EngineConfig ecfg;
  ecfg.window = 2;
  DataParallelTrainer trainer(mcfg, ecfg, 2);
  trainer.init_params(1);
  EXPECT_THROW(trainer.remove_rank(5), std::out_of_range);
  trainer.remove_rank(1);
  EXPECT_THROW(trainer.remove_rank(0), std::invalid_argument);
}

TEST(DataParallelCkpt, TrainerResumesFromCheckpointBitIdentically) {
  // A new trainer process (fresh trainer object) resumes every rank from the
  // trainer-owned checkpoint and replays the remaining steps bit for bit.
  const auto mcfg = tiny_config();
  const auto batches = make_batches(mcfg, 4);
  const DpReference ref = run_reference(mcfg, batches, 4);

  const std::string dir = fresh_dir("dp_resume");
  core::EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.ckpt.dir = dir;
  ecfg.ckpt.every_n_steps = 2;
  {
    DataParallelTrainer trainer(mcfg, ecfg, 4);
    trainer.init_params(42);
    for (int i = 0; i < 3; ++i) trainer.train_step(batches[i]);
    // dies after step 3; the durable generation is step 2
  }

  DataParallelTrainer resumed(mcfg, ecfg, 4);
  resumed.init_params(7);  // overwritten by the restore
  ASSERT_TRUE(resumed.resume_from_latest());
  EXPECT_EQ(resumed.current_step(), 2u);
  std::vector<float> losses;
  for (int i = 2; i < 4; ++i) losses.push_back(resumed.train_step(batches[i]));
  EXPECT_EQ(losses[0], ref.losses[2]);
  EXPECT_EQ(losses[1], ref.losses[3]);
  for (int r = 0; r < resumed.world(); ++r) {
    std::vector<float> pr;
    resumed.snapshot_params(r, pr);
    sh::testing::expect_allclose(pr, ref.params, 0.0f, 0.0f);
  }
}

TEST(DataParallelElastic, AddRankFallsBackToLivePeerOnCorruptGeneration) {
  // The newest generation matches the join step but fails verification; the
  // joiner must fall back to the live rank-0 snapshot instead of failing the
  // elastic join, and the run stays bit-identical to the uninterrupted one.
  const auto mcfg = tiny_config();
  const auto batches = make_batches(mcfg, 4);
  const DpReference ref = run_reference(mcfg, batches, 8);

  core::EngineConfig ecfg;
  ecfg.window = 2;
  const std::string dir = fresh_dir("dp_elastic_corrupt");
  ecfg.ckpt.dir = dir;
  ecfg.ckpt.every_n_steps = 2;
  DataParallelTrainer trainer(mcfg, ecfg, 8);
  trainer.init_params(42);
  std::vector<float> losses;
  losses.push_back(trainer.train_step(batches[0]));
  losses.push_back(trainer.train_step(batches[1]));  // gen-2 staged async
  trainer.checkpointer()->finish();

  {
    // Flip bytes mid-payload: restore(2) now fails its tensor checksum.
    std::fstream f(dir + "/gen-000000000002.data",
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(64);
    const char junk[4] = {0x7f, 0x7f, 0x7f, 0x7f};
    f.write(junk, sizeof junk);
  }

  trainer.remove_rank(3);
  const int joined = trainer.add_rank();  // must not throw
  EXPECT_EQ(joined, 7);
  EXPECT_EQ(trainer.world(), 8);
  losses.push_back(trainer.train_step(batches[2]));
  losses.push_back(trainer.train_step(batches[3]));
  for (std::size_t i = 0; i < losses.size(); ++i) {
    EXPECT_EQ(losses[i], ref.losses[i]) << "step " << i + 1;
  }
  for (int r = 0; r < trainer.world(); ++r) {
    std::vector<float> pr;
    trainer.snapshot_params(r, pr);
    sh::testing::expect_allclose(pr, ref.params, 0.0f, 0.0f);
  }
}

TEST(DataParallelCkpt, EnvConfiguredTrainerKeepsSingleWriter) {
  // SH_CKPT_DIR is the documented no-code-change way to enable
  // checkpointing. The trainer resolves the env overrides once; the rank
  // engines must NOT re-apply them in their own constructors, or every rank
  // would open the trainer's directory as a concurrent writer and race the
  // rename-commit protocol (shared gen-<step> temp names, each commit's GC
  // sweeping the others' in-flight files).
  const std::string dir = fresh_dir("dp_env_single_writer");
  ::setenv("SH_CKPT_DIR", dir.c_str(), 1);
  ::setenv("SH_CKPT_EVERY", "1", 1);
  const auto mcfg = tiny_config();
  core::EngineConfig ecfg;
  ecfg.window = 2;
  DataParallelTrainer trainer(mcfg, ecfg, 2);
  ::unsetenv("SH_CKPT_DIR");
  ::unsetenv("SH_CKPT_EVERY");
  ASSERT_NE(trainer.checkpointer(), nullptr);
  trainer.init_params(42);
  for (const auto& b : make_batches(mcfg, 2)) trainer.train_step(b);
  trainer.checkpointer()->finish();
  // Only the trainer captures snapshots (always on rank 0); a non-zero
  // count on rank 1 means an engine built its own env-configured
  // Checkpointer behind the trainer's back.
  EXPECT_GT(trainer.stats(0).ckpt_snapshots, 0u);
  EXPECT_EQ(trainer.stats(1).ckpt_snapshots, 0u);
  EXPECT_EQ(trainer.checkpointer()->stats().saves_failed, 0u);
  EXPECT_EQ(trainer.checkpointer()->latest(), std::optional<std::uint64_t>{2});
  EXPECT_TRUE(trainer.resume_from_latest());
}

TEST(DataParallelCkpt, ResumeFromLatestFalseWithoutGenerations) {
  const auto mcfg = tiny_config();
  core::EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.ckpt.dir = fresh_dir("dp_resume_none");
  DataParallelTrainer trainer(mcfg, ecfg, 2);
  trainer.init_params(1);
  EXPECT_FALSE(trainer.resume_from_latest());
  EXPECT_THROW(DataParallelTrainer(mcfg, core::EngineConfig{}, 2)
                   .save_checkpoint(),
               std::logic_error);
}

TEST(DataParallel, RejectsIndivisibleGlobalBatch) {
  const auto mcfg = tiny_config();
  core::EngineConfig ecfg;
  ecfg.window = 2;
  DataParallelTrainer trainer(mcfg, ecfg, 2);
  trainer.init_params(1);
  data::SyntheticCorpus corpus(mcfg.vocab, 1);
  EXPECT_THROW(trainer.train_step(corpus.next_batch(3, mcfg.max_seq)),
               std::invalid_argument);
}

}  // namespace
}  // namespace sh::dist
