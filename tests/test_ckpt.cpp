// sh::ckpt — crash-consistent checkpoint/resume.
//
// Covers the commit protocol (write-temp → fsync → rename, manifest last),
// typed corruption fallback, generation GC, fault-injected checkpoint
// writes, the engine integration (periodic async snapshots, last-gasp on
// tier death, bit-identical resume), and the headline kill-and-resume chaos
// test: a child process is SIGKILLed mid-step / mid-checkpoint-write and the
// resumed run must replay the uninterrupted loss trajectory bit for bit.
#include <gtest/gtest.h>

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/checkpointer.hpp"
#include "core/engine.hpp"
#include "data/synthetic.hpp"
#include "data/text_corpus.hpp"
#include "nn/gpt.hpp"
#include "storage/fault_plan.hpp"
#include "testing/ckpt_chaos.hpp"
#include "testing/util.hpp"

extern char** environ;

namespace sh::ckpt {
namespace {

namespace fs = std::filesystem;

// Suffixed with the running test's name: ctest runs tests concurrently, so
// sibling tests must never share a checkpoint directory.
std::string fresh_dir(const std::string& name) {
  std::string dir = ::testing::TempDir() + name;
  if (const auto* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    std::string suffix = std::string("_") + info->name();
    for (auto& c : suffix) {
      if (c == '/') c = '_';  // value-parameterized test names contain '/'
    }
    dir += suffix;
  }
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<std::string> entries_with_suffix(const std::string& dir,
                                             const std::string& suffix) {
  std::vector<std::string> out;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      out.push_back(name);
    }
  }
  return out;
}

Snapshot make_snapshot(std::uint64_t step, float bias = 0.0f) {
  Snapshot snap;
  snap.step = step;
  for (int t = 0; t < 3; ++t) {
    TensorEntry e;
    e.name = "T" + std::to_string(t);
    e.data.resize(257 + static_cast<std::size_t>(t) * 64);
    for (std::size_t i = 0; i < e.data.size(); ++i) {
      e.data[i] = bias + static_cast<float>(t) + static_cast<float>(i) * 0.5f;
    }
    snap.tensors.push_back(std::move(e));
  }
  snap.blobs.put("meta.answer", std::uint64_t{42});
  snap.blobs.put("meta.step", step);
  return snap;
}

void expect_snapshots_equal(const Snapshot& a, const Snapshot& b) {
  EXPECT_EQ(a.step, b.step);
  EXPECT_EQ(a.blobs.entries, b.blobs.entries);
  ASSERT_EQ(a.tensors.size(), b.tensors.size());
  for (std::size_t i = 0; i < a.tensors.size(); ++i) {
    EXPECT_EQ(a.tensors[i].name, b.tensors[i].name);
    EXPECT_EQ(a.tensors[i].data, b.tensors[i].data);
  }
}

// ---------------------------------------------------------------------------
// Data-loader cursors (satellite: save_state/load_state round trips)
// ---------------------------------------------------------------------------

TEST(DataCursor, SyntheticCorpusRoundTripReplaysBatches) {
  data::SyntheticCorpus a(32, 5);
  for (int i = 0; i < 3; ++i) a.next_batch(4, 8);
  const tensor::RngState cursor = a.save_state();
  std::vector<data::Batch> expected;
  for (int i = 0; i < 4; ++i) expected.push_back(a.next_batch(4, 8));

  data::SyntheticCorpus b(32, 5);  // same (vocab, seed): same Markov table
  b.load_state(cursor);
  for (const auto& want : expected) {
    const data::Batch got = b.next_batch(4, 8);
    EXPECT_EQ(got.ids, want.ids);
    EXPECT_EQ(got.targets, want.targets);
  }
}

TEST(DataCursor, TextCorpusRoundTripReplaysBatches) {
  auto a = data::TextCorpus::from_text(data::TextCorpus::sample_text(), 300, 3);
  for (int i = 0; i < 2; ++i) a.next_batch(2, 16);
  const tensor::RngState cursor = a.save_state();
  std::vector<data::Batch> expected;
  for (int i = 0; i < 3; ++i) expected.push_back(a.next_batch(2, 16));

  auto b = data::TextCorpus::from_text(data::TextCorpus::sample_text(), 300, 3);
  b.load_state(cursor);
  for (const auto& want : expected) {
    const data::Batch got = b.next_batch(2, 16);
    EXPECT_EQ(got.ids, want.ids);
    EXPECT_EQ(got.targets, want.targets);
  }
}

// ---------------------------------------------------------------------------
// Blobs / config plumbing
// ---------------------------------------------------------------------------

TEST(CkptBlobs, TypedErrorsOnMissingAndMisSized) {
  Blobs blobs;
  blobs.put("x", std::uint32_t{7});
  EXPECT_EQ(blobs.get<std::uint32_t>("x"), 7u);
  try {
    blobs.get<std::uint32_t>("absent");
    FAIL() << "expected RestoreError";
  } catch (const RestoreError& e) {
    EXPECT_EQ(e.kind(), RestoreErrorKind::MissingData);
  }
  try {
    blobs.get<std::uint64_t>("x");  // wrong width
    FAIL() << "expected RestoreError";
  } catch (const RestoreError& e) {
    EXPECT_EQ(e.kind(), RestoreErrorKind::GeometryMismatch);
  }
}

TEST(CkptConfig, EnvOverridesDirEveryKeep) {
  ::setenv("SH_CKPT_DIR", "/tmp/ckpt-env-test", 1);
  ::setenv("SH_CKPT_EVERY", "7", 1);
  ::setenv("SH_CKPT_KEEP", "5", 1);
  Config base;
  base.dir = "ignored";
  base.every_n_steps = 1;
  const Config cfg = config_from_env(base);
  ::unsetenv("SH_CKPT_DIR");
  ::unsetenv("SH_CKPT_EVERY");
  ::unsetenv("SH_CKPT_KEEP");
  EXPECT_EQ(cfg.dir, "/tmp/ckpt-env-test");
  EXPECT_EQ(cfg.every_n_steps, 7u);
  EXPECT_EQ(cfg.keep, 5u);
  // Without the env set, the base passes through untouched.
  const Config plain = config_from_env(base);
  EXPECT_EQ(plain.dir, "ignored");
  EXPECT_EQ(plain.every_n_steps, 1u);
}

// ---------------------------------------------------------------------------
// Checkpointer: commit, restore, GC
// ---------------------------------------------------------------------------

TEST(Checkpointer, SaveRestoreRoundTrip) {
  const std::string dir = fresh_dir("ckpt_roundtrip");
  const Snapshot snap = make_snapshot(12);
  {
    Config cfg;
    cfg.dir = dir;
    Checkpointer ck(cfg);
    ck.save_now(snap);
    EXPECT_EQ(ck.generations(), (std::vector<std::uint64_t>{12}));
    EXPECT_EQ(ck.stats().saves_committed, 1u);
    EXPECT_GE(ck.stats().bytes_written, snap.payload_bytes() / 2);
  }
  // A fresh Checkpointer (fresh process, conceptually) sees the generation.
  Config cfg;
  cfg.dir = dir;
  Checkpointer ck(cfg);
  ASSERT_EQ(ck.latest(), std::optional<std::uint64_t>{12});
  expect_snapshots_equal(ck.restore_latest(), snap);
}

TEST(Checkpointer, AsyncSaveCommitsAndKeepsStats) {
  const std::string dir = fresh_dir("ckpt_async");
  Config cfg;
  cfg.dir = dir;
  Checkpointer ck(cfg);
  ck.save_async(make_snapshot(3));
  ck.save_async(make_snapshot(6));  // joins the first, then commits
  ck.finish();
  EXPECT_EQ(ck.generations(), (std::vector<std::uint64_t>{3, 6}));
  EXPECT_EQ(ck.stats().saves_committed, 2u);
  EXPECT_EQ(ck.last_error(), "");
}

TEST(Checkpointer, GcKeepsNewestKAndSweepsTmpOrphans) {
  const std::string dir = fresh_dir("ckpt_gc");
  // Orphans from a "crashed writer": must never count as generations and be
  // swept by the next successful commit.
  std::ofstream(dir + "/gen-000000000099.data.tmp") << "partial";
  std::ofstream(dir + "/gen-000000000099.manifest.tmp") << "partial";
  Config cfg;
  cfg.dir = dir;
  cfg.keep = 2;
  Checkpointer ck(cfg);
  EXPECT_TRUE(ck.generations().empty());
  for (std::uint64_t s : {1, 2, 3, 4}) ck.save_now(make_snapshot(s));
  EXPECT_EQ(ck.generations(), (std::vector<std::uint64_t>{3, 4}));
  EXPECT_EQ(ck.stats().gc_removed, 2u);
  EXPECT_TRUE(entries_with_suffix(dir, ".tmp").empty());
  // The GC'd generations' data files are gone too.
  EXPECT_EQ(entries_with_suffix(dir, ".data").size(), 2u);
  expect_snapshots_equal(ck.restore(3), make_snapshot(3));
}

TEST(Checkpointer, GcSweepsDataFilesWithoutCommittedManifest) {
  // A writer that dies between the data rename and the manifest rename
  // leaves a final-named `.data` file with no manifest. It never counts as a
  // generation, and it must be reclaimed by the next successful commit's GC
  // — otherwise every such crash leaks a full-size data file forever.
  const std::string dir = fresh_dir("ckpt_orphan_data");
  std::ofstream(dir + "/gen-000000000099.data") << "orphaned payload";
  Config cfg;
  cfg.dir = dir;
  cfg.keep = 2;
  Checkpointer ck(cfg);
  EXPECT_TRUE(ck.generations().empty());
  ck.save_now(make_snapshot(1));
  EXPECT_EQ(ck.generations(), (std::vector<std::uint64_t>{1}));
  EXPECT_FALSE(fs::exists(dir + "/gen-000000000099.data"));
  // Committed generations keep their data files.
  EXPECT_TRUE(fs::exists(dir + "/gen-000000000001.data"));
  expect_snapshots_equal(ck.restore(1), make_snapshot(1));
}

// ---------------------------------------------------------------------------
// Corruption handling (satellite): every failure mode is a typed
// RestoreError and restore_latest falls back to the previous generation.
// ---------------------------------------------------------------------------

class CkptCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fresh_dir("ckpt_corrupt");
    Config cfg;
    cfg.dir = dir_;
    cfg.keep = 4;
    ck_ = std::make_unique<Checkpointer>(cfg);
    ck_->save_now(make_snapshot(1, /*bias=*/10.0f));
    ck_->save_now(make_snapshot(2, /*bias=*/20.0f));
  }

  std::string path(const std::string& name) const { return dir_ + "/" + name; }

  RestoreErrorKind restore_kind(std::uint64_t step) const {
    try {
      (void)ck_->restore(step);
    } catch (const RestoreError& e) {
      EXPECT_EQ(e.step(), step);
      return e.kind();
    }
    ADD_FAILURE() << "restore(" << step << ") unexpectedly succeeded";
    return RestoreErrorKind::NoValidGeneration;
  }

  void expect_fallback_to_gen1() {
    const Snapshot snap = ck_->restore_latest();
    expect_snapshots_equal(snap, make_snapshot(1, 10.0f));
  }

  std::string dir_;
  std::unique_ptr<Checkpointer> ck_;
};

TEST_F(CkptCorruption, TruncatedManifestFallsBack) {
  fs::resize_file(path("gen-000000000002.manifest"), 5);  // below even magic
  EXPECT_EQ(restore_kind(2), RestoreErrorKind::Truncated);
  expect_fallback_to_gen1();
}

TEST_F(CkptCorruption, PartiallyTruncatedManifestFailsSelfChecksum) {
  const auto full = fs::file_size(path("gen-000000000002.manifest"));
  fs::resize_file(path("gen-000000000002.manifest"), full / 2);
  EXPECT_EQ(restore_kind(2), RestoreErrorKind::ChecksumMismatch);
  expect_fallback_to_gen1();
}

TEST_F(CkptCorruption, FlippedDataByteFailsTensorChecksum) {
  std::fstream f(path("gen-000000000002.data"),
                 std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(100);
  char b;
  f.seekg(100);
  f.get(b);
  b = static_cast<char>(b ^ 0x40);
  f.seekp(100);
  f.put(b);
  f.close();
  EXPECT_EQ(restore_kind(2), RestoreErrorKind::ChecksumMismatch);
  expect_fallback_to_gen1();
}

TEST_F(CkptCorruption, MissingDataFileFallsBack) {
  fs::remove(path("gen-000000000002.data"));
  EXPECT_EQ(restore_kind(2), RestoreErrorKind::MissingFile);
  expect_fallback_to_gen1();
}

TEST_F(CkptCorruption, BadMagicIsTyped) {
  std::ofstream(path("gen-000000000002.manifest"),
                std::ios::binary | std::ios::trunc)
      << "this is not a checkpoint manifest at all, padded past the min size";
  EXPECT_EQ(restore_kind(2), RestoreErrorKind::BadMagic);
  expect_fallback_to_gen1();
}

TEST_F(CkptCorruption, TmpOnlyGenerationIsInvisible) {
  // Simulated crash between the data rename and the manifest rename: the
  // data file is committed but the manifest exists only as .tmp. The
  // generation must be invisible and the previous one restored.
  fs::rename(path("gen-000000000002.manifest"),
             path("gen-000000000002.manifest.tmp"));
  EXPECT_EQ(ck_->generations(), (std::vector<std::uint64_t>{1}));
  expect_fallback_to_gen1();
  // The next commit sweeps the orphaned tmp.
  ck_->save_now(make_snapshot(3, 30.0f));
  EXPECT_TRUE(entries_with_suffix(dir_, ".tmp").empty());
}

TEST_F(CkptCorruption, AllGenerationsCorruptIsNoValidGeneration) {
  fs::resize_file(path("gen-000000000002.manifest"), 5);
  fs::remove(path("gen-000000000001.data"));
  try {
    (void)ck_->restore_latest();
    FAIL() << "expected RestoreError";
  } catch (const RestoreError& e) {
    EXPECT_EQ(e.kind(), RestoreErrorKind::NoValidGeneration);
    // The message names every rejected generation.
    EXPECT_NE(std::string(e.what()).find("gen-000000000002"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("gen-000000000001"),
              std::string::npos);
  }
}

TEST(Checkpointer, EmptyDirectoryIsNoValidGeneration) {
  const std::string dir = fresh_dir("ckpt_empty");
  Config cfg;
  cfg.dir = dir;
  Checkpointer ck(cfg);
  EXPECT_EQ(ck.latest(), std::nullopt);
  try {
    (void)ck.restore_latest();
    FAIL() << "expected RestoreError";
  } catch (const RestoreError& e) {
    EXPECT_EQ(e.kind(), RestoreErrorKind::NoValidGeneration);
  }
}

// ---------------------------------------------------------------------------
// Fault-injected checkpoint writes (satellite): the checkpoint tier honours
// SH_FAULT_*-style fault plans; transient faults retry through, exhausted
// budgets abort without touching the previous generation.
// ---------------------------------------------------------------------------

TEST(CkptFaults, TransientWriteFaultsRecoverViaEnvPlan) {
  const std::string dir = fresh_dir("ckpt_faults_transient");
  ::setenv("SH_FAULT_RATE", "0.9", 1);
  ::setenv("SH_FAULT_SEED", "7", 1);
  ::setenv("SH_FAULT_MAX_FAULTS_PER_OP", "2", 1);
  ::setenv("SH_FAULT_MAX_ATTEMPTS", "6", 1);
  ::setenv("SH_FAULT_BACKOFF_S", "0.00001", 1);
  storage::FaultConfig base;
  base.latency_weight = 0.0;  // keep the test fast: shorts + errors only
  base.fault_reads = false;
  Config cfg;
  cfg.dir = dir;
  // Deliberate: SH_FAULT_* does NOT overlay the checkpoint tier implicitly
  // (checkpoints usually target a healthier device than the tier under
  // test); the plan is opted in explicitly.
  cfg.faults = storage::fault_config_from_env(base);
  ::unsetenv("SH_FAULT_RATE");
  ::unsetenv("SH_FAULT_SEED");
  ::unsetenv("SH_FAULT_MAX_FAULTS_PER_OP");
  ::unsetenv("SH_FAULT_MAX_ATTEMPTS");
  ::unsetenv("SH_FAULT_BACKOFF_S");
  EXPECT_DOUBLE_EQ(cfg.faults.rate, 0.9);

  Checkpointer ck(cfg);
  const Snapshot snap = make_snapshot(4);
  ck.save_now(snap);  // transient write faults retry through
  expect_snapshots_equal(ck.restore_latest(), snap);
}

TEST(CkptFaults, ExhaustedBudgetAbortsWithoutCorruptingPreviousGeneration) {
  const std::string dir = fresh_dir("ckpt_faults_dead");
  const Snapshot gen1 = make_snapshot(1, 5.0f);
  {
    Config healthy;
    healthy.dir = dir;
    Checkpointer ck(healthy);
    ck.save_now(gen1);
  }

  Config cfg;
  cfg.dir = dir;
  cfg.faults.rate = 1.0;
  cfg.faults.latency_weight = 0.0;
  cfg.faults.short_weight = 0.0;
  cfg.faults.fault_reads = false;
  cfg.faults.max_faults_per_op = std::numeric_limits<std::size_t>::max();
  cfg.faults.max_attempts = 2;
  cfg.faults.backoff_initial_s = 1e-5;
  Checkpointer ck(cfg);
  EXPECT_THROW(ck.save_now(make_snapshot(2)), storage::IoError);
  // Aborted cleanly: previous generation intact, temp files unlinked.
  EXPECT_EQ(ck.generations(), (std::vector<std::uint64_t>{1}));
  EXPECT_TRUE(entries_with_suffix(dir, ".tmp").empty());
  expect_snapshots_equal(ck.restore_latest(), gen1);

  // The asynchronous path records the failure instead of throwing.
  ck.save_async(make_snapshot(3));
  ck.finish();
  EXPECT_EQ(ck.stats().saves_failed, 2u);
  EXPECT_NE(ck.last_error(), "");
  EXPECT_EQ(ck.generations(), (std::vector<std::uint64_t>{1}));
}

// ---------------------------------------------------------------------------
// Engine integration: periodic async snapshots, resume bit-identity,
// last-gasp on tier death.
// ---------------------------------------------------------------------------

using sh::testing::ckpt_chaos::tiny_config;

struct TrainRun {
  std::vector<float> losses;
  std::vector<float> params;
  std::size_t iterations = 0;
};

/// Trains `steps` steps from scratch (or from the latest generation when
/// `resume` and one exists), wiring the data-loader cursor into snapshots
/// via the extra_save/extra_load hooks.
TrainRun run_engine(const nn::GptConfig& mcfg, core::EngineConfig ecfg,
                    int steps, bool resume = false,
                    std::uint64_t corpus_seed = 9) {
  data::SyntheticCorpus corpus(mcfg.vocab, corpus_seed);
  ecfg.ckpt_extra_save = [&corpus](Blobs& b) {
    b.put("data.cursor", corpus.save_state());
  };
  ecfg.ckpt_extra_load = [&corpus](const Blobs& b) {
    corpus.load_state(b.get<tensor::RngState>("data.cursor"));
  };
  nn::GptModel model(mcfg);
  core::StrongholdEngine engine(model, std::move(ecfg));
  engine.init_params(42);
  int start = 0;
  if (resume && engine.resume_from_latest()) {
    start = static_cast<int>(engine.stats().iterations);
  }
  TrainRun run;
  for (int i = start; i < steps; ++i) {
    run.losses.push_back(engine.train_step(corpus.next_batch(2, mcfg.max_seq)));
  }
  engine.snapshot_params(run.params);
  run.iterations = engine.stats().iterations;
  return run;
}

TEST(EngineCkpt, PeriodicAsyncSnapshotThenResumeIsBitIdentical) {
  const auto mcfg = tiny_config();
  core::EngineConfig base;
  base.window = 2;

  const TrainRun ref = run_engine(mcfg, base, 8);  // uninterrupted

  core::EngineConfig ck = base;
  ck.ckpt.dir = fresh_dir("ckpt_engine_resume");
  ck.ckpt.every_n_steps = 4;
  const TrainRun before = run_engine(mcfg, ck, 6);  // commits gen-4, "dies"
  ASSERT_EQ(before.iterations, 6u);

  const TrainRun after = run_engine(mcfg, ck, 8, /*resume=*/true);
  // Resumed at step 4: replays steps 5..8 bit-identically — same losses,
  // same final parameters as the run that never stopped.
  ASSERT_EQ(after.losses.size(), 4u);
  for (std::size_t i = 0; i < after.losses.size(); ++i) {
    EXPECT_EQ(after.losses[i], ref.losses[4 + i]) << "step " << 5 + i;
  }
  sh::testing::expect_allclose(after.params, ref.params, 0.0f, 0.0f);
  EXPECT_EQ(after.iterations, 8u);
}

TEST(EngineCkpt, MidAccumulationCycleSnapshotResumesBitIdentical) {
  // every_n_steps=3 with grad_accumulation=2 snapshots BETWEEN optimizer
  // updates: the CPU-side gradient accumulators are part of the state.
  const auto mcfg = tiny_config();
  core::EngineConfig base;
  base.window = 2;
  base.grad_accumulation = 2;

  const TrainRun ref = run_engine(mcfg, base, 8);

  core::EngineConfig ck = base;
  ck.ckpt.dir = fresh_dir("ckpt_engine_midcycle");
  ck.ckpt.every_n_steps = 3;
  (void)run_engine(mcfg, ck, 5);  // gen-3 committed mid-cycle
  const TrainRun after = run_engine(mcfg, ck, 8, /*resume=*/true);
  ASSERT_EQ(after.losses.size(), 5u)
      << "expected resume from the mid-cycle generation at step 3";
  for (std::size_t i = 0; i < after.losses.size(); ++i) {
    EXPECT_EQ(after.losses[i], ref.losses[3 + i]) << "step " << 4 + i;
  }
  sh::testing::expect_allclose(after.params, ref.params, 0.0f, 0.0f);
}

TEST(EngineCkpt, StochasticRoundingResumeIsBitIdentical) {
  // Stochastic-rounding streams are keyed on state the snapshot carries
  // (layer, optimizer step, iteration), not on how many encodes this engine
  // happened to run, so a fresh engine resumes on the same bf16 bytes.
  const auto mcfg = tiny_config();
  core::EngineConfig base;
  base.window = 2;
  base.window_dtype = tensor::DType::bf16;
  base.window_rounding = tensor::Rounding::stochastic;

  const TrainRun ref = run_engine(mcfg, base, 8);

  core::EngineConfig ck = base;
  ck.ckpt.dir = fresh_dir("ckpt_engine_bf16_sr");
  ck.ckpt.every_n_steps = 4;
  (void)run_engine(mcfg, ck, 6);
  const TrainRun after = run_engine(mcfg, ck, 8, /*resume=*/true);
  ASSERT_EQ(after.losses.size(), 4u);
  for (std::size_t i = 0; i < after.losses.size(); ++i) {
    EXPECT_EQ(after.losses[i], ref.losses[4 + i]) << "step " << 5 + i;
  }
  sh::testing::expect_allclose(after.params, ref.params, 0.0f, 0.0f);
}

/// Rewrites an f32 engine snapshot into the format committed while the FP16
/// wire mode existed: the geometry blob spelled out byte by byte as
/// {u64 layers, u64 total_params, u32 fp16, u32 grad_accumulation}, plus the
/// loss-scaler state {f32 scale, i32 good_steps, i32 skipped} and the u32
/// overflow flag that such snapshots also carried.
ckpt::Snapshot to_fp16_era_format(ckpt::Snapshot snap,
                                  const nn::GptModel& model,
                                  std::uint32_t fp16) {
  const std::uint64_t layers = model.num_layers();
  std::uint64_t total_params = 0;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    total_params += static_cast<std::uint64_t>(model.layer(i).param_count());
  }
  const std::uint32_t accum = 1;
  std::vector<std::uint8_t> geom(24);
  std::memcpy(geom.data(), &layers, 8);
  std::memcpy(geom.data() + 8, &total_params, 8);
  std::memcpy(geom.data() + 16, &fp16, 4);
  std::memcpy(geom.data() + 20, &accum, 4);
  if (fp16 == 0) {
    // Today's writer still produces exactly these bytes.
    EXPECT_EQ(snap.blobs.entries.at("engine.geometry"), geom);
  }
  snap.blobs.entries["engine.geometry"] = geom;

  const float scale = 1024.0f;  // the scaler's initial scale, never updated
  const std::int32_t good_steps = 0, skipped = 0;
  std::vector<std::uint8_t> scaler(12);
  std::memcpy(scaler.data(), &scale, 4);
  std::memcpy(scaler.data() + 4, &good_steps, 4);
  std::memcpy(scaler.data() + 8, &skipped, 4);
  snap.blobs.entries["engine.scaler"] = scaler;
  snap.blobs.put("engine.overflow", std::uint32_t{0});
  return snap;
}

TEST(EngineCkpt, Fp16EraSnapshotResumesBitIdentically) {
  const auto mcfg = tiny_config();
  data::SyntheticCorpus corpus(mcfg.vocab, 21);
  std::vector<data::Batch> batches;
  for (int i = 0; i < 6; ++i) batches.push_back(corpus.next_batch(2, 8));
  core::EngineConfig ecfg;
  ecfg.window = 2;

  nn::GptModel m_ref(mcfg);
  core::StrongholdEngine ref(m_ref, ecfg);
  ref.init_params(42);
  std::vector<float> ref_losses;
  for (const auto& b : batches) ref_losses.push_back(ref.train_step(b));
  std::vector<float> ref_params;
  ref.snapshot_params(ref_params);

  ckpt::Snapshot old_format;
  {
    nn::GptModel m(mcfg);
    core::StrongholdEngine first(m, ecfg);
    first.init_params(42);
    for (int i = 0; i < 3; ++i) first.train_step(batches[static_cast<std::size_t>(i)]);
    old_format = to_fp16_era_format(first.capture_snapshot(), m, 0);
  }

  nn::GptModel m(mcfg);
  core::StrongholdEngine resumed(m, ecfg);
  resumed.init_params(0);
  resumed.restore_snapshot(old_format);
  EXPECT_EQ(resumed.stats().iterations, 3u);
  for (int i = 3; i < 6; ++i) {
    EXPECT_EQ(resumed.train_step(batches[static_cast<std::size_t>(i)]),
              ref_losses[static_cast<std::size_t>(i)])
        << "step " << i + 1;
  }
  std::vector<float> params;
  resumed.snapshot_params(params);
  sh::testing::expect_allclose(params, ref_params, 0.0f, 0.0f);
}

TEST(EngineCkpt, Fp16EraSnapshotOfFp16RunIsGeometryMismatch) {
  const auto mcfg = tiny_config();
  core::EngineConfig ecfg;
  ecfg.window = 2;
  nn::GptModel m(mcfg);
  core::StrongholdEngine engine(m, ecfg);
  engine.init_params(42);
  const ckpt::Snapshot fp16_run =
      to_fp16_era_format(engine.capture_snapshot(), m, /*fp16=*/1);
  try {
    engine.restore_snapshot(fp16_run);
    FAIL() << "expected RestoreError";
  } catch (const RestoreError& e) {
    EXPECT_EQ(e.kind(), RestoreErrorKind::GeometryMismatch);
  }
}

TEST(EngineCkpt, ResumeFromLatestReturnsFalseOnEmptyDirectory) {
  const auto mcfg = tiny_config();
  nn::GptModel model(mcfg);
  core::EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.ckpt.dir = fresh_dir("ckpt_engine_none");
  core::StrongholdEngine engine(model, ecfg);
  engine.init_params(1);
  EXPECT_FALSE(engine.resume_from_latest());
  EXPECT_NE(engine.checkpointer(), nullptr);
}

TEST(EngineCkpt, GeometryMismatchIsTyped) {
  const auto mcfg = tiny_config();
  const std::string dir = fresh_dir("ckpt_engine_geom");
  core::EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.ckpt.dir = dir;
  {
    nn::GptModel model(mcfg);
    core::StrongholdEngine engine(model, ecfg);
    engine.init_params(1);
    engine.checkpoint_now();
  }
  auto bigger = mcfg;
  bigger.layers = 6;  // different geometry
  nn::GptModel model(bigger);
  core::StrongholdEngine engine(model, ecfg);
  engine.init_params(1);
  try {
    (void)engine.resume_from_latest();
    FAIL() << "expected RestoreError";
  } catch (const RestoreError& e) {
    EXPECT_EQ(e.kind(), RestoreErrorKind::GeometryMismatch);
  }
}

TEST(EngineCkpt, EnvEnablesCheckpointingWithoutConfig) {
  const std::string dir = fresh_dir("ckpt_engine_env");
  ::setenv("SH_CKPT_DIR", dir.c_str(), 1);
  ::setenv("SH_CKPT_EVERY", "2", 1);
  const auto mcfg = tiny_config();
  nn::GptModel model(mcfg);
  core::EngineConfig ecfg;
  ecfg.window = 2;
  core::StrongholdEngine engine(model, ecfg);
  ::unsetenv("SH_CKPT_DIR");
  ::unsetenv("SH_CKPT_EVERY");
  ASSERT_NE(engine.checkpointer(), nullptr);
  engine.init_params(1);
  data::SyntheticCorpus corpus(mcfg.vocab, 2);
  for (int i = 0; i < 2; ++i) engine.train_step(corpus.next_batch(2, 8));
  engine.checkpointer()->finish();
  EXPECT_EQ(engine.checkpointer()->generations(),
            (std::vector<std::uint64_t>{2}));
}

// --- last-gasp on swap-tier death -----------------------------------------

TEST(EngineLastGasp, FailedWriteBackCommitsSnapshotAtConsistentBoundary) {
  // A tier write that exhausts its (single-attempt) budget fails the layer's
  // fire-and-forget write-back; the latched IoError surfaces at a step
  // boundary, where the masters are coherent — the engine must take a fresh
  // last-gasp capture that reflects the RAM masters exactly (the tier's
  // stale regions must not leak in) and commit it before rethrowing.
  //
  // The fault plan is a seeded pure function, so we search for a seed whose
  // plan lets init_params' synchronous tier writes through but faults a
  // later write-back. With rate 0.1 roughly every third seed qualifies.
  const auto mcfg = tiny_config();
  bool exercised = false;
  for (std::uint64_t seed = 0; seed < 64 && !exercised; ++seed) {
    const std::string tag = std::to_string(seed);
    const std::string dir = fresh_dir("ckpt_lastgasp_w" + tag);
    core::EngineConfig ecfg;
    ecfg.window = 1;
    ecfg.cpu_capacity_bytes = 64 * 1024;
    ecfg.swap_path = ::testing::TempDir() + "lastgasp_swap_" + tag + ".bin";
    ecfg.swap_faults.rate = 0.1;
    ecfg.swap_faults.seed = seed;
    ecfg.swap_faults.latency_weight = 0.0;
    ecfg.swap_faults.short_weight = 0.0;
    ecfg.swap_faults.fault_reads = false;
    ecfg.swap_faults.max_faults_per_op =
        std::numeric_limits<std::size_t>::max();
    ecfg.swap_faults.max_attempts = 1;  // one faulted attempt = op failed
    ecfg.ckpt.dir = dir;

    nn::GptModel model(mcfg);
    core::StrongholdEngine engine(model, ecfg);
    try {
      engine.init_params(42);
    } catch (const storage::IoError&) {
      continue;  // plan faulted an init write; try the next seed
    }
    EXPECT_GT(engine.stats().swap_backed_layers, 0u);

    data::SyntheticCorpus corpus(mcfg.vocab, 9);
    std::size_t completed = 0;
    try {
      for (int i = 0; i < 6; ++i) {
        engine.train_step(corpus.next_batch(2, mcfg.max_seq));
        // Let this step's write-back failure latch BEFORE the next step
        // starts — a subsequent step would fault stale tier data back into
        // the masters and pollute the capture.
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
      }
      continue;  // no write faulted within the horizon; next seed
    } catch (const storage::IoError&) {
      // Reads are healthy and in-body rethrows are wrapper-owned for ckpt
      // engines, so the IoError can only have surfaced at a consistent
      // boundary — after the body finished (iterations counted) — with a
      // committed last-gasp generation at exactly that iteration.
      completed = engine.stats().iterations;
      ASSERT_GE(completed, 1u) << "seed " << seed;
      ASSERT_EQ(engine.stats().ckpt_last_gasp, 1u) << "seed " << seed;
      ASSERT_NE(engine.checkpointer(), nullptr);
      ASSERT_EQ(engine.checkpointer()->generations(),
                (std::vector<std::uint64_t>{completed}))
          << "seed " << seed;
    }

    // The generation must equal a healthy run of the same `completed` steps,
    // bit for bit: restore into a healthy engine and compare.
    std::vector<float> want;
    {
      nn::GptModel ref_model(mcfg);
      core::EngineConfig healthy;
      healthy.window = 2;
      core::StrongholdEngine reference(ref_model, healthy);
      reference.init_params(42);
      data::SyntheticCorpus ref_corpus(mcfg.vocab, 9);
      for (std::size_t i = 0; i < completed; ++i) {
        reference.train_step(ref_corpus.next_batch(2, mcfg.max_seq));
      }
      reference.snapshot_params(want);
    }
    nn::GptModel res_model(mcfg);
    core::EngineConfig resume_cfg;
    resume_cfg.window = 2;
    resume_cfg.ckpt.dir = dir;
    core::StrongholdEngine resumed(res_model, resume_cfg);
    resumed.init_params(7);  // overwritten by the restore
    ASSERT_TRUE(resumed.resume_from_latest());
    EXPECT_EQ(resumed.stats().iterations, completed);
    std::vector<float> got;
    resumed.snapshot_params(got);
    sh::testing::expect_allclose(got, want, 0.0f, 0.0f);
    exercised = true;
  }
  ASSERT_TRUE(exercised)
      << "no fault seed in [0,64) exercised the last-gasp write path";
}

TEST(EngineLastGasp, MidStepFaultNeverCommitsTornState) {
  // Dead READS surface mid-step (inside the fetch), where masters may be
  // torn between micro-updates: the last-gasp path must only finish an
  // in-flight staged save — never capture fresh — so nothing gets committed
  // here, and that is the correct outcome.
  const auto mcfg = tiny_config();
  const std::string dir = fresh_dir("ckpt_lastgasp_read");
  core::EngineConfig ecfg;
  ecfg.window = 1;
  ecfg.cpu_capacity_bytes = 64 * 1024;
  ecfg.swap_path = ::testing::TempDir() + "ckpt_lastgasp_swap_r.bin";
  ecfg.swap_faults.rate = 1.0;
  ecfg.swap_faults.latency_weight = 0.0;
  ecfg.swap_faults.short_weight = 0.0;
  ecfg.swap_faults.fault_writes = false;  // init_params can seed the tier
  ecfg.swap_faults.max_faults_per_op = std::numeric_limits<std::size_t>::max();
  ecfg.swap_faults.max_attempts = 2;
  ecfg.swap_faults.backoff_initial_s = 1e-5;
  ecfg.ckpt.dir = dir;

  data::SyntheticCorpus corpus(mcfg.vocab, 9);
  nn::GptModel model(mcfg);
  core::StrongholdEngine engine(model, ecfg);
  engine.init_params(42);
  EXPECT_THROW(engine.train_step(corpus.next_batch(2, mcfg.max_seq)),
               storage::IoError);
  EXPECT_EQ(engine.stats().ckpt_last_gasp, 1u);
  ASSERT_NE(engine.checkpointer(), nullptr);
  EXPECT_TRUE(engine.checkpointer()->generations().empty());
}

// ---------------------------------------------------------------------------
// Kill-and-resume chaos test (headline): a child process training with
// periodic checkpoints is SIGKILLed at an arbitrary instant — including
// mid-checkpoint-write in the throttled variant — and a resumed run must
// replay the uninterrupted trajectory bit for bit.
// ---------------------------------------------------------------------------

constexpr int kChaosHorizon = 64;  // reference steps (child is killed early)

using sh::testing::ckpt_chaos::chaos_config;

/// The victim lives in its own non-gtest binary (ckpt_chaos_child, built
/// from tests/ckpt_chaos_child.cpp against the same testing/ckpt_chaos.hpp
/// configs) and sits next to this test binary in the build tree.
std::string child_binary_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "ckpt_chaos_child";
  buf[n] = '\0';
  return (fs::path(buf).parent_path() / "ckpt_chaos_child").string();
}

class KillAndResume : public ::testing::TestWithParam<double> {};

TEST_P(KillAndResume, ResumesBitIdenticalAfterSigkill) {
  const double throttle = GetParam();
  const std::string dir =
      fresh_dir(throttle > 0.0 ? "ckpt_kill_throttled" : "ckpt_kill_fast");
  const auto mcfg = tiny_config();

  // Reference: the uninterrupted trajectory, computed in-process.
  const TrainRun ref =
      run_engine(mcfg, chaos_config("", 0.0), kChaosHorizon);

  // Spawn the victim (the standalone ckpt_chaos_child binary).
  ::setenv("SH_CKPT_CHILD_DIR", dir.c_str(), 1);
  if (throttle > 0.0) {
    ::setenv("SH_CKPT_CHILD_THROTTLE", std::to_string(throttle).c_str(), 1);
  }
  const std::string exe = child_binary_path();
  const char* argv[] = {"ckpt_chaos_child", nullptr};
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, exe.c_str(), nullptr, nullptr,
                               const_cast<char* const*>(argv), environ);
  ::unsetenv("SH_CKPT_CHILD_DIR");
  ::unsetenv("SH_CKPT_CHILD_THROTTLE");
  ASSERT_EQ(rc, 0) << "posix_spawn failed";

  // Wait for at least one committed generation, then let the child get a
  // little further so the SIGKILL lands at an arbitrary point of a later
  // step — with a throttled checkpoint tier, most likely mid-write of the
  // NEXT generation's data file.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(90);
  while (entries_with_suffix(dir, ".manifest").empty()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "child never committed a generation";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(
      std::chrono::milliseconds(throttle > 0.0 ? 120 : 40));
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of being killed";
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // Resume in-process: restore the newest valid generation (skipping any
  // half-written one), replay to the horizon, compare bit for bit.
  data::SyntheticCorpus corpus(mcfg.vocab, 9);
  core::EngineConfig ecfg = chaos_config(dir, 0.0);
  ecfg.ckpt_extra_load = [&corpus](const Blobs& b) {
    corpus.load_state(b.get<tensor::RngState>("data.cursor"));
  };
  nn::GptModel model(mcfg);
  core::StrongholdEngine engine(model, std::move(ecfg));
  engine.init_params(42);
  ASSERT_TRUE(engine.resume_from_latest());
  const auto resumed_at = engine.stats().iterations;
  ASSERT_GE(resumed_at, 2u);
  ASSERT_LT(resumed_at, static_cast<std::size_t>(kChaosHorizon))
      << "child outran the reference horizon; raise kChaosHorizon";
  ASSERT_EQ(resumed_at % 2, 0u) << "generation off the checkpoint cadence";

  for (auto i = resumed_at; i < static_cast<std::size_t>(kChaosHorizon); ++i) {
    const float loss = engine.train_step(corpus.next_batch(2, mcfg.max_seq));
    EXPECT_EQ(loss, ref.losses[i]) << "diverged at step " << i + 1
                                   << " after resuming from " << resumed_at;
  }
  std::vector<float> params;
  engine.snapshot_params(params);
  sh::testing::expect_allclose(params, ref.params, 0.0f, 0.0f);
}

INSTANTIATE_TEST_SUITE_P(Chaos, KillAndResume,
                         ::testing::Values(0.0, /*mid-write bias:*/ 1.5e6),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return info.param > 0.0 ? "ThrottledTier"
                                                   : "FastTier";
                         });

}  // namespace
}  // namespace sh::ckpt
