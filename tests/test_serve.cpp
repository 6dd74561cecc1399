// sh::serve equivalence and unit tests.
//
// The load-bearing property: continuous batching — including admissions,
// mixed prefill/decode steps and forced KV-arena preempt/resume — produces,
// for every request, exactly the token sequence of running that request
// ALONE through StrongholdEngine::generate_incremental with the same seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "obs/obs.hpp"
#include "serve/kv_arena.hpp"
#include "serve/scheduler.hpp"

namespace sh::serve {
namespace {

nn::GptConfig serve_model_config() {
  nn::GptConfig cfg;
  cfg.vocab = 32;
  cfg.max_seq = 16;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.layers = 3;
  return cfg;
}

std::vector<Request> eight_requests() {
  std::vector<Request> reqs;
  const std::vector<std::vector<std::int32_t>> prompts = {
      {3, 7}, {1}, {12, 30, 5}, {9, 0}, {4, 4, 4}, {22}, {17, 2}, {8, 19, 6}};
  for (std::size_t i = 0; i < prompts.size(); ++i) {
    Request r;
    r.prompt = prompts[i];
    r.max_new_tokens = 10;
    r.sampling.temperature = 0.0f;  // greedy, as generate_incremental
    r.sampling.seed = 100 + i;
    reqs.push_back(r);
  }
  return reqs;
}

// Acceptance: >= 8 concurrent requests under a KV budget that forces
// preemption; every request's tokens are identical to the solo
// generate_incremental run.
TEST(Serve, ContinuousBatchingMatchesSoloGenerationAcrossPreemption) {
  const auto mcfg = serve_model_config();
  nn::GptModel model(mcfg);
  core::EngineConfig ecfg;
  ecfg.window = 2;
  core::StrongholdEngine engine(model, ecfg);
  engine.init_params(17);

  SchedulerConfig scfg;
  scfg.max_batch = 8;
  scfg.arena.chunk_tokens = 4;
  // Bytes per token: 2 (K+V) * blocks * hidden * 4 = 384. Eight sequences
  // at one 4-token chunk (12288 B) fit; growth to 3 chunks each (36864 B)
  // does not — decoding MUST preempt.
  scfg.arena.budget_bytes = 16000;
  Scheduler sched(engine, scfg);

  std::vector<std::uint64_t> ids;
  for (auto& r : eight_requests()) ids.push_back(sched.submit(r));
  sched.run_to_completion();

  EXPECT_GE(sched.arena_stats().preemptions, 1u)
      << "budget did not force a preemption; the test lost its teeth";
  EXPECT_GE(sched.arena_stats().resumes, 1u);
  EXPECT_EQ(sched.stats().finished, ids.size());

  const auto reqs = eight_requests();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto solo =
        engine.generate_incremental(reqs[i].prompt, reqs[i].max_new_tokens);
    EXPECT_EQ(sched.result(ids[i]), solo) << "request " << i;
  }
}

// Stochastic sampling is a function of the request alone: a serial
// (max_batch 1) schedule and a fully batched schedule with a tight arena
// produce identical tokens for identical seeds.
TEST(Serve, SampledDecodingIndependentOfBatchingAndPreemption) {
  const auto mcfg = serve_model_config();
  nn::GptModel model(mcfg);
  core::EngineConfig ecfg;
  ecfg.window = 2;
  core::StrongholdEngine engine(model, ecfg);
  engine.init_params(23);

  auto reqs = eight_requests();
  for (auto& r : reqs) {
    r.sampling.temperature = 0.9f;
    r.sampling.top_k = 12;
    r.sampling.top_p = 0.95f;
  }

  SchedulerConfig serial;
  serial.max_batch = 1;
  serial.arena.chunk_tokens = 4;
  serial.arena.budget_bytes = 1 << 20;
  Scheduler a(engine, serial);

  SchedulerConfig batched;
  batched.max_batch = 8;
  batched.arena.chunk_tokens = 4;
  batched.arena.budget_bytes = 16000;  // forces preemption, as above
  Scheduler b(engine, batched);

  std::vector<std::uint64_t> ids_a, ids_b;
  for (const auto& r : reqs) ids_a.push_back(a.submit(r));
  for (const auto& r : reqs) ids_b.push_back(b.submit(r));
  a.run_to_completion();
  b.run_to_completion();

  EXPECT_GE(b.arena_stats().preemptions, 1u);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(a.result(ids_a[i]), b.result(ids_b[i])) << "request " << i;
  }
}

TEST(Serve, SubmitRejectsInfeasibleRequests) {
  const auto mcfg = serve_model_config();
  nn::GptModel model(mcfg);
  core::EngineConfig ecfg;
  ecfg.window = 1;
  core::StrongholdEngine engine(model, ecfg);
  engine.init_params(1);

  SchedulerConfig scfg;
  scfg.arena.chunk_tokens = 4;
  scfg.arena.budget_bytes = 4000;  // < one request at 12 tokens (4608 B)
  Scheduler sched(engine, scfg);

  Request r;
  r.prompt = {1, 2};
  r.max_new_tokens = 0;
  EXPECT_THROW(sched.submit(r), std::invalid_argument);
  r.max_new_tokens = 20;  // 22 > max_seq 16
  EXPECT_THROW(sched.submit(r), std::invalid_argument);
  r.max_new_tokens = 11;  // 12 fed tokens: KV footprint over the budget
  EXPECT_THROW(sched.submit(r), std::invalid_argument);
  r.max_new_tokens = 3;
  EXPECT_NO_THROW(sched.submit(r));
  Request dup;
  dup.id = 1;  // collides with the auto-assigned id above
  dup.prompt = {3};
  dup.max_new_tokens = 1;
  EXPECT_THROW(sched.submit(dup), std::invalid_argument);
}

TEST(Serve, SubmitAndPrefixRejectOutOfRangeTokenIds) {
  // A prompt id outside [0, vocab) is rejected before it is queued, so it
  // cannot fail the batch step that would embed it; the scheduler stays
  // usable and a valid request still runs.
  const auto mcfg = serve_model_config();
  nn::GptModel model(mcfg);
  core::EngineConfig ecfg;
  ecfg.window = 1;
  core::StrongholdEngine engine(model, ecfg);
  engine.init_params(1);
  Scheduler sched(engine, {});

  const auto vocab = static_cast<std::int32_t>(mcfg.vocab);
  const std::vector<std::int32_t> bad_prefix = {1, vocab, 2};
  EXPECT_THROW(sched.register_prefix(bad_prefix), std::invalid_argument);
  EXPECT_FALSE(sched.has_prefix());
  EXPECT_EQ(sched.arena_stats().prefix_bytes, 0u);

  Request r;
  r.max_new_tokens = 3;
  for (const std::int32_t id : {vocab, -1}) {
    r.prompt = {4, id};
    EXPECT_THROW(sched.submit(r), std::invalid_argument) << "id " << id;
  }
  EXPECT_EQ(sched.stats().submitted, 0u);

  r.prompt = {4, vocab - 1};
  const std::uint64_t ok = sched.submit(r);
  sched.run_to_completion();
  EXPECT_EQ(sched.result(ok), engine.generate_incremental(r.prompt, 3));
}

TEST(Serve, SchedulerRecordsThroughputAndLatency) {
  const auto mcfg = serve_model_config();
  nn::GptModel model(mcfg);
  core::EngineConfig ecfg;
  ecfg.window = 2;
  core::StrongholdEngine engine(model, ecfg);
  engine.init_params(5);

  SchedulerConfig scfg;
  scfg.max_batch = 4;
  scfg.arena.budget_bytes = 1 << 20;
  Scheduler sched(engine, scfg);
  obs::Recorder& rec = obs::Recorder::global();
  rec.clear();
  rec.set_enabled(true);
  for (auto& r : eight_requests()) sched.submit(r);
  sched.run_to_completion();
  const auto spans = rec.snapshot();
  rec.set_enabled(false);
  rec.clear();

  const auto& es = sched.serve_engine().stats();
  EXPECT_GT(es.steps, 0u);
  // 8 prompts of 2.125 tokens average, 8x9 decode feeds.
  EXPECT_EQ(es.prefill_tokens, 17u);
  EXPECT_EQ(es.decode_tokens, 72u);
  EXPECT_GT(es.tokens_per_s(), 0.0);
  EXPECT_GT(sched.serve_engine().latency_percentile(0.5), 0.0);
  EXPECT_GE(sched.serve_engine().latency_percentile(0.99),
            sched.serve_engine().latency_percentile(0.5));
  // The recorder holds per-step serve spans and one span per finished
  // request.
  std::size_t serve_spans = 0, request_spans = 0;
  for (const auto& span : spans) {
    serve_spans += span.track == "serve";
    request_spans += span.track == "request";
  }
  EXPECT_EQ(serve_spans, es.steps);
  EXPECT_EQ(request_spans, 8u);
}

TEST(Serve, DisabledRecorderKeepsNoServingSpans) {
  // Serving keeps no trace of its own: with the recorder off, a run leaves
  // nothing behind however many steps and requests it served.
  const auto mcfg = serve_model_config();
  nn::GptModel model(mcfg);
  core::EngineConfig ecfg;
  ecfg.window = 2;
  core::StrongholdEngine engine(model, ecfg);
  engine.init_params(5);

  SchedulerConfig scfg;
  scfg.max_batch = 4;
  scfg.arena.budget_bytes = 1 << 20;
  Scheduler sched(engine, scfg);
  obs::Recorder& rec = obs::Recorder::global();
  rec.set_enabled(false);
  rec.clear();
  for (auto& r : eight_requests()) sched.submit(r);
  sched.run_to_completion();

  EXPECT_GT(sched.serve_engine().stats().steps, 0u);
  EXPECT_EQ(sched.serve_engine().stats().decode_tokens, 72u);
  EXPECT_TRUE(rec.snapshot().empty());
}

TEST(KvArena, AccountingAdmissionAndGrowth) {
  const auto mcfg = serve_model_config();
  KvArenaConfig cfg;
  cfg.chunk_tokens = 4;
  // 384 bytes/token -> 1536 per chunk per sequence.
  cfg.budget_bytes = 4000;
  KvArena arena(mcfg, cfg);
  EXPECT_EQ(arena.bytes_for(1), 1536u);
  EXPECT_EQ(arena.bytes_for(4), 1536u);
  EXPECT_EQ(arena.bytes_for(5), 3072u);

  EXPECT_TRUE(arena.try_reserve(1, 3));
  EXPECT_TRUE(arena.try_reserve(2, 2));
  EXPECT_EQ(arena.stats().bytes_in_use, 3072u);
  EXPECT_FALSE(arena.try_reserve(3, 1));  // 3 * 1536 > 4000
  EXPECT_TRUE(arena.try_reserve(1, 4));   // within the existing chunk
  EXPECT_FALSE(arena.try_reserve(1, 5));  // growth would exceed the budget
  arena.release(2);
  EXPECT_TRUE(arena.try_reserve(1, 5));  // now it fits
  EXPECT_EQ(arena.stats().grows, 1u);
  EXPECT_EQ(arena.stats().bytes_in_use, 3072u);
  EXPECT_EQ(arena.caches(1).size(), 3u);
  EXPECT_EQ(arena.caches(1)[0].capacity, 8);
}

TEST(KvArena, PreemptResumeRestoresRowsBitExactly) {
  const auto mcfg = serve_model_config();
  KvArenaConfig cfg;
  cfg.chunk_tokens = 4;
  cfg.budget_bytes = 1 << 20;
  KvArena arena(mcfg, cfg);
  ASSERT_TRUE(arena.try_reserve(7, 6));

  // Fill 5 live positions of every cache with a recognisable pattern.
  const std::int64_t live = 5;
  for (nn::KvCache& c : arena.caches(7)) {
    c.length = live;
    for (std::int64_t i = 0; i < c.k.numel(); ++i) {
      c.k.at(i) = static_cast<float>(i) * 0.25f;
      c.v.at(i) = static_cast<float>(i) * -0.5f;
    }
  }
  const auto before_k = arena.caches(7)[1].k.clone();
  const std::int64_t old_cap = arena.caches(7)[0].capacity;

  arena.preempt(7);
  EXPECT_EQ(arena.stats().bytes_in_use, 0u);
  EXPECT_TRUE(arena.preempted(7));
  EXPECT_FALSE(arena.resident(7));

  // Resume at a LARGER reservation: capacity changes, live rows must not.
  ASSERT_TRUE(arena.try_resume(7, 9));
  const auto caches = arena.caches(7);
  EXPECT_GT(caches[0].capacity, old_cap);
  EXPECT_EQ(caches[0].length, live);
  const std::int64_t head_dim = mcfg.hidden / mcfg.heads;
  for (std::int64_t h = 0; h < mcfg.heads; ++h) {
    for (std::int64_t t = 0; t < live; ++t) {
      for (std::int64_t d = 0; d < head_dim; ++d) {
        const auto src = (h * old_cap + t) * head_dim + d;
        const auto dst = (h * caches[1].capacity + t) * head_dim + d;
        EXPECT_EQ(caches[1].k.at(dst), before_k.at(src));
      }
    }
  }
  EXPECT_EQ(arena.stats().preemptions, 1u);
  EXPECT_EQ(arena.stats().resumes, 1u);
}

}  // namespace
}  // namespace sh::serve
