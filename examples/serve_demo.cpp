// sh::serve demo: a model trained through the STRONGHOLD offload engine
// serves a burst of concurrent generation requests with continuous batching,
// a byte-budgeted KV arena (tight enough to force preemption) and per-request
// deterministic sampling. Prints the schedule's throughput, latency
// percentiles and the serve-step/request Gantt chart drawn from the obs
// recorder's "serve" and "request" spans. Exits non-zero when either track
// recorded nothing.
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/engine.hpp"
#include "data/synthetic.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "serve/scheduler.hpp"

int main() {
  sh::nn::GptConfig mcfg;
  mcfg.vocab = 64;
  mcfg.max_seq = 24;
  mcfg.hidden = 32;
  mcfg.heads = 4;
  mcfg.layers = 4;
  sh::nn::GptModel model(mcfg);

  sh::core::EngineConfig ecfg;
  ecfg.window = 2;
  ecfg.adam.lr = 5e-3f;
  // Size the simulated GPU so that, after the pinned layers and working
  // window are reserved, exactly 64 KiB of capacity remains: the scheduler's
  // default KV budget is that residual, so training and serving share one
  // accounted device budget (and the tight residual forces preemption).
  {
    sh::nn::GptModel probe(mcfg);
    sh::core::StrongholdEngine probe_engine(probe, ecfg);
    ecfg.gpu_memory_bytes = probe_engine.device_arena().used() + 64 * 1024;
  }
  sh::core::StrongholdEngine engine(model, ecfg);
  engine.init_params(7);

  // A few training steps so generation has structure to imitate.
  sh::data::SyntheticCorpus corpus(mcfg.vocab, 11);
  for (int i = 0; i < 30; ++i) {
    engine.train_step(corpus.next_batch(4, mcfg.max_seq));
  }

  sh::serve::SchedulerConfig scfg;
  scfg.max_batch = 8;
  scfg.arena.chunk_tokens = 4;
  // budget_bytes stays 0: the KV budget defaults to the device arena's
  // residual (the 64 KiB left beyond the window). 2 * layers * hidden * 4 =
  // 1024 bytes/token; 12 in-flight sequences at full depth would need
  // ~200 KiB — the residual budget forces preemption.
  sh::serve::Scheduler sched(engine, scfg);
  sh::obs::Recorder::global().set_enabled(true);

  std::printf("submitting 12 requests (greedy and sampled)...\n");
  for (int i = 0; i < 12; ++i) {
    sh::serve::Request r;
    r.prompt = {static_cast<std::int32_t>((3 + 5 * i) % mcfg.vocab),
                static_cast<std::int32_t>((1 + 7 * i) % mcfg.vocab)};
    r.max_new_tokens = 14;
    if (i % 2 == 0) {
      r.sampling.temperature = 0.9f;
      r.sampling.top_k = 12;
      r.sampling.top_p = 0.95f;
      r.sampling.seed = 40 + i;
    }  // odd requests stay greedy
    const auto id = sched.submit(r);
    std::printf("  request %llu: prompt [%d %d] %s\n",
                static_cast<unsigned long long>(id), r.prompt[0], r.prompt[1],
                i % 2 == 0 ? "sampled" : "greedy");
  }

  sched.run_to_completion();

  const auto ss = sched.stats();
  const auto& as = sched.arena_stats();
  const auto& es = sched.serve_engine().stats();
  std::printf("\nfinished %zu requests in %zu steps\n", ss.finished, ss.steps);
  std::printf("tokens/sec        : %.0f\n", es.tokens_per_s());
  std::printf("latency p50 / p99 : %.2f ms / %.2f ms\n",
              sched.serve_engine().latency_percentile(0.5) * 1e3,
              sched.serve_engine().latency_percentile(0.99) * 1e3);
  std::printf("KV arena          : peak %zu B of %zu B (residual default), "
              "%zu preemptions, %zu resumes\n",
              as.peak_bytes, sched.kv_budget_bytes(), as.preemptions,
              as.resumes);
  const auto arena_stats = engine.device_arena().stats();
  std::printf("device arena      : peak %zu B of %zu B capacity, "
              "%zu pressure events (%zu released / %zu stalled)\n",
              arena_stats.peak_bytes, arena_stats.capacity,
              arena_stats.pressure_events, arena_stats.pressure_releases,
              arena_stats.pressure_stalls);
  for (const auto& [region, rs] : arena_stats.regions) {
    std::printf("  region %-12s: in use %zu B, peak %zu B\n", region.c_str(),
                rs.bytes_in_use, rs.peak_bytes);
  }

  std::printf("\ntokens of request 1: ");
  for (const auto t : sched.result(1)) std::printf("%d ", t);
  // Keep the serving tracks and start the chart at the first serving span
  // (the snapshot is sorted by start time). Recorder time starts before the
  // training steps, which would otherwise squeeze the chart into its last
  // columns.
  std::vector<sh::obs::Span> spans;
  std::size_t serve_spans = 0, request_spans = 0;
  for (const auto& s : sh::obs::Recorder::global().snapshot()) {
    if (s.track != "serve" && s.track != "request") continue;
    ++(s.track == "serve" ? serve_spans : request_spans);
    spans.push_back(s);
  }
  const double t0 = spans.empty() ? 0.0 : spans.front().start_s;
  for (auto& s : spans) {
    s.start_s -= t0;
    s.end_s -= t0;
  }
  std::printf("\n\nserving trace (%zu step spans, %zu request spans):\n",
              serve_spans, request_spans);
  sh::obs::to_sim_trace(spans).render(std::cout, 100);
  if (serve_spans == 0 || request_spans == 0) {
    std::fprintf(stderr, "serve_demo: no serve or request spans recorded\n");
    return 1;
  }
  return 0;
}
