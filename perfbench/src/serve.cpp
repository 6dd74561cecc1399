// serve_open_loop: one Scheduler on an f32 window-2 engine serving open-loop
// Poisson traffic. Requests are submitted when they fall due, whatever the
// server's state; each request's latency runs from its due time to the end
// of the step that finished it, so a stall also delays later arrivals. The
// traced run serves the same traffic untraced, then again traced.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <thread>

#include "bench.hpp"
#include "core/engine.hpp"
#include "data/synthetic.hpp"
#include "serve/scheduler.hpp"
#include "serve/workload.hpp"

namespace pb {

namespace {

constexpr int kSetups = 5;
/// About 30% of the server's capacity on a 4-core host: per-step cost moves
/// latency without queueing amplifying every slowdown of a shared host.
constexpr double kRatePerS = 15.0;
constexpr std::size_t kPretrainSteps = 24;

sh::nn::GptConfig model_config() {
  sh::nn::GptConfig c;
  c.vocab = 64;
  c.max_seq = 64;
  c.hidden = 128;
  c.heads = 4;
  c.layers = 6;
  return c;
}

sh::core::EngineConfig engine_config() {
  sh::core::EngineConfig c;
  c.window = 2;
  return c;
}

sh::serve::SchedulerConfig scheduler_config() {
  sh::serve::SchedulerConfig c;
  c.max_batch = 8;
  c.arena.budget_bytes = std::size_t{1} << 20;
  return c;
}

/// Bounded-Pareto value at quantile u in [0, 1) (inverse CDF): mostly short,
/// with a power-law tail toward `hi`.
std::size_t bounded_pareto(double u, double lo, double hi) {
  constexpr double kAlpha = 1.2;
  const double x = lo / std::pow(1.0 - u * (1.0 - std::pow(lo / hi, kAlpha)),
                                 1.0 / kAlpha);
  return static_cast<std::size_t>(std::clamp(x, lo, hi));
}

/// The quantiles (i + 0.5) / n for i < n, in an order shuffled by `rng`.
/// Drawing lengths, gaps and prefix sharing this way gives every seed the
/// same mix, so the seed changes which request gets which value, not the
/// distribution; that keeps a run's tail latency from depending on how many
/// long requests its seed happened to draw.
std::vector<double> stratified(std::size_t n, sh::tensor::Rng& rng) {
  std::vector<double> u(n);
  for (std::size_t i = 0; i < n; ++i) {
    u[i] = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
  }
  for (std::size_t i = n; i > 1; --i) std::swap(u[i - 1], u[rng.next_below(i)]);
  return u;
}

/// Open-loop traffic of `requests` requests: exponential inter-arrival gaps
/// at kRatePerS, prompts of 4-24 and outputs of 4-32 tokens (bounded
/// Pareto), and an 8-token shared prefix on half the requests.
sh::serve::Workload make_traffic(std::uint64_t seed, std::size_t requests) {
  const auto vocab = static_cast<std::uint64_t>(model_config().vocab);
  sh::tensor::Rng rng(seed);
  const auto token = [&] {
    return static_cast<std::int32_t>(1 + rng.next_below(vocab - 1));
  };
  sh::serve::Workload wl;
  for (int i = 0; i < 8; ++i) wl.shared_prefix.push_back(token());
  const std::vector<double> gaps = stratified(requests, rng);
  const std::vector<double> prompts = stratified(requests, rng);
  const std::vector<double> outputs = stratified(requests, rng);
  const std::vector<double> shares = stratified(requests, rng);
  double clock = 0.0;
  for (std::size_t i = 0; i < requests; ++i) {
    sh::serve::WorkloadItem it;
    it.id = i + 1;
    clock += -std::log(1.0 - gaps[i]) / kRatePerS;
    it.arrival_s = clock;
    it.shares_prefix = shares[i] < 0.5;
    if (it.shares_prefix) it.prompt = wl.shared_prefix;
    for (std::size_t t = bounded_pareto(prompts[i], 4, 24); t > 0; --t) {
      it.prompt.push_back(token());
    }
    it.max_new_tokens = bounded_pareto(outputs[i], 4, 32);
    it.sampling.temperature = 0.8f;
    it.sampling.top_k = 16;
    it.sampling.seed = rng.next_u64();
    wl.items.push_back(std::move(it));
  }
  return wl;
}

struct Server {
  std::unique_ptr<sh::nn::GptModel> model;
  std::unique_ptr<sh::core::StrongholdEngine> engine;
  double train_loss = 0.0;
};

/// Trains the served model briefly on the seed's corpus, installs its state
/// in a fresh serving engine, and serves one warm-up request.
std::unique_ptr<Server> setup(std::uint64_t seed) {
  auto srv = std::make_unique<Server>();
  sh::ckpt::Snapshot trained;
  {
    sh::nn::GptModel model(model_config());
    sh::core::StrongholdEngine engine(model, engine_config());
    engine.init_params(seed);
    sh::data::SyntheticCorpus corpus(model_config().vocab, seed);
    std::vector<double> losses;
    for (std::size_t i = 0; i < kPretrainSteps; ++i) {
      losses.push_back(
          engine.train_step(corpus.next_batch(2, model_config().max_seq)));
    }
    srv->train_loss = mean(losses);
    trained = engine.capture_snapshot();
  }
  srv->model = std::make_unique<sh::nn::GptModel>(model_config());
  srv->engine =
      std::make_unique<sh::core::StrongholdEngine>(*srv->model, engine_config());
  srv->engine->restore_snapshot(trained);
  sh::serve::Scheduler warm(*srv->engine, scheduler_config());
  sh::serve::Request r;
  r.prompt = {1, 2, 3, 4};
  r.max_new_tokens = 4;
  warm.submit(r);
  warm.run_to_completion();
  return srv;
}

/// One workload served to completion by a fresh Scheduler.
struct ServePhase {
  std::vector<double> latency_s;  ///< due time -> finish, by request index
  std::vector<double> late_s;     ///< due time -> submit, per request
  std::vector<double> step_s;     ///< each Scheduler::step
  double tokens = 0.0;            ///< prompt + generated tokens processed
  double wall_s = 0.0;
  std::size_t finished = 0;
  std::size_t wrong_length = 0;
  sh::serve::ServeEngineStats engine;
  sh::serve::SchedulerStats sched;
  std::size_t kv_peak_bytes = 0;

  /// Seconds spent inside Scheduler::step.
  double busy_s() const {
    return std::accumulate(step_s.begin(), step_s.end(), 0.0);
  }
};

double processed_tokens(const sh::serve::Scheduler& sched) {
  const auto& s = sched.serve_engine().stats();
  return static_cast<double>(s.prefill_tokens + s.decode_tokens);
}

ServePhase serve(sh::core::StrongholdEngine& engine,
                 const sh::serve::Workload& wl, Report& report) {
  sh::serve::Scheduler sched(engine, scheduler_config());
  sched.register_prefix(wl.shared_prefix);
  const std::size_t n = wl.items.size();
  std::vector<std::uint64_t> ids(n);
  std::vector<std::size_t> in_flight;
  ServePhase p;
  p.latency_s.assign(n, 0.0);
  const double tokens_before = processed_tokens(sched);
  const double start = now();
  std::size_t next = 0;
  while (next < n || !in_flight.empty()) {
    while (next < n && start + wl.items[next].arrival_s <= now()) {
      const auto& it = wl.items[next];
      sh::serve::Request r;
      r.prompt = it.prompt;
      r.max_new_tokens = it.max_new_tokens;
      r.sampling = it.sampling;
      ids[next] = sched.submit(std::move(r));
      p.late_s.push_back(now() - (start + it.arrival_s));
      in_flight.push_back(next++);
    }
    if (in_flight.empty()) {
      // Spin rather than sleep until the next arrival: a sleeping main
      // thread lets the host park the VM's idle CPUs, and waking them made
      // serving throughput vary by 10% from run to run (1% when spinning).
      while (now() < start + wl.items[next].arrival_s) {
        std::this_thread::yield();
      }
      continue;
    }
    const double t0 = now();
    const bool more = sched.step();
    const double t1 = now();
    p.step_s.push_back(t1 - t0);
    for (std::size_t k = 0; k < in_flight.size();) {
      const std::size_t i = in_flight[k];
      if (!sched.finished(ids[i])) {
        ++k;
        continue;
      }
      const auto& it = wl.items[i];
      p.latency_s[i] = t1 - (start + it.arrival_s);
      ++p.finished;
      if (sched.result(ids[i]).size() !=
          it.prompt.size() + it.max_new_tokens) {
        ++p.wrong_length;
      }
      in_flight[k] = in_flight.back();
      in_flight.pop_back();
    }
    if (!more && !in_flight.empty()) break;  // scheduler lost requests
  }
  p.wall_s = now() - start;
  p.tokens = processed_tokens(sched) - tokens_before;
  p.engine = sched.serve_engine().stats();
  p.sched = sched.stats();
  p.kv_peak_bytes = sched.arena_stats().peak_bytes;
  report.ops(n, n - p.finished + p.wrong_length);
  return p;
}

void check_phases(const std::vector<ServePhase>& phases, std::size_t requests,
                  Report& r) {
  std::size_t finished = 0, wrong_length = 0;
  for (const ServePhase& p : phases) {
    finished += p.finished;
    wrong_length += p.wrong_length;
  }
  r.check(finished == requests, "every request finished");
  r.check(wrong_length == 0,
          "every request produced exactly its max_new_tokens");
}

void report_layers(const sh::serve::Workload& wl,
                   sh::core::StrongholdEngine& engine,
                   const ServePhase& untraced, const ServePhase& traced,
                   const SpanStats& ss, const sh::core::EngineStats& before,
                   Report& r) {
  const sh::nn::GptConfig mc = model_config();
  const sh::core::EngineStats st = engine.stats();
  const double steps = static_cast<double>(traced.step_s.size());
  const double per_step_ms = 1e3 / steps;

  r.metric("tensor.gemm_gflops",
           probe_gemm_gflops(static_cast<std::int64_t>(scheduler_config().max_batch),
                             mc.hidden),
           "GFLOP/s");
  r.metric("tensor.attn_fwd_bwd_ms",
           probe_attention_ms(1, mc.heads, mc.max_seq, mc.hidden), "ms");
  const char* f32 = "f32 window: no dtype conversion";
  r.absent("tensor.encode_sr_gbps", "GB/s", f32);
  r.absent("tensor.encode_rne_gbps", "GB/s", f32);
  r.absent("tensor.decode_gbps", "GB/s", f32);

  const char* no_gpu_spans = "serving records no per-layer compute spans";
  r.absent("core.fwd_ms_per_step", "ms", no_gpu_spans);
  r.absent("core.bwd_ms_per_step", "ms", "serving runs no backward pass");
  r.absent("core.gpu_busy_fraction", "fraction", no_gpu_spans);
  r.metric("core.stall_ms_per_step",
           1e3 * (st.stall_seconds - before.stall_seconds) / steps, "ms");
  r.metric("core.prefetch_stalls_per_step",
           static_cast<double>(st.prefetch_stalls - before.prefetch_stalls) /
               steps,
           "count");
  r.metric("core.demand_fetches",
           static_cast<double>(st.demand_fetches - before.demand_fetches),
           "count");
  r.metric("core.window_layers", static_cast<double>(st.window), "layers");

  r.metric("hw.h2d_busy_ms_per_step", ss.sum_s("h2d", "p") * per_step_ms,
           "ms");
  r.absent("hw.d2h_busy_ms_per_step", "ms", "serving offloads no gradients");
  r.metric("hw.h2d_bytes_per_step",
           static_cast<double>(st.h2d_bytes - before.h2d_bytes) / steps,
           "bytes");
  r.absent("hw.d2h_bytes_per_step", "bytes", "serving offloads no gradients");
  r.absent("hw.h2d_overlap_fraction", "fraction", no_gpu_spans);
  r.absent("hw.d2h_overlap_fraction", "fraction",
           "serving offloads no gradients");
  r.metric("hw.h2d_queue_ms_per_step",
           ss.sum_s("h2d-queue", "op") * per_step_ms, "ms");

  const char* no_opt = "serving runs no optimizer";
  r.absent("opt.update_ms_per_step", "ms", no_opt);
  r.absent("opt.updates_per_step", "count", no_opt);
  r.absent("opt.tier_prefetch_hit_ratio", "fraction", no_opt);

  const char* no_swap = "no swap tier";
  for (const char* name : {"storage.read_ms_per_step",
                           "storage.write_ms_per_step",
                           "storage.queue_ms_per_step"}) {
    r.absent(name, "ms", no_swap);
  }
  for (const char* name : {"storage.reads_per_step", "storage.writes_per_step",
                           "storage.retries", "storage.io_errors"}) {
    r.absent(name, "count", no_swap);
  }

  const auto& regions = st.arena.regions;
  const auto region_peak = [&](const char* name) {
    const auto it = regions.find(name);
    return it == regions.end() ? 0.0
                               : static_cast<double>(it->second.peak_bytes);
  };
  r.metric("mem.window_peak_bytes", region_peak("window"), "bytes");
  r.metric("mem.activations_peak_bytes", region_peak("activations"), "bytes");
  r.metric("mem.kv_peak_bytes", static_cast<double>(traced.kv_peak_bytes),
           "bytes");
  r.metric("mem.pressure_events",
           static_cast<double>(st.arena.pressure_events), "count");

  const char* one_rank = "one serving rank";
  r.absent("dist.allreduce_ms_per_step", "ms", one_rank);
  r.absent("dist.floats_communicated_per_step", "count", one_rank);
  r.absent("dist.rank_compute_ms_per_step", "ms", one_rank);
  r.absent("dist.rank_wait_ms_per_step", "ms", one_rank);
  r.absent("dist.scaling_efficiency", "fraction", one_rank);

  const double requests = static_cast<double>(wl.items.size());
  r.metric("serve.step_ms_p50", 1e3 * percentile(traced.step_s, 0.5), "ms");
  r.metric("serve.batch_mean",
           static_cast<double>(traced.engine.sequence_steps) /
               static_cast<double>(traced.engine.steps),
           "count");
  r.metric("serve.prefill_tokens_per_request",
           static_cast<double>(traced.sched.prompt_tokens_fed) / requests,
           "count");
  r.metric("serve.prefix_prefill_savings",
           static_cast<double>(wl.total_prompt_tokens()) /
               static_cast<double>(traced.sched.prompt_tokens_fed),
           "ratio");
  r.metric("serve.preemptions", static_cast<double>(traced.sched.preemptions),
           "count");
  r.metric("serve.gen_late_ms_p90", 1e3 * percentile(traced.late_s, 0.9),
           "ms");

  r.metric("obs.trace_overhead_fraction",
           percentile(traced.step_s, 0.5) / percentile(untraced.step_s, 0.5) -
               1.0,
           "fraction");
}

}  // namespace

void run_serve_open_loop(const Options& opt, Report& report) {
  if (!opt.trace) {
    std::unique_ptr<Server> srv;
    std::vector<double> setup_s;
    for (int i = 0; i < kSetups; ++i) {
      srv.reset();
      const double t0 = now();
      srv = setup(opt.seed);
      setup_s.push_back(now() - t0);
    }
    const auto requests =
        static_cast<std::size_t>(kRatePerS * opt.seconds + 0.5);
    const sh::serve::Workload wl = make_traffic(opt.seed, requests);
    const ServePhase p = serve(*srv->engine, wl, report);
    std::printf("%s: %zu requests in %.3f s, %zu steps, %zu preemptions\n",
                opt.workload.c_str(), requests, p.wall_s, p.step_s.size(),
                p.sched.preemptions);
    check_phases({p}, requests, report);
    report.metric("tokens_per_s", p.tokens / p.busy_s(), "tok/s");
    report.metric("latency_p50_ms", 1e3 * percentile(p.latency_s, 0.5), "ms");
    report.metric("latency_p90_ms", 1e3 * percentile(p.latency_s, 0.9), "ms");
    report.metric("train_loss", srv->train_loss, "nats");
    report.metric("setup_s", percentile(setup_s, 0.5), "s");
    report.metric("peak_device_bytes",
                  static_cast<double>(srv->engine->device_arena().peak_bytes()),
                  "bytes");
    report.metric("peak_host_bytes", peak_rss_bytes(), "bytes");
    return;
  }
  // Traced run: the same traffic twice, untraced then traced, over half the
  // seconds each.
  const std::unique_ptr<Server> srv = setup(opt.seed);
  const auto requests =
      static_cast<std::size_t>(kRatePerS * opt.seconds / 2 + 0.5);
  const sh::serve::Workload wl = make_traffic(opt.seed, requests);
  const ServePhase untraced = serve(*srv->engine, wl, report);
  const sh::core::EngineStats before = srv->engine->stats();
  begin_traced_phase();
  const ServePhase traced = serve(*srv->engine, wl, report);
  const SpanStats ss = end_traced_phase(opt);
  check_phases({untraced, traced}, 2 * requests, report);
  report_layers(wl, *srv->engine, untraced, traced, ss, before, report);
}

}  // namespace pb
