// Training workloads: train_dense, train_offload and train_dp4.
//
// Each sets up its trainer several times (setup_s is the median), trains for
// the run's seconds (and at least the kLossSteps steps train_loss averages),
// then checks the outputs. The traced run trains for half the seconds untraced and
// half traced, and derives the per-layer metrics from the traced half.
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "bench.hpp"
#include "core/engine.hpp"
#include "core/monolithic.hpp"
#include "data/synthetic.hpp"
#include "dist/dp_trainer.hpp"

namespace pb {

namespace {

using sh::core::EngineStats;

constexpr int kSetups = 5;
/// Steady sample of the timed steps: the 3 of 5 chunks with the lowest
/// median step time (about 120 of 200 steps in a 20 s run).
constexpr std::size_t kChunks = 5;
constexpr std::size_t kSteadyChunks = 3;
/// train_loss is the mean loss of the first kLossSteps steps, warm-up
/// included: a fixed amount of training, so speed cannot move it but any
/// change to the numerics does. Averaging 64 steps keeps its spread
/// across seeds small (the loss at one late step varies by ~10% by seed).
constexpr std::size_t kLossSteps = 64;

struct TrainSpec {
  sh::nn::GptConfig model;
  sh::core::EngineConfig engine;
  /// 0: one StrongholdEngine; otherwise a DataParallelTrainer of this world.
  int world = 0;
  /// Global batch rows per step.
  std::int64_t batch = 1;
  std::size_t warmup_steps = 2;
};

/// The model behind a StrongholdEngine, or a DataParallelTrainer.
class Trainer {
 public:
  Trainer(const TrainSpec& spec, int world, std::uint64_t seed) {
    if (world == 0) {
      model_ = std::make_unique<sh::nn::GptModel>(spec.model);
      engine_ =
          std::make_unique<sh::core::StrongholdEngine>(*model_, spec.engine);
      engine_->init_params(seed);
    } else {
      dp_ = std::make_unique<sh::dist::DataParallelTrainer>(spec.model,
                                                            spec.engine, world);
      dp_->init_params(seed);
    }
  }

  float step(const sh::data::Batch& batch) {
    return engine_ ? engine_->train_step(batch) : dp_->train_step(batch);
  }
  int world() const { return dp_ ? dp_->world() : 1; }
  bool data_parallel() const { return dp_ != nullptr; }
  EngineStats stats(int rank) const {
    return engine_ ? engine_->stats() : dp_->stats(rank);
  }
  /// Synchronises pending updates and copies rank `rank`'s parameters.
  void snapshot(int rank, std::vector<float>& out) {
    if (engine_) {
      engine_->snapshot_params(out);
    } else {
      dp_->snapshot_params(rank, out);
    }
  }
  double floats_communicated() const {
    return dp_ ? static_cast<double>(dp_->floats_communicated()) : 0.0;
  }

 private:
  std::unique_ptr<sh::nn::GptModel> model_;
  std::unique_ptr<sh::core::StrongholdEngine> engine_;
  std::unique_ptr<sh::dist::DataParallelTrainer> dp_;
};

struct Session {
  std::unique_ptr<Trainer> trainer;
  sh::data::SyntheticCorpus corpus;
  std::vector<float> losses;  ///< every step so far, warm-up included

  sh::data::Batch next_batch(const TrainSpec& spec) {
    return corpus.next_batch(spec.batch, spec.model.max_seq);
  }
};

/// Construction, initialisation and warm-up steps.
std::unique_ptr<Session> setup(const TrainSpec& spec, int world,
                               std::uint64_t seed) {
  auto s = std::make_unique<Session>(
      Session{std::make_unique<Trainer>(spec, world, seed),
              sh::data::SyntheticCorpus(spec.model.vocab, seed),
              {}});
  for (std::size_t i = 0; i < spec.warmup_steps; ++i) {
    s->losses.push_back(s->trainer->step(s->next_batch(spec)));
  }
  return s;
}

/// Sets up kSetups times and keeps the last session; returns the median
/// set-up seconds.
double timed_setups(const TrainSpec& spec, std::uint64_t seed,
                    std::unique_ptr<Session>& out) {
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    out.reset();
    const double t0 = now();
    out = setup(spec, spec.world, seed);
    setup_s.push_back(now() - t0);
  }
  return percentile(std::move(setup_s), 0.5);
}

struct Phase {
  std::vector<double> step_s;
  std::vector<double> step_end;  ///< seconds since the loop started
  double wall_s = 0.0;
  double tokens_per_step = 0.0;
  /// The steady sample (steady_chunks, by median step time).
  std::vector<double> steady_step_s;
  double steady_wall_s = 0.0;

  /// Trained tokens per wall second of the steady chunks, batch sampling
  /// included.
  double tokens_per_s() const {
    return static_cast<double>(steady_step_s.size()) * tokens_per_step /
           steady_wall_s;
  }
  /// Step-time percentile over the steady chunks, in ms.
  double ms(double q) const { return 1e3 * percentile(steady_step_s, q); }
};

/// Trains for `seconds`, and on until the session has `min_steps` losses.
Phase train_for(Session& s, const TrainSpec& spec, double seconds,
                std::size_t min_steps, Report& report) {
  Phase p;
  const double start = now();
  while (now() - start < seconds || s.losses.size() < min_steps) {
    const sh::data::Batch batch = s.next_batch(spec);
    const double t0 = now();
    s.losses.push_back(s.trainer->step(batch));
    const double t1 = now();
    p.step_s.push_back(t1 - t0);
    p.step_end.push_back(t1 - start);
  }
  p.wall_s = now() - start;
  p.tokens_per_step = static_cast<double>(spec.batch * spec.model.max_seq);
  for (const Range r : steady_chunks(p.step_s.size(), kChunks, kSteadyChunks,
                                     [&](Range r) {
                                       return percentile(slice(p.step_s, r), 0.5);
                                     })) {
    const std::vector<double> chunk = slice(p.step_s, r);
    p.steady_step_s.insert(p.steady_step_s.end(), chunk.begin(), chunk.end());
    p.steady_wall_s += p.step_end[r.last - 1] -
                       (r.first == 0 ? 0.0 : p.step_end[r.first - 1]);
  }
  report.ops(p.step_s.size(), 0);
  return p;
}

/// Counters summed over ranks and divided by the world (per-rank values).
struct Counters {
  double stall_s = 0, prefetch_stalls = 0, demand_fetches = 0;
  double h2d_bytes = 0, d2h_bytes = 0, updates = 0;
  double moment_prefetches = 0, moment_demand_reads = 0;
  double swap_retries = 0, swap_io_errors = 0;

  static Counters of(const Trainer& t) {
    Counters c;
    const double w = t.world();
    for (int r = 0; r < t.world(); ++r) {
      const EngineStats s = t.stats(r);
      c.stall_s += s.stall_seconds / w;
      c.prefetch_stalls += static_cast<double>(s.prefetch_stalls) / w;
      c.demand_fetches += static_cast<double>(s.demand_fetches) / w;
      c.h2d_bytes += static_cast<double>(s.h2d_bytes) / w;
      c.d2h_bytes += static_cast<double>(s.d2h_bytes) / w;
      c.updates += static_cast<double>(s.optimizer_updates) / w;
      c.moment_prefetches += static_cast<double>(s.moment_prefetches) / w;
      c.moment_demand_reads += static_cast<double>(s.moment_demand_reads) / w;
      c.swap_retries += static_cast<double>(s.swap_retries) / w;
      c.swap_io_errors += static_cast<double>(s.swap_io_errors) / w;
    }
    return c;
  }
  Counters minus(const Counters& o) const {
    Counters d = *this;
    d.stall_s -= o.stall_s;
    d.prefetch_stalls -= o.prefetch_stalls;
    d.demand_fetches -= o.demand_fetches;
    d.h2d_bytes -= o.h2d_bytes;
    d.d2h_bytes -= o.d2h_bytes;
    d.updates -= o.updates;
    d.moment_prefetches -= o.moment_prefetches;
    d.moment_demand_reads -= o.moment_demand_reads;
    d.swap_retries -= o.swap_retries;
    d.swap_io_errors -= o.swap_io_errors;
    return d;
  }
};

bool all_finite(const std::vector<float>& v) {
  for (const float x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

double mean_loss(std::vector<float>::const_iterator first,
                 std::vector<float>::const_iterator last) {
  return mean(std::vector<double>(first, last));
}

void report_layers(const Options& opt, const TrainSpec& spec, Session& s,
                   const Phase& untraced, const Phase& traced,
                   const SpanStats& ss, const Counters& d, Report& r,
                   double scaling_efficiency) {
  const Trainer& t = *s.trainer;
  const EngineStats st = t.stats(0);
  const double steps = static_cast<double>(traced.step_s.size());
  const double w = t.world();
  const double per_step_ms = 1e3 / steps / w;  // span seconds -> ms/step/rank
  const std::int64_t rows = spec.batch / t.world();  // per-rank batch rows
  const std::int64_t seq = spec.model.max_seq;
  const std::int64_t hidden = spec.model.hidden;
  const bool swap = st.swap_backed_layers > 0 || st.opt_tiered_layers > 0;

  r.metric("tensor.gemm_gflops", probe_gemm_gflops(rows * seq, hidden),
           "GFLOP/s");
  r.metric("tensor.attn_fwd_bwd_ms",
           probe_attention_ms(rows, spec.model.heads, seq, hidden), "ms");
  sh::nn::GptModel shape_model(spec.model);
  if (spec.engine.window_dtype == sh::tensor::DType::bf16) {
    const auto block_params =
        static_cast<std::size_t>(shape_model.layer(1).param_count());
    const DtypeRates dt = probe_dtype(block_params, opt.seed);
    r.metric("tensor.encode_sr_gbps", dt.encode_sr_gbps, "GB/s");
    r.metric("tensor.encode_rne_gbps", dt.encode_rne_gbps, "GB/s");
    r.metric("tensor.decode_gbps", dt.decode_gbps, "GB/s");
  } else {
    const char* f32 = "f32 window: no dtype conversion";
    r.absent("tensor.encode_sr_gbps", "GB/s", f32);
    r.absent("tensor.encode_rne_gbps", "GB/s", f32);
    r.absent("tensor.decode_gbps", "GB/s", f32);
  }

  const double fwd_ms = ss.sum_s("gpu", "f") * per_step_ms;
  const double bwd_ms = ss.sum_s("gpu", "b") * per_step_ms;
  r.metric("core.fwd_ms_per_step", fwd_ms, "ms");
  r.metric("core.bwd_ms_per_step", bwd_ms, "ms");
  r.metric("core.gpu_busy_fraction",
           ss.sum_s("gpu") / w / traced.wall_s, "fraction");
  r.metric("core.stall_ms_per_step", 1e3 * d.stall_s / steps, "ms");
  r.metric("core.prefetch_stalls_per_step", d.prefetch_stalls / steps,
           "count");
  r.metric("core.demand_fetches", d.demand_fetches, "count");
  r.metric("core.window_layers", static_cast<double>(st.window), "layers");

  r.metric("hw.h2d_busy_ms_per_step", ss.sum_s("h2d", "p") * per_step_ms,
           "ms");
  r.metric("hw.d2h_busy_ms_per_step", ss.sum_s("d2h", "g") * per_step_ms,
           "ms");
  r.metric("hw.h2d_bytes_per_step", d.h2d_bytes / steps, "bytes");
  r.metric("hw.d2h_bytes_per_step", d.d2h_bytes / steps, "bytes");
  r.metric("hw.h2d_overlap_fraction", ss.overlap("h2d", "gpu"), "fraction");
  r.metric("hw.d2h_overlap_fraction", ss.overlap("d2h", "gpu"), "fraction");
  r.metric("hw.h2d_queue_ms_per_step",
           ss.sum_s("h2d-queue", "op") * per_step_ms, "ms");

  r.metric("opt.update_ms_per_step", ss.sum_s("cpu-opt") * per_step_ms, "ms");
  r.metric("opt.updates_per_step", d.updates / steps, "count");
  if (st.opt_tiered_layers > 0) {
    r.metric("opt.tier_prefetch_hit_ratio",
             d.moment_prefetches /
                 (d.moment_prefetches + d.moment_demand_reads),
             "fraction");
  } else {
    r.absent("opt.tier_prefetch_hit_ratio", "fraction",
             "Adam moments stay in host RAM");
  }

  const char* no_swap = "no swap tier";
  const std::pair<const char*, double> storage[] = {
      {"storage.read_ms_per_step", ss.sum_s("swap", "read") * per_step_ms},
      {"storage.write_ms_per_step", ss.sum_s("swap", "write") * per_step_ms},
      {"storage.queue_ms_per_step",
       ss.sum_s("swap-io-queue", "op") * per_step_ms}};
  for (const auto& [name, value] : storage) {
    swap ? r.metric(name, value, "ms") : r.absent(name, "ms", no_swap);
  }
  const std::pair<const char*, double> storage_counts[] = {
      {"storage.reads_per_step",
       static_cast<double>(ss.count("swap", "read")) / steps / w},
      {"storage.writes_per_step",
       static_cast<double>(ss.count("swap", "write")) / steps / w},
      {"storage.retries", d.swap_retries},
      {"storage.io_errors", d.swap_io_errors}};
  for (const auto& [name, value] : storage_counts) {
    swap ? r.metric(name, value, "count") : r.absent(name, "count", no_swap);
  }

  const auto& regions = st.arena.regions;
  const auto region_peak = [&](const char* name) {
    const auto it = regions.find(name);
    return it == regions.end() ? 0.0 : static_cast<double>(it->second.peak_bytes);
  };
  r.metric("mem.window_peak_bytes", region_peak("window"), "bytes");
  r.metric("mem.activations_peak_bytes", region_peak("activations"), "bytes");
  r.absent("mem.kv_peak_bytes", "bytes", "training keeps no KV cache");
  r.metric("mem.pressure_events",
           static_cast<double>(st.arena.pressure_events), "count");

  if (t.data_parallel()) {
    std::vector<std::size_t> units;
    for (std::size_t i = 0; i < shape_model.num_layers(); ++i) {
      units.push_back(
          static_cast<std::size_t>(shape_model.layer(i).param_count()));
    }
    r.metric("dist.allreduce_ms_per_step",
             probe_allreduce_ms(t.world(), units), "ms");
    r.metric("dist.floats_communicated_per_step",
             s.trainer->floats_communicated() /
                 static_cast<double>(s.losses.size()),
             "count");
    const double step_ms = 1e3 * mean(traced.step_s);
    r.metric("dist.rank_compute_ms_per_step", fwd_ms + bwd_ms, "ms");
    r.metric("dist.rank_wait_ms_per_step", step_ms - fwd_ms - bwd_ms, "ms");
    r.metric("dist.scaling_efficiency", scaling_efficiency, "fraction");
  } else {
    const char* one_rank = "one rank";
    r.absent("dist.allreduce_ms_per_step", "ms", one_rank);
    r.absent("dist.floats_communicated_per_step", "count", one_rank);
    r.absent("dist.rank_compute_ms_per_step", "ms", one_rank);
    r.absent("dist.rank_wait_ms_per_step", "ms", one_rank);
    r.absent("dist.scaling_efficiency", "fraction", one_rank);
  }

  const char* no_serve = "training workload";
  r.absent("serve.step_ms_p50", "ms", no_serve);
  r.absent("serve.batch_mean", "count", no_serve);
  r.absent("serve.prefill_tokens_per_request", "count", no_serve);
  r.absent("serve.prefix_prefill_savings", "ratio", no_serve);
  r.absent("serve.preemptions", "count", no_serve);
  r.absent("serve.gen_late_ms_p90", "ms", no_serve);

  r.metric("obs.trace_overhead_fraction",
           traced.ms(0.5) / untraced.ms(0.5) - 1.0, "fraction");
}

using CheckFn = void (*)(const TrainSpec&, std::uint64_t, Session&, Report&);

void run_training(const Options& opt, const TrainSpec& spec, CheckFn checks,
                  Report& report) {
  std::unique_ptr<Session> s;
  if (!opt.trace) {
    const double setup_s = timed_setups(spec, opt.seed, s);
    const Phase p = train_for(*s, spec, opt.seconds, kLossSteps, report);
    std::vector<float> params;
    s->trainer->snapshot(0, params);  // drain in-flight updates
    const EngineStats st = s->trainer->stats(0);
    std::printf("%s: %zu timed steps in %.3f s, window %zu\n",
                opt.workload.c_str(), p.step_s.size(), p.wall_s, st.window);
    report.metric("tokens_per_s", p.tokens_per_s(), "tok/s");
    report.metric("latency_p50_ms", p.ms(0.5), "ms");
    report.metric("latency_p90_ms", p.ms(0.9), "ms");
    report.metric("train_loss",
                  mean_loss(s->losses.begin(), s->losses.begin() + kLossSteps),
                  "nats");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_device_bytes",
                  static_cast<double>(st.gpu_high_water_bytes), "bytes");
    report.metric("peak_host_bytes", peak_rss_bytes(), "bytes");
  } else {
    s = setup(spec, spec.world, opt.seed);
    const Phase untraced =
        train_for(*s, spec, opt.seconds / 2, 0, report);
    double scaling = 0.0;
    if (spec.world > 1) {
      // Same global batch on one rank: world-w / world-1 tokens per second.
      auto solo = setup(spec, 1, opt.seed);
      const Phase p1 = train_for(*solo, spec, opt.seconds / 4, 0, report);
      scaling = untraced.tokens_per_s() / p1.tokens_per_s();
    }
    const Counters before = Counters::of(*s->trainer);
    begin_traced_phase();
    const Phase traced = train_for(*s, spec, opt.seconds / 2, 0, report);
    std::vector<float> params;
    s->trainer->snapshot(0, params);  // let asynchronous spans land
    const Counters delta = Counters::of(*s->trainer).minus(before);
    const SpanStats ss = end_traced_phase(opt);
    std::printf("%s: %zu traced steps in %.3f s\n", opt.workload.c_str(),
                traced.step_s.size(), traced.wall_s);
    report_layers(opt, spec, *s, untraced, traced, ss, delta, report, scaling);
  }
  report.check(all_finite(s->losses), "every training loss is finite");
  checks(spec, opt.seed, *s, report);
}

bool bit_equal(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

std::string swap_path(const Options& opt) {
  return opt.out_dir + "/" + opt.workload + "-" + std::to_string(getpid()) +
         ".swap";
}

}  // namespace

void run_train_dense(const Options& opt, Report& report) {
  TrainSpec spec;
  spec.model.vocab = 256;
  spec.model.max_seq = 256;
  spec.model.hidden = 256;
  spec.model.heads = 4;
  spec.model.layers = 4;
  spec.engine.window = 2;
  spec.batch = 1;
  run_training(opt, spec, [](const TrainSpec& sp, std::uint64_t seed,
                             Session& s, Report& r) {
    // The monolithic trainer is the bit-identity oracle for one executor.
    constexpr std::size_t kOracleSteps = 3;
    sh::nn::GptModel model(sp.model);
    sh::core::MonolithicTrainer mono(model, sp.engine.adam);
    mono.init_params(seed);
    sh::data::SyntheticCorpus corpus(sp.model.vocab, seed);
    bool equal = s.losses.size() >= kOracleSteps;
    for (std::size_t i = 0; equal && i < kOracleSteps; ++i) {
      const float l = mono.train_step(corpus.next_batch(sp.batch, sp.model.max_seq));
      equal = bit_equal(l, s.losses[i]);
    }
    r.check(equal, "first 3 losses bit-equal to MonolithicTrainer");
  }, report);
}

void run_train_offload(const Options& opt, Report& report) {
  TrainSpec spec;
  spec.model.vocab = 256;
  spec.model.max_seq = 32;
  spec.model.hidden = 256;
  spec.model.heads = 4;
  spec.model.layers = 6;
  spec.engine.window = 2;
  spec.engine.window_dtype = sh::tensor::DType::bf16;
  spec.engine.window_rounding = sh::tensor::Rounding::stochastic;
  spec.engine.rounding_seed = opt.seed;
  spec.engine.h2d_bytes_per_s = 4.0e9;
  spec.engine.d2h_bytes_per_s = 4.0e9;
  spec.engine.optimizer_tier = sh::core::OptimizerTier::nvme;
  // Below one block's masters, so every block is swap-backed.
  spec.engine.cpu_capacity_bytes = std::size_t{1} << 20;
  spec.engine.swap_path = swap_path(opt);
  spec.batch = 2;
  run_training(opt, spec, [](const TrainSpec& sp, std::uint64_t, Session& s,
                             Report& r) {
    const EngineStats st = s.trainer->stats(0);
    r.check(st.swap_backed_layers ==
                static_cast<std::size_t>(sp.model.layers),
            "every block master is swap-backed");
    r.check(st.moment_update_skips == 0, "optimizer.tier_update_skips == 0");
    r.check(st.swap_io_errors == 0, "swap.io_errors == 0");
    r.check(mean_loss(s.losses.end() - 8, s.losses.end()) < s.losses.front(),
            "mean of the last 8 losses is below the first loss");
  }, report);
  std::remove(spec.engine.swap_path.c_str());
}

void run_train_dp4(const Options& opt, Report& report) {
  TrainSpec spec;
  spec.model.vocab = 256;
  spec.model.max_seq = 16;
  spec.model.hidden = 256;
  spec.model.heads = 4;
  spec.model.layers = 4;
  spec.engine.window = 2;
  spec.engine.optimizer_workers = 1;
  spec.world = 4;
  spec.batch = 4;
  run_training(opt, spec, [](const TrainSpec&, std::uint64_t, Session& s,
                             Report& r) {
    std::vector<float> first, other;
    s.trainer->snapshot(0, first);
    bool same = true;
    for (int rank = 1; rank < s.trainer->world(); ++rank) {
      s.trainer->snapshot(rank, other);
      same = same && other.size() == first.size() &&
             std::memcmp(other.data(), first.data(),
                         first.size() * sizeof(float)) == 0;
    }
    r.check(same, "every rank's parameters are bitwise identical");
  }, report);
}

}  // namespace pb
