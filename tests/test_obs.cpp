// sh::obs — span recorder, metrics registry and exporters, including the
// structural contract of the Chrome trace-event JSON and the end-to-end path
// through an instrumented engine run.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "data/synthetic.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "testing/json.hpp"

namespace sh::obs {
namespace {

/// The global recorder and registry are process-wide; every test restores
/// them so ordering between tests never matters.
class GlobalObsGuard {
 public:
  GlobalObsGuard() {
    Recorder::global().set_enabled(false);
    Recorder::global().clear();
  }
  ~GlobalObsGuard() {
    Recorder::global().set_enabled(false);
    Recorder::global().clear();
  }
};

TEST(Recorder, DisabledByDefaultAndRecordsNothing) {
  GlobalObsGuard guard;
  EXPECT_FALSE(Recorder::global().enabled());
  span("gpu", "f", 0.0, 1.0);
  instant("mem", "pressure");
  { ObsScope scope("engine", "train_step"); }
  EXPECT_TRUE(Recorder::global().snapshot().empty());
}

TEST(Recorder, RecordsSpansSortedByStart) {
  GlobalObsGuard guard;
  Recorder& r = Recorder::global();
  r.set_enabled(true);
  const double e = r.epoch();
  r.record("h2d", "p", e + 2.0, e + 3.0);
  r.record("gpu", "f", e + 0.5, e + 1.5);
  const auto spans = r.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].track, "gpu");
  EXPECT_NEAR(spans[0].start_s, 0.5, 1e-12);
  EXPECT_NEAR(spans[0].duration(), 1.0, 1e-12);
  EXPECT_EQ(spans[1].track, "h2d");
  EXPECT_FALSE(spans[0].instant);
}

TEST(Recorder, ObsScopeNestsByContainment) {
  GlobalObsGuard guard;
  Recorder::global().set_enabled(true);
  {
    ObsScope outer("engine", "outer");
    ObsScope inner("engine", "inner");
  }
  const auto spans = Recorder::global().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Inner scope is destroyed first, so it ends no later than the outer one
  // and starts no earlier: exactly the containment Chrome "X" nesting needs.
  const Span& inner = spans[0].name == "inner" ? spans[0] : spans[1];
  const Span& outer = spans[0].name == "outer" ? spans[0] : spans[1];
  EXPECT_GE(inner.start_s, outer.start_s);
  EXPECT_LE(inner.end_s, outer.end_s);
  EXPECT_EQ(inner.tid, outer.tid);
}

TEST(Recorder, InstantEventsHaveZeroDuration) {
  GlobalObsGuard guard;
  Recorder::global().set_enabled(true);
  instant("mem", "pressure:kv");
  const auto spans = Recorder::global().snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(spans[0].instant);
  EXPECT_DOUBLE_EQ(spans[0].duration(), 0.0);
}

TEST(Recorder, ConcurrentThreadsRecordWithoutLoss) {
  GlobalObsGuard guard;
  Recorder& r = Recorder::global();
  r.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&r] {
      for (int i = 0; i < kPerThread; ++i) {
        const double now = wall_seconds();
        r.record("worker", "op", now, now + 1e-9);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto spans = r.snapshot();
  EXPECT_EQ(spans.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  std::set<std::uint32_t> tids;
  for (const auto& s : spans) tids.insert(s.tid);
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

TEST(Recorder, ClearDropsSpansAndKeepsRecording) {
  GlobalObsGuard guard;
  Recorder& r = Recorder::global();
  r.set_enabled(true);
  span("gpu", "f", r.epoch(), r.epoch() + 1.0);
  r.clear();
  EXPECT_TRUE(r.snapshot().empty());
  span("gpu", "b", r.epoch(), r.epoch() + 1.0);
  EXPECT_EQ(r.snapshot().size(), 1u);
}

TEST(Metrics, CounterAndGauge) {
  Counter c;
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  Gauge g;
  g.set(7);
  g.add(-3);
  EXPECT_EQ(g.value(), 4);
}

TEST(Metrics, HistogramPercentilesInterpolate) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);  // empty -> 0
  for (double v : {4.0, 1.0, 3.0, 2.0}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 2.5);   // midpoint of 2 and 3
  EXPECT_DOUBLE_EQ(h.percentile(2.0), 4.0);   // clamped
}

TEST(Metrics, RegistryProvidersAddAndRemove) {
  Registry& reg = Registry::global();
  const std::size_t base = reg.provider_count();
  const std::uint64_t id = reg.add_provider([](MetricsSnapshot& out) {
    out.add("test.metric", 12.0, "widgets");
  });
  EXPECT_EQ(reg.provider_count(), base + 1);
  const MetricsSnapshot snap = reg.snapshot();
  const Metric* m = snap.find("test.metric");
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->value, 12.0);
  EXPECT_EQ(m->unit, "widgets");
  reg.remove_provider(id);
  EXPECT_EQ(reg.provider_count(), base);
  EXPECT_EQ(reg.snapshot().find("test.metric"), nullptr);
}

TEST(Export, JsonEscapeHandlesSpecialsAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Export, MetricsJsonParsesAndRoundTrips) {
  MetricsSnapshot snap;
  snap.add("engine.h2d_bytes", 1048576.0, "bytes");
  snap.add("serve.latency_p99_s", 0.125, "s");
  std::ostringstream os;
  write_metrics_json(os, snap);
  const testing::Json doc = testing::parse_json(os.str());
  const auto& rows = doc.at("metrics").array;
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].at("name").str, "engine.h2d_bytes");
  EXPECT_DOUBLE_EQ(rows[0].at("value").number, 1048576.0);
  EXPECT_EQ(rows[0].at("unit").str, "bytes");
  EXPECT_DOUBLE_EQ(rows[1].at("value").number, 0.125);
}

std::vector<Span> sample_wall_spans() {
  // Nested engine scope containing a gpu span; one instant; one span from a
  // "different thread" on the same track.
  std::vector<Span> wall;
  wall.push_back({"engine", "train_step", 0.0, 1.0, 1, false});
  wall.push_back({"gpu", "f", 0.1, 0.4, 1, false});
  wall.push_back({"gpu", "b", 0.5, 0.9, 1, false});
  wall.push_back({"mem", "pressure:kv", 0.45, 0.45, 1, true});
  wall.push_back({"cpu-opt", "update", 0.6, 0.8, 2, false});
  return wall;
}

TEST(Export, ChromeTraceStructureIsValid) {
  sim::Trace virt;
  virt.record("gpu", "f", {0.0, 8.0});
  virt.record("h2d", "p", {2.0, 6.0});
  MetricsSnapshot metrics;
  metrics.add("engine.iterations", 3.0);

  std::ostringstream os;
  write_chrome_trace(os, sample_wall_spans(), &virt, &metrics);
  const testing::Json doc = testing::parse_json(os.str());

  const auto& events = doc.at("traceEvents").array;
  ASSERT_FALSE(events.empty());

  // Both process groups are announced by metadata events.
  std::set<std::string> process_names;
  std::set<std::string> thread_names;
  for (const auto& e : events) {
    if (e.at("ph").str == "M" && e.at("name").str == "process_name") {
      process_names.insert(e.at("args").at("name").str);
    }
    if (e.at("ph").str == "M" && e.at("name").str == "thread_name") {
      thread_names.insert(e.at("args").at("name").str);
    }
  }
  EXPECT_TRUE(process_names.count("wall-clock"));
  EXPECT_TRUE(process_names.count("virtual-time"));
  EXPECT_TRUE(thread_names.count("engine"));
  EXPECT_TRUE(thread_names.count("gpu"));
  EXPECT_TRUE(thread_names.count("h2d"));

  // Complete events carry microsecond ts/dur; the gpu spans nest inside the
  // engine span (containment in time, Perfetto's nesting rule).
  double engine_ts = -1.0, engine_end = -1.0;
  std::vector<std::pair<double, double>> gpu_spans;
  bool saw_instant = false;
  for (const auto& e : events) {
    const std::string& ph = e.at("ph").str;
    if (ph == "X") {
      EXPECT_TRUE(e.at("ts").is_number());
      EXPECT_TRUE(e.at("dur").is_number());
      if (e.at("name").str == "train_step") {
        engine_ts = e.at("ts").number;
        engine_end = engine_ts + e.at("dur").number;
      }
      if (e.at("cat").str == "wall" &&
          (e.at("name").str == "f" || e.at("name").str == "b")) {
        gpu_spans.emplace_back(e.at("ts").number,
                               e.at("ts").number + e.at("dur").number);
      }
    }
    if (ph == "i") {
      saw_instant = true;
      EXPECT_EQ(e.at("s").str, "t");
    }
  }
  ASSERT_GE(engine_ts, 0.0);
  ASSERT_EQ(gpu_spans.size(), 2u);
  for (const auto& [ts, end] : gpu_spans) {
    EXPECT_GE(ts, engine_ts);
    EXPECT_LE(end, engine_end);
  }
  EXPECT_TRUE(saw_instant);
  EXPECT_NEAR(engine_ts, 0.0, 1e-9);
  EXPECT_NEAR(engine_end, 1e6, 1e-3);  // 1 s == 1e6 us

  // The embedded metrics array survives (Perfetto ignores unknown keys).
  const auto& rows = doc.at("metrics").array;
  bool found = false;
  for (const auto& r : rows) {
    if (r.at("name").str == "engine.iterations") {
      found = true;
      EXPECT_DOUBLE_EQ(r.at("value").number, 3.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Export, ToSimTraceAppliesFig4MetricsToWallSpans) {
  const sim::Trace real = to_sim_trace(sample_wall_spans());
  // Instants are excluded; spans keep resource/label/interval.
  EXPECT_EQ(real.spans().size(), 4u);
  EXPECT_DOUBLE_EQ(real.end_time(), 1.0);
  EXPECT_NEAR(real.utilization("gpu"), 0.7, 1e-12);  // [0.1,0.4] U [0.5,0.9]
  EXPECT_NEAR(real.overlap_fraction("cpu-opt", "gpu"), 1.0, 1e-12);
}

TEST(Export, DumpChromeTraceWritesParseableFile) {
  GlobalObsGuard guard;
  Recorder::global().set_enabled(true);
  span("gpu", "f", Recorder::global().epoch(),
       Recorder::global().epoch() + 0.25);
  const std::string path = ::testing::TempDir() + "sh_obs_dump.json";
  ASSERT_TRUE(dump_chrome_trace(path));
  std::ifstream is(path);
  std::stringstream buf;
  buf << is.rdbuf();
  const testing::Json doc = testing::parse_json(buf.str());
  EXPECT_TRUE(doc.at("traceEvents").is_array());
  EXPECT_TRUE(doc.at("metrics").is_array());
  std::remove(path.c_str());
}

TEST(EndToEnd, InstrumentedEngineRecordsSpansAndMetrics) {
  GlobalObsGuard guard;
  Recorder::global().set_enabled(true);

  nn::GptConfig mcfg;
  mcfg.vocab = 32;
  mcfg.max_seq = 8;
  mcfg.hidden = 16;
  mcfg.heads = 2;
  mcfg.layers = 4;
  nn::GptModel model(mcfg);

  const std::size_t base_providers = Registry::global().provider_count();
  std::vector<float> params_before, params_after;
  {
    core::EngineConfig ecfg;
    ecfg.window = 1;
    core::StrongholdEngine engine(model, ecfg);
    engine.init_params(3);
    EXPECT_EQ(Registry::global().provider_count(), base_providers + 1);

    data::SyntheticCorpus corpus(mcfg.vocab, 5);
    const std::size_t steps = 3;
    for (std::size_t i = 0; i < steps; ++i) {
      engine.train_step(corpus.next_batch(2, mcfg.max_seq));
    }
    engine.snapshot_params(params_before);  // quiesces async work

    const MetricsSnapshot snap = Registry::global().snapshot();
    const Metric* iters = snap.find("engine.iterations");
    ASSERT_NE(iters, nullptr);
    EXPECT_DOUBLE_EQ(iters->value, static_cast<double>(steps));
    ASSERT_NE(snap.find("arena.capacity_bytes"), nullptr);
    ASSERT_NE(snap.find("optimizer.updates"), nullptr);
    EXPECT_GT(snap.find("engine.h2d_bytes")->value, 0.0);
    ASSERT_NE(snap.find("arena.window.peak_bytes"), nullptr);
    EXPECT_GT(snap.find("arena.window.peak_bytes")->value, 0.0);

    // The wall-clock stream carries the engine's schedule on its tracks.
    const auto wall = Recorder::global().snapshot();
    std::set<std::string> tracks;
    for (const auto& s : wall) tracks.insert(s.track);
    EXPECT_TRUE(tracks.count("engine"));
    EXPECT_TRUE(tracks.count("gpu"));
    EXPECT_TRUE(tracks.count("h2d"));
    EXPECT_TRUE(tracks.count("d2h"));
    EXPECT_TRUE(tracks.count("cpu-opt"));

    // Fig. 4 metrics apply to the real timeline.
    const sim::Trace real = to_sim_trace(wall);
    EXPECT_GT(real.utilization("gpu"), 0.0);
    EXPECT_LE(real.utilization("gpu"), 1.0);
  }
  // Destruction unregisters the provider; its rows are gone.
  EXPECT_EQ(Registry::global().provider_count(), base_providers);
  EXPECT_EQ(Registry::global().snapshot().find("engine.iterations"), nullptr);

  // Bit-identity contract: rerunning the same training WITHOUT obs enabled
  // produces identical parameters.
  Recorder::global().set_enabled(false);
  Recorder::global().clear();
  {
    nn::GptModel model2(mcfg);
    core::EngineConfig ecfg;
    ecfg.window = 1;
    core::StrongholdEngine engine(model2, ecfg);
    engine.init_params(3);
    data::SyntheticCorpus corpus(mcfg.vocab, 5);
    for (std::size_t i = 0; i < 3; ++i) {
      engine.train_step(corpus.next_batch(2, mcfg.max_seq));
    }
    engine.snapshot_params(params_after);
  }
  ASSERT_EQ(params_before.size(), params_after.size());
  EXPECT_EQ(params_before, params_after);
}

TEST(EndToEnd, RecorderShowsTransfersOverlappingCompute) {
  GlobalObsGuard guard;
  Recorder::global().set_enabled(true);

  nn::GptConfig mcfg;
  mcfg.vocab = 32;
  mcfg.max_seq = 8;
  mcfg.hidden = 16;
  mcfg.heads = 2;
  mcfg.layers = 4;
  nn::GptModel model(mcfg);
  core::EngineConfig ecfg;
  ecfg.window = 1;
  ecfg.h2d_bytes_per_s = 8e6;  // slow enough for visible spans
  ecfg.d2h_bytes_per_s = 8e6;
  core::StrongholdEngine engine(model, ecfg);
  engine.init_params(3);
  data::SyntheticCorpus corpus(mcfg.vocab, 4);
  for (int i = 0; i < 2; ++i) {
    engine.train_step(corpus.next_batch(2, mcfg.max_seq));
  }
  std::vector<float> scratch;
  engine.snapshot_params(scratch);  // quiesces in-flight background work

  const sim::Trace trace = to_sim_trace(Recorder::global().snapshot());
  bool has_gpu = false, has_h2d = false, has_d2h = false, has_opt = false;
  for (const auto& s : trace.spans()) {
    has_gpu |= s.resource == "gpu";
    has_h2d |= s.resource == "h2d";
    has_d2h |= s.resource == "d2h";
    has_opt |= s.resource == "cpu-opt";
    EXPECT_GE(s.interval.duration(), 0.0);
  }
  EXPECT_TRUE(has_gpu);
  EXPECT_TRUE(has_h2d);
  EXPECT_TRUE(has_d2h);
  EXPECT_TRUE(has_opt);
  // Real asynchrony: some transfer time overlaps compute.
  EXPECT_GT(trace.overlap_fraction("h2d", "gpu") +
                trace.overlap_fraction("d2h", "gpu"),
            0.0);
}

TEST(EndToEnd, RecorderSpanCountsMatchEngineCounters) {
  // The recorder is the engine's only trace, and it is complete: one span
  // per transfer on h2d/d2h, one cpu-opt span per optimizer update
  // (including the pinned embedding and head), one engine span per step.
  GlobalObsGuard guard;
  Recorder::global().set_enabled(true);

  nn::GptConfig mcfg;
  mcfg.vocab = 32;
  mcfg.max_seq = 8;
  mcfg.hidden = 16;
  mcfg.heads = 2;
  mcfg.layers = 4;
  nn::GptModel model(mcfg);
  core::EngineConfig ecfg;
  ecfg.window = 1;
  core::StrongholdEngine engine(model, ecfg);
  engine.init_params(3);
  data::SyntheticCorpus corpus(mcfg.vocab, 6);
  const std::size_t steps = 3;
  for (std::size_t i = 0; i < steps; ++i) {
    engine.train_step(corpus.next_batch(2, mcfg.max_seq));
  }
  std::vector<float> scratch;
  engine.snapshot_params(scratch);  // quiesces in-flight background work
  const core::EngineStats stats = engine.stats();

  std::size_t h2d = 0, d2h = 0, opt = 0, step_spans = 0;
  for (const auto& s : Recorder::global().snapshot()) {
    h2d += s.track == "h2d";
    d2h += s.track == "d2h";
    opt += s.track == "cpu-opt";
    step_spans += s.track == "engine" && s.name == "train_step";
  }
  ASSERT_GT(stats.h2d_transfers, 0u);
  ASSERT_GT(stats.d2h_transfers, 0u);
  EXPECT_EQ(h2d, stats.h2d_transfers);
  EXPECT_EQ(d2h, stats.d2h_transfers);
  EXPECT_EQ(opt, stats.optimizer_updates);
  EXPECT_EQ(opt, steps * model.num_layers());
  EXPECT_EQ(step_spans, steps);
}

TEST(EndToEnd, DisabledRecorderLeavesEngineRunUnrecorded) {
  GlobalObsGuard guard;  // recorder off, as in any process that never opts in

  nn::GptConfig mcfg;
  mcfg.vocab = 32;
  mcfg.max_seq = 8;
  mcfg.hidden = 16;
  mcfg.heads = 2;
  mcfg.layers = 4;
  nn::GptModel model(mcfg);
  core::EngineConfig ecfg;
  ecfg.window = 1;
  core::StrongholdEngine engine(model, ecfg);
  engine.init_params(1);
  data::SyntheticCorpus corpus(mcfg.vocab, 1);
  for (int i = 0; i < 2; ++i) {
    engine.train_step(corpus.next_batch(2, mcfg.max_seq));
  }
  std::vector<float> scratch;
  engine.snapshot_params(scratch);

  EXPECT_GT(engine.stats().h2d_transfers, 0u);
  EXPECT_TRUE(Recorder::global().snapshot().empty());
}

}  // namespace
}  // namespace sh::obs
