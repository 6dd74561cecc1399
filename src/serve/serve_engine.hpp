// Batched layer-streamed decode executor for the serving runtime.
//
// One ServeEngine::step is one continuous-batching iteration (paper §VI-D3
// FP-only inference, batched): every model unit's weights stream through the
// STRONGHOLD working window exactly once, and while a unit is resident it
// runs EVERY in-flight sequence — prefills and single-token decodes mixed —
// so the host->device transfer cost of a step is independent of the batch
// size. Records wall-clock step spans and finished-request latency spans on
// the obs recorder's "serve" and "request" tracks, plus tokens/sec counters.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/engine.hpp"
#include "nn/decode_batch.hpp"
#include "obs/metrics.hpp"

namespace sh::serve {

struct ServeEngineStats {
  std::size_t steps = 0;
  std::size_t prefill_tokens = 0;
  std::size_t decode_tokens = 0;
  /// Sum over steps of the number of resident sequences (batch occupancy).
  std::size_t sequence_steps = 0;
  /// Wall time spent inside step().
  double elapsed_s = 0.0;
  double tokens_per_s() const noexcept {
    return elapsed_s > 0.0
               ? static_cast<double>(prefill_tokens + decode_tokens) /
                     elapsed_s
               : 0.0;
  }
};

class ServeEngine {
 public:
  explicit ServeEngine(core::StrongholdEngine& engine);
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Input of one resident sequence for one step.
  struct SeqInput {
    std::span<const std::int32_t> ids;  ///< new tokens (1 for decode)
    std::int64_t pos = 0;               ///< absolute position of ids.front()
    std::span<nn::KvCache> caches;      ///< per-block caches
  };

  /// Runs one batched step; returns the LAST position's logits row for each
  /// sequence, in input order. Each sequence's arithmetic is bit-identical
  /// to decoding it alone through StrongholdEngine::decode_step.
  std::vector<std::vector<float>> step(std::span<const SeqInput> seqs);

  /// Records a finished request's [submit, finish] interval (seconds on this
  /// engine's clock) as a latency sample and a "request" span.
  void record_request(std::uint64_t id, double submit_t, double finish_t);

  /// Latency percentile in seconds over finished requests (q in [0, 1];
  /// 0.5 = p50, 0.99 = p99). Returns 0 with no samples.
  double latency_percentile(double q) const;

  /// Seconds since engine construction — the clock request/step spans use.
  double now() const;

  const ServeEngineStats& stats() const noexcept { return stats_; }

 private:
  core::StrongholdEngine& engine_;
  ServeEngineStats stats_;
  /// Finished-request latency distribution (obs::Histogram owns the one
  /// sort-and-interpolate percentile implementation).
  obs::Histogram latency_hist_;
  double epoch_;
  std::uint64_t obs_provider_id_ = 0;
};

}  // namespace sh::serve
