#include "serve/serve_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"

namespace sh::serve {

using obs::wall_seconds;

ServeEngine::ServeEngine(core::StrongholdEngine& engine)
    : engine_(engine), epoch_(wall_seconds()) {
  obs_provider_id_ = obs::Registry::global().add_provider(
      [this](obs::MetricsSnapshot& out) {
        out.add("serve.steps", static_cast<double>(stats_.steps));
        out.add("serve.prefill_tokens",
                static_cast<double>(stats_.prefill_tokens), "tokens");
        out.add("serve.decode_tokens",
                static_cast<double>(stats_.decode_tokens), "tokens");
        out.add("serve.sequence_steps",
                static_cast<double>(stats_.sequence_steps));
        out.add("serve.tokens_per_s", stats_.tokens_per_s(), "tokens/s");
        out.add("serve.requests",
                static_cast<double>(latency_hist_.count()));
        out.add("serve.latency_p50_s", latency_hist_.percentile(0.5), "s");
        out.add("serve.latency_p99_s", latency_hist_.percentile(0.99), "s");
      });
}

ServeEngine::~ServeEngine() {
  obs::Registry::global().remove_provider(obs_provider_id_);
}

double ServeEngine::now() const { return wall_seconds() - epoch_; }

std::vector<std::vector<float>> ServeEngine::step(
    std::span<const SeqInput> seqs) {
  if (seqs.empty()) return {};
  const std::size_t blocks = engine_.model().num_layers() - 2;
  const std::int64_t vocab = engine_.model().config().vocab;

  std::vector<nn::DecodeSlot> slots(seqs.size());
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    const SeqInput& in = seqs[i];
    if (in.ids.empty()) {
      throw std::invalid_argument("ServeEngine::step: sequence with no ids");
    }
    if (in.caches.size() != blocks) {
      throw std::invalid_argument(
          "ServeEngine::step: cache count does not match block count");
    }
    slots[i].ids.assign(in.ids.begin(), in.ids.end());
    slots[i].pos = in.pos;
    slots[i].caches = in.caches;
  }

  const double t0 = now();
  engine_.stream_layers([&](std::size_t unit, nn::Layer& layer) {
    nn::apply_unit_multi(layer, unit, blocks, slots);
  });
  const double t1 = now();

  std::vector<std::vector<float>> last_logits(slots.size());
  std::size_t new_tokens = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const tensor::Tensor& logits = slots[i].x;
    const std::int64_t rows = logits.shape().dim(0);
    last_logits[i].resize(static_cast<std::size_t>(vocab));
    std::copy_n(logits.data() + (rows - 1) * vocab, vocab,
                last_logits[i].data());
    const std::size_t n = slots[i].ids.size();
    new_tokens += n;
    if (slots[i].pos == 0) {
      stats_.prefill_tokens += n;
    } else {
      stats_.decode_tokens += n;
    }
  }

  ++stats_.steps;
  stats_.sequence_steps += slots.size();
  stats_.elapsed_s += t1 - t0;
  const std::string label = "s" + std::to_string(slots.size()) + "/t" +
                            std::to_string(new_tokens);
  obs::span("serve", label, epoch_ + t0, epoch_ + t1);
  return last_logits;
}

void ServeEngine::record_request(std::uint64_t id, double submit_t,
                                 double finish_t) {
  latency_hist_.record(finish_t - submit_t);
  const std::string label = "r" + std::to_string(id);
  obs::span("request", label, epoch_ + submit_t, epoch_ + finish_t);
}

double ServeEngine::latency_percentile(double q) const {
  return latency_hist_.percentile(q);
}

}  // namespace sh::serve
