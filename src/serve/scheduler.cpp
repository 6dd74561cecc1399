#include "serve/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"

namespace sh::serve {

namespace {

/// Rejects a prompt up front when one of its ids lies outside [0, vocab):
/// the embedding would throw mid-step and fail the whole batch.
void check_ids(std::span<const std::int32_t> ids, std::int64_t vocab,
               const char* where) {
  for (const std::int32_t id : ids) {
    if (id < 0 || id >= vocab) {
      throw std::invalid_argument(std::string(where) + ": token id " +
                                  std::to_string(id) + " outside [0, " +
                                  std::to_string(vocab) + ")");
    }
  }
}

}  // namespace

Scheduler::Scheduler(core::StrongholdEngine& engine, SchedulerConfig config)
    : engine_(engine),
      cfg_(config),
      arena_(engine.model().config(), config.arena, &engine.device_arena()),
      serve_(engine) {
  if (cfg_.max_batch == 0) {
    throw std::invalid_argument("Scheduler: max_batch must be >= 1");
  }
  pressure_cb_id_ = engine_.device_arena().add_pressure_callback(
      [this](const std::string& region, std::size_t) {
        return preempt_for_pressure(region);
      });
  obs_provider_id_ = obs::Registry::global().add_provider(
      [this](obs::MetricsSnapshot& out) {
        out.add("sched.queued", static_cast<double>(queue_.size()));
        out.add("sched.running", static_cast<double>(running_.size()));
        out.add("sched.preempted_resident",
                static_cast<double>(preempted_.size()));
        out.add("sched.submitted", static_cast<double>(stats_.submitted));
        out.add("sched.finished", static_cast<double>(stats_.finished));
        out.add("sched.steps", static_cast<double>(stats_.steps));
        out.add("sched.preemptions", static_cast<double>(stats_.preemptions));
        out.add("sched.resumes", static_cast<double>(stats_.resumes));
        out.add("sched.prompt_tokens_fed",
                static_cast<double>(stats_.prompt_tokens_fed));
        out.add("sched.prefix_prefill_tokens",
                static_cast<double>(stats_.prefix_prefill_tokens));
        out.add("sched.kv_budget_bytes",
                static_cast<double>(arena_.budget_bytes()), "bytes");
      });
}

Scheduler::~Scheduler() {
  obs::Registry::global().remove_provider(obs_provider_id_);
  engine_.device_arena().remove_pressure_callback(pressure_cb_id_);
}

std::uint64_t Scheduler::submit(Request request) {
  if (request.prompt.empty()) {
    throw std::invalid_argument("Scheduler::submit: prompt empty");
  }
  if (request.max_new_tokens == 0) {
    throw std::invalid_argument("Scheduler::submit: max_new_tokens == 0");
  }
  check_ids(request.prompt, engine_.model().config().vocab,
            "Scheduler::submit");
  const auto total = static_cast<std::int64_t>(request.prompt.size() +
                                               request.max_new_tokens);
  if (total > engine_.model().config().max_seq) {
    throw std::invalid_argument(
        "Scheduler::submit: prompt + new tokens exceed max_seq");
  }
  // The deepest KV reservation this request will ever need (the last sampled
  // token is returned, never fed back) — which must coexist with the pinned
  // prefix slab, or a lone resident could never privatize and run.
  if (arena_.bytes_for(total - 1) + arena_.stats().prefix_bytes >
      arena_.budget_bytes()) {
    throw std::invalid_argument(
        "Scheduler::submit: request KV footprint exceeds the arena budget");
  }
  if (request.id == 0) request.id = next_id_++;
  const std::uint64_t id = request.id;
  if (sequences_.contains(id) || results_.contains(id)) {
    throw std::invalid_argument("Scheduler::submit: duplicate request id");
  }

  Sequence s;
  s.tokens = request.prompt;
  s.rng = tensor::Rng(request.sampling.seed);
  s.submit_time = serve_.now();
  if (prefix_id_ != 0 && request.prompt.size() >= prefix_tokens_.size() &&
      std::equal(prefix_tokens_.begin(), prefix_tokens_.end(),
                 request.prompt.begin())) {
    s.prefix_tokens = static_cast<std::int64_t>(prefix_tokens_.size());
  }
  s.request = std::move(request);
  sequences_.emplace(id, std::move(s));
  queue_.push_back(id);
  ++stats_.submitted;
  return id;
}

void Scheduler::register_prefix(std::span<const std::int32_t> prefix) {
  if (prefix_id_ != 0) {
    throw std::invalid_argument(
        "Scheduler::register_prefix: prefix already registered");
  }
  if (stats_.submitted != 0) {
    throw std::invalid_argument(
        "Scheduler::register_prefix: must precede all submits");
  }
  if (prefix.empty()) {
    throw std::invalid_argument("Scheduler::register_prefix: empty prefix");
  }
  check_ids(prefix, engine_.model().config().vocab,
            "Scheduler::register_prefix");
  const auto len = static_cast<std::int64_t>(prefix.size());
  if (len + 1 > engine_.model().config().max_seq) {
    throw std::invalid_argument(
        "Scheduler::register_prefix: prefix leaves no room under max_seq");
  }
  prefix_id_ = arena_.register_prefix(len);  // throws when over budget
  prefix_tokens_.assign(prefix.begin(), prefix.end());
  // The one-time prefill: every sharer's first prefix.size() KV rows are
  // exactly these (causal attention — row i depends only on tokens <= i).
  ServeEngine::SeqInput in;
  in.ids = prefix;
  in.pos = 0;
  in.caches = arena_.prefix_caches(prefix_id_);
  auto logits = serve_.step({&in, 1});
  prefix_logits_ = std::move(logits.front());
  stats_.prefix_prefill_tokens += prefix.size();
  stats_.prompt_tokens_fed += prefix.size();
}

std::vector<std::uint64_t> Scheduler::running_by_age() const {
  std::vector<std::uint64_t> ids = running_;
  std::sort(ids.begin(), ids.end(), [&](std::uint64_t a, std::uint64_t b) {
    return sequences_.at(a).admit_order < sequences_.at(b).admit_order;
  });
  return ids;
}

void Scheduler::resume_preempted() {
  std::sort(preempted_.begin(), preempted_.end(),
            [&](std::uint64_t a, std::uint64_t b) {
              return sequences_.at(a).admit_order <
                     sequences_.at(b).admit_order;
            });
  while (!preempted_.empty() && running_.size() < cfg_.max_batch) {
    const std::uint64_t id = preempted_.front();
    Sequence& s = seq(id);
    if (!arena_.try_resume(id, s.next_step_tokens())) break;
    preempted_.erase(preempted_.begin());
    s.status = SeqStatus::Running;
    running_.push_back(id);
    ++stats_.resumes;
    obs::instant("sched", "resume:r" + std::to_string(id));
  }
}

bool Scheduler::preempt_for_pressure(const std::string& region) {
  // Only KV-region pressure, and only while one of OUR sequences is inside
  // the reservation loop. Window-region pressure (engine prefetch) cannot be
  // relieved by evicting KV into the window's fixed slab, and a co-located
  // scheduler's pressure must not preempt this scheduler's batch.
  if (region != mem::DeviceArena::kKv || reserving_id_ == 0) return false;
  // Victim candidates: OTHER residents holding private slabs — dropping a
  // prefix alias frees nothing, so aliases are never pressure victims. The
  // oldest private sequence always keeps its reservation under the Youngest
  // policy, so the schedule progresses.
  std::uint64_t victim = 0;
  std::uint64_t victim_order = 0;
  if (cfg_.preempt_policy == PreemptPolicy::SloHeadroom) {
    double worst = std::numeric_limits<double>::infinity();
    for (std::uint64_t other : running_) {
      if (other == reserving_id_ || arena_.shared(other)) continue;
      const Sequence& o = sequences_.at(other);
      const double h = slo_headroom(o);
      if (victim == 0 || h < worst ||
          (h == worst && o.admit_order > victim_order)) {
        victim = other;
        worst = h;
        victim_order = o.admit_order;
      }
    }
  } else {
    for (std::uint64_t other : running_) {
      if (other == reserving_id_ || arena_.shared(other)) continue;
      const Sequence& o = sequences_.at(other);
      if (victim == 0 || o.admit_order >= victim_order) {
        victim = other;
        victim_order = o.admit_order;
      }
    }
  }
  if (victim == 0) {
    // No other private resident. A private reserver self-preempts (growth
    // pressure spills it to CPU, old behavior); a still-shared reserver
    // just stays shared and retries next step.
    if (arena_.shared(reserving_id_)) return false;
    victim = reserving_id_;
  }
  arena_.preempt(victim);
  Sequence& s = seq(victim);
  s.status = SeqStatus::Preempted;
  std::erase(running_, victim);
  preempted_.push_back(victim);
  ++stats_.preemptions;
  stats_.last_victim = victim;
  obs::instant("sched", "preempt:r" + std::to_string(victim));
  // Self-preemption frees bytes but not for the reserving sequence — it
  // must wait preempted, so the pressure counts as a stall.
  return victim != reserving_id_;
}

double Scheduler::slo_headroom(const Sequence& s) const {
  if (s.request.deadline_s <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  // Virtual slack to the deadline after pricing remaining tokens at one
  // step each, normalized by the deadline so tiers compare fairly.
  const double remaining =
      static_cast<double>(s.request.max_new_tokens - s.generated) *
      cfg_.step_dt;
  const double slack = (s.request.arrival_s + s.request.deadline_s) -
                       (virtual_now_ + remaining);
  return slack / s.request.deadline_s;
}

void Scheduler::reserve_running() {
  mem::DeviceArena& device = engine_.device_arena();
  for (std::uint64_t id : running_by_age()) {
    Sequence& s = seq(id);
    if (s.status != SeqStatus::Running) continue;  // already a victim
    reserving_id_ = id;
    while (!arena_.try_reserve(id, s.next_step_tokens())) {
      // Shared graceful-degradation path: raise pressure on the device
      // arena; our registered callback preempts a victim to CPU (the same
      // mechanism the engine's deferred prefetch reports through).
      const bool freed = device.signal_pressure(
          mem::DeviceArena::kKv, arena_.bytes_for(s.next_step_tokens()));
      if (!freed || s.status != SeqStatus::Running) break;
    }
    reserving_id_ = 0;
  }
}

void Scheduler::admit_queued() {
  while (!queue_.empty() && running_.size() < cfg_.max_batch) {
    const std::uint64_t id = queue_.front();
    Sequence& s = seq(id);
    if (s.prefix_tokens > 0) {
      // Zero-copy admission: alias the prefix slab. reserve_running
      // privatizes the alias before the first engine feed.
      arena_.adopt_prefix(id, prefix_id_);
      s.pos = s.prefix_tokens;
    } else if (!arena_.try_reserve(id, s.prompt_len())) {
      break;
    }
    queue_.pop_front();
    s.status = SeqStatus::Running;
    s.admit_order = next_admit_order_++;
    running_.push_back(id);
    if (s.prefix_tokens > 0 && s.pos == s.prompt_len()) {
      // Prompt IS the prefix: the cached prefix logits are bit-identical to
      // what a solo prefill of this prompt returns — sample token 1 with no
      // engine pass at all.
      const std::int32_t token =
          sample_token(prefix_logits_, s.request.sampling, s.rng);
      s.tokens.push_back(token);
      ++s.generated;
      if (s.generated == s.request.max_new_tokens) {
        finish(id);
      } else {
        s.pending = token;
      }
    }
  }
}

void Scheduler::advance_batch() {
  const std::vector<std::uint64_t> ordered = running_by_age();
  std::vector<std::uint64_t> fed;
  std::vector<ServeEngine::SeqInput> inputs;
  fed.reserve(ordered.size());
  inputs.reserve(ordered.size());
  for (std::uint64_t id : ordered) {
    Sequence& s = seq(id);
    // A still-shared sequence (admitted this very step) aliases the
    // read-only prefix slab; it is fed only after reserve_running
    // privatizes it.
    if (arena_.shared(id)) continue;
    ServeEngine::SeqInput in;
    if (s.prefill_pending()) {
      // A prefix sharer starts mid-prompt: its shared rows are already in
      // the (privatized) slab, so only the remainder is fed.
      in.ids = std::span<const std::int32_t>(s.request.prompt)
                   .subspan(static_cast<std::size_t>(s.pos));
      stats_.prompt_tokens_fed += in.ids.size();
    } else {
      in.ids = {&s.pending, 1};
    }
    in.pos = s.pos;
    in.caches = arena_.caches(id);
    inputs.push_back(in);
    fed.push_back(id);
  }
  if (fed.empty()) return;

  const auto logits = serve_.step(inputs);

  for (std::size_t i = 0; i < fed.size(); ++i) {
    const std::uint64_t id = fed[i];
    Sequence& s = seq(id);
    s.pos += static_cast<std::int64_t>(inputs[i].ids.size());
    const std::int32_t token =
        sample_token(logits[i], s.request.sampling, s.rng);
    s.tokens.push_back(token);
    ++s.generated;
    if (s.generated == s.request.max_new_tokens) {
      finish(id);
    } else {
      s.pending = token;
    }
  }
}

void Scheduler::finish(std::uint64_t id) {
  Sequence& s = seq(id);
  s.status = SeqStatus::Finished;
  s.finish_time = serve_.now();
  serve_.record_request(id, s.submit_time, s.finish_time);
  arena_.release(id);
  std::erase(running_, id);
  results_.emplace(id, std::move(s.tokens));
  sequences_.erase(id);
  ++stats_.finished;
}

bool Scheduler::step() {
  if (queue_.empty() && running_.empty() && preempted_.empty()) return false;
  resume_preempted();
  reserve_running();
  admit_queued();
  advance_batch();
  ++stats_.steps;
  return true;
}

void Scheduler::run_to_completion() {
  while (step()) {
  }
}

const std::vector<std::int32_t>& Scheduler::result(std::uint64_t id) const {
  auto it = results_.find(id);
  if (it == results_.end()) {
    throw std::out_of_range("Scheduler::result: request not finished");
  }
  return it->second;
}

SchedulerStats Scheduler::stats() const { return stats_; }

}  // namespace sh::serve
