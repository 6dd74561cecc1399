// Continuous (iteration-level) batching scheduler over the serving runtime.
//
// Each step() is one model iteration: preempted sequences resume when KV
// bytes free up (oldest first), running sequences reserve KV room for their
// next token — preempting another resident under arena pressure (youngest
// by default, worst SLO headroom under PreemptPolicy::SloHeadroom) — queued
// requests are admitted FCFS into the spare capacity, and the whole
// resident batch then advances one layer-streamed pass. Finished sequences
// retire immediately, releasing their KV for the next admission. A
// registered shared prefix is prefilled once; sharers are admitted as
// zero-copy aliases and privatized (CoW) on their first reservation.
//
// Invariants:
//  * A request's token stream equals running it alone through
//    StrongholdEngine::generate_incremental with the same seed (greedy) —
//    batching, admission order and preempt/resume never perturb tokens.
//  * The oldest resident sequence is never chosen as a preemption victim,
//    so the schedule always makes progress and every request completes.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "core/engine.hpp"
#include "serve/kv_arena.hpp"
#include "serve/request.hpp"
#include "serve/serve_engine.hpp"

namespace sh::serve {

/// Victim selection under KV pressure.
enum class PreemptPolicy {
  /// Historical policy: youngest resident other than the reserver. Keeps
  /// the bit-identical schedules the pre-router tests pin down.
  Youngest,
  /// SLO-aware: the resident with the worst deadline headroom (virtual
  /// slack to its deadline after pricing its remaining tokens at step_dt
  /// apiece, normalized by the deadline). Ties fall back to youngest, so
  /// with no deadlines set the policy degenerates to Youngest.
  SloHeadroom,
};

struct SchedulerConfig {
  /// Maximum resident (decoding) sequences per step.
  std::size_t max_batch = 16;
  KvArenaConfig arena{};
  PreemptPolicy preempt_policy = PreemptPolicy::Youngest;
  /// Virtual seconds one scheduler step is modeled to take — the unit the
  /// SLO policy prices a sequence's remaining tokens in.
  double step_dt = 0.01;
};

struct SchedulerStats {
  std::size_t submitted = 0;
  std::size_t finished = 0;
  std::size_t steps = 0;
  /// Scheduling preemption decisions (equals the arena's preemption count).
  std::size_t preemptions = 0;
  std::size_t resumes = 0;
  /// Prompt tokens actually pushed through the engine (prefix sharers skip
  /// their shared rows) plus the one-time prefix prefill below.
  std::size_t prompt_tokens_fed = 0;
  /// Tokens of the one-time shared-prefix prefill.
  std::size_t prefix_prefill_tokens = 0;
  /// Most recent pressure victim (0 = none yet) — lets tests pin down
  /// which sequence each preemption policy chose.
  std::uint64_t last_victim = 0;
};

class Scheduler {
 public:
  /// The scheduler's KvArena draws from the engine's device arena (one GPU
  /// budget for the working window and KV state), and preempt-to-CPU is
  /// registered as a pressure callback on that arena — the serving twin of
  /// the engine's deferred-prefetch degradation path.
  Scheduler(core::StrongholdEngine& engine, SchedulerConfig config);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Enqueues a request; returns its id (assigned when request.id == 0).
  /// Rejects (throws std::invalid_argument) requests whose prompt holds a
  /// token id outside [0, vocab), whose context exceeds the model's max_seq
  /// or whose full KV footprint exceeds the arena budget (minus the pinned
  /// prefix slab) — such a request could never run. Requests whose prompt starts with a registered prefix are marked
  /// as sharers and admitted as zero-copy aliases of the prefix slab.
  std::uint64_t submit(Request request);

  /// Registers a shared system prompt: pins a refcounted slab in the arena
  /// and prefills it ONCE through the engine. Must be called before any
  /// submit; throws std::invalid_argument when the prefix is empty, holds a
  /// token id outside [0, vocab), leaves no room for generation under
  /// max_seq, or does not fit the KV budget.
  void register_prefix(std::span<const std::int32_t> prefix);
  bool has_prefix() const noexcept { return prefix_id_ != 0; }

  /// Sets the virtual clock the SLO preemption policy measures headroom
  /// against (the router advances it each fleet step).
  void set_virtual_now(double now) noexcept { virtual_now_ = now; }
  double virtual_now() const noexcept { return virtual_now_; }

  /// Runs one continuous-batching iteration. Returns false when no work
  /// remains (queue empty, nothing resident or preempted).
  bool step();

  /// Steps until all submitted requests have finished.
  void run_to_completion();

  /// Finished request's tokens: prompt followed by generated tokens (the
  /// same layout StrongholdEngine::generate_incremental returns).
  const std::vector<std::int32_t>& result(std::uint64_t id) const;
  bool finished(std::uint64_t id) const { return results_.contains(id); }

  SchedulerStats stats() const;
  const KvArenaStats& arena_stats() const noexcept { return arena_.stats(); }
  /// Resolved KV budget (defaults to the residual free capacity of the
  /// engine's device arena at construction).
  std::size_t kv_budget_bytes() const noexcept { return arena_.budget_bytes(); }
  ServeEngine& serve_engine() noexcept { return serve_; }
  const ServeEngine& serve_engine() const noexcept { return serve_; }

 private:
  Sequence& seq(std::uint64_t id) { return sequences_.at(id); }
  /// Resident ids in admission order (oldest first).
  std::vector<std::uint64_t> running_by_age() const;
  void resume_preempted();
  void reserve_running();
  void admit_queued();
  void advance_batch();
  void finish(std::uint64_t id);
  /// Pressure callback body: preempts one resident other than the sequence
  /// currently reserving, chosen per cfg_.preempt_policy. Only sequences
  /// with private slabs are candidates — dropping a prefix alias frees no
  /// bytes. Returns whether bytes were freed FOR the reserving sequence.
  bool preempt_for_pressure(const std::string& region);
  /// Normalized virtual slack of a sequence against its deadline; +inf when
  /// it has none.
  double slo_headroom(const Sequence& s) const;

  core::StrongholdEngine& engine_;
  SchedulerConfig cfg_;
  KvArena arena_;
  ServeEngine serve_;
  std::uint64_t pressure_cb_id_ = 0;
  std::uint64_t obs_provider_id_ = 0;
  /// Sequence currently inside the reserve_running retry loop (0 = none);
  /// gates the pressure callback so foreign pressure (another scheduler on
  /// the same arena, engine window pressure) cannot preempt spuriously.
  std::uint64_t reserving_id_ = 0;

  std::map<std::uint64_t, Sequence> sequences_;  // all non-finished
  std::deque<std::uint64_t> queue_;              // submitted, not admitted
  std::vector<std::uint64_t> running_;           // resident, admission order
  std::vector<std::uint64_t> preempted_;         // victim order
  std::map<std::uint64_t, std::vector<std::int32_t>> results_;

  std::uint64_t next_id_ = 1;
  std::uint64_t next_admit_order_ = 0;
  double virtual_now_ = 0.0;
  /// Shared-prefix state: arena prefix id, the prefix tokens, and the
  /// cached logits of the prefix's last position — a sharer whose prompt IS
  /// the prefix samples its first token from these without an engine pass.
  std::uint64_t prefix_id_ = 0;
  std::vector<std::int32_t> prefix_tokens_;
  std::vector<float> prefix_logits_;
  SchedulerStats stats_;
};

}  // namespace sh::serve
