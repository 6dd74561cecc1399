// Byte-budgeted pool of per-sequence KV-cache slabs with admission control,
// preempt-to-CPU/resume, and copy-on-write shared prompt prefixes.
//
// Serving-side analogue of the training engine's ByteBudgetPool discipline:
// the "GPU" KV footprint of all resident sequences is capped by a byte
// budget. Capacity is reserved in fixed token chunks, so a sequence's
// footprint grows as it decodes; when a growth request cannot be satisfied
// the scheduler preempts a victim, which compacts that sequence's live KV
// rows into a CPU-side save and frees its arena bytes. Resuming reallocates
// a slab (possibly with a different capacity) and restores the rows with a
// bit-exact copy, so a preempted request's token stream is unchanged.
//
// Shared prefixes (millions-of-users traffic repeats one system prompt): a
// registered prefix owns one refcounted slab whose KV rows are prefilled
// once; sequences whose prompts start with the prefix are admitted as
// ALIASES of that slab — zero copy, zero additional bytes. The alias is
// read-only: the first write past the shared rows (the sequence's own
// prompt remainder or sampled token) privatizes it — a fresh slab is
// charged, the prefix rows are copied in, and the refcount drops. A KV row
// for position i depends only on tokens <= i (causal attention), so the
// copied rows are bit-identical to the rows a solo full-prompt prefill
// would have produced.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "mem/device_arena.hpp"
#include "nn/gpt.hpp"
#include "nn/module.hpp"
#include "tensor/dtype.hpp"

namespace sh::serve {

struct KvArenaConfig {
  /// Cap on the summed K+V bytes of all resident sequences. 0 = derive the
  /// budget from the residual free capacity of the shared device arena at
  /// construction (the engine's gpu_memory_bytes minus the working window);
  /// a standalone KvArena (no shared arena) must set it explicitly.
  std::size_t budget_bytes = 0;
  /// Reservation granularity in tokens; capacities round up to a multiple.
  std::int64_t chunk_tokens = 16;
  /// Element encoding the KV bytes are priced in. The numeric caches stay
  /// FP32 tensors (this is a simulation of device storage); bf16 halves
  /// what each resident token charges against the budget and the shared
  /// arena's "kv" region.
  tensor::DType dtype = tensor::DType::f32;
};

struct KvArenaStats {
  std::size_t bytes_in_use = 0;
  std::size_t peak_bytes = 0;
  std::size_t admissions = 0;
  std::size_t grows = 0;
  std::size_t preemptions = 0;
  std::size_t resumes = 0;
  std::size_t releases = 0;
  std::size_t prefixes = 0;               ///< registered shared prefixes
  std::size_t prefix_bytes = 0;           ///< bytes pinned by prefix slabs
  std::size_t prefix_adoptions = 0;       ///< zero-copy alias admissions
  std::size_t prefix_privatizations = 0;  ///< CoW copies on first write
};

class KvArena {
 public:
  /// With `device` set, every KV byte is reserved (hard-charged) against
  /// that shared mem::DeviceArena's "kv" region, so training-window and KV
  /// bytes draw from one GPU capacity; budget_bytes == 0 then resolves to
  /// the arena's residual free capacity (explicit budgets are clamped to
  /// it). Without `device` the arena owns a private DeviceArena of exactly
  /// budget_bytes, which must be non-zero.
  KvArena(const nn::GptConfig& model, KvArenaConfig config,
          mem::DeviceArena* device = nullptr);
  ~KvArena();

  /// Bytes a resident sequence with `tokens` of context occupies (capacity
  /// rounded up to the chunk size; K and V over every block).
  std::size_t bytes_for(std::int64_t tokens) const;
  /// Whether a sequence needing `tokens` could EVER be resident — the
  /// admission-control feasibility check applied at submit time.
  bool fits_budget(std::int64_t tokens) const {
    return bytes_for(tokens) <= budget_;
  }

  /// Ensures sequence `id` has a resident slab covering `tokens`; allocates
  /// on first call, grows (copying live rows) when the chunk boundary is
  /// crossed. Returns false — with no state change — when the budget cannot
  /// absorb the new bytes.
  bool try_reserve(std::uint64_t id, std::int64_t tokens);

  /// Compacts the live KV rows of resident sequence `id` into a CPU-side
  /// save and frees its arena bytes.
  void preempt(std::uint64_t id);

  /// Restores a preempted sequence into a fresh slab covering `tokens`.
  /// Returns false (sequence stays saved) when the budget has no room.
  bool try_resume(std::uint64_t id, std::int64_t tokens);

  /// Frees a resident sequence's slab (request finished or aborted), or
  /// drops its prefix alias (which frees nothing).
  void release(std::uint64_t id);

  bool resident(std::uint64_t id) const {
    return slabs_.contains(id) || shared_.contains(id);
  }
  bool preempted(std::uint64_t id) const { return saved_.contains(id); }

  /// Allocates and pins a refcounted prefix slab sized for `tokens`
  /// (chunk-rounded, charged like any resident slab, never freed while the
  /// arena lives). The caller prefills its caches once via prefix_caches().
  /// Returns the prefix id; throws std::invalid_argument when the budget
  /// cannot hold it.
  std::uint64_t register_prefix(std::int64_t tokens);
  /// Per-block caches of a registered prefix (for the one-time prefill, and
  /// as the aliased read view of sharing sequences).
  std::span<nn::KvCache> prefix_caches(std::uint64_t prefix_id);
  /// Admits sequence `id` as a zero-copy alias of the prefix slab. Charges
  /// no bytes, so it always succeeds (throws std::invalid_argument if `id`
  /// is already resident/preempted or the prefix id is unknown). The alias
  /// is read-only — try_reserve() privatizes it before any KV write.
  void adopt_prefix(std::uint64_t id, std::uint64_t prefix_id);
  /// Whether `id` is currently an unprivatized alias of a prefix slab.
  bool shared(std::uint64_t id) const { return shared_.contains(id); }

  /// Per-block caches of a resident sequence, in block order. For a shared
  /// sequence this is the prefix slab itself — read-only by contract.
  std::span<nn::KvCache> caches(std::uint64_t id);

  const KvArenaStats& stats() const noexcept { return stats_; }
  /// Resolved budget (explicit, or the shared arena's residual at
  /// construction).
  std::size_t budget_bytes() const noexcept { return budget_; }
  /// The device arena KV bytes are charged to (owned or shared).
  mem::DeviceArena& device_arena() noexcept { return *device_; }

 private:
  struct Slab {
    std::vector<nn::KvCache> caches;  // one per block
    std::int64_t capacity = 0;        // tokens
  };
  /// Compacted CPU copy of a preempted sequence's live rows. A sequence
  /// preempted while still aliasing a prefix saves nothing — only the
  /// prefix id, and resume re-adopts (free, always succeeds).
  struct Saved {
    std::vector<std::vector<float>> k, v;  // [block][length * hidden]
    std::int64_t length = 0;
    std::uint64_t prefix = 0;  // nonzero: alias of this prefix, no rows
  };
  struct Prefix {
    Slab slab;
    std::int64_t tokens = 0;
    std::size_t refs = 0;  // live aliases (informational; slab is pinned)
  };

  std::int64_t round_to_chunk(std::int64_t tokens) const;
  Slab make_slab(std::int64_t capacity) const;
  /// Reserves `bytes` against both the local budget and the device arena's
  /// "kv" region; false (no state change) when either has no room.
  bool try_charge(std::size_t bytes);
  void uncharge(std::size_t bytes);

  std::int64_t blocks_;
  std::int64_t heads_;
  std::int64_t head_dim_;
  KvArenaConfig cfg_;
  std::unique_ptr<mem::DeviceArena> owned_;  // standalone mode only
  mem::DeviceArena* device_ = nullptr;
  std::size_t budget_ = 0;
  std::unordered_map<std::uint64_t, Slab> slabs_;
  std::unordered_map<std::uint64_t, Saved> saved_;
  std::unordered_map<std::uint64_t, Prefix> prefixes_;
  std::unordered_map<std::uint64_t, std::uint64_t> shared_;  // seq -> prefix
  std::uint64_t next_prefix_id_ = 1;
  KvArenaStats stats_;
};

}  // namespace sh::serve
