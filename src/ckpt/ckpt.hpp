// sh::ckpt — crash-consistent, versioned training checkpoints.
//
// A checkpoint generation is two files in the checkpoint directory:
//
//   gen-<step>.data      tensor payloads, written through a storage::SwapFile
//                        (so writes ride the asynchronous I/O worker, the
//                        fault-injection plan and the bounded-retry policy of
//                        the NVMe tier — Section III-G machinery reused)
//   gen-<step>.manifest  per-tensor {offset, count, checksum} + small named
//                        blobs (RNG streams, data-loader cursor, step
//                        counters), self-checksummed
//
// Commit protocol (crash-consistent by construction): both files are written
// as `.tmp`, fsynced, and renamed data-first, manifest-last; the manifest
// rename is the single atomic commit point. A process killed at ANY instant
// leaves either a fully committed generation or ignorable orphans (`.tmp`
// files, or an unmanifested data file from a death between the renames; both
// swept by the next commit's GC) — never a half-checkpoint that restore
// could mistake for valid. Restore
// walks generations newest-first, verifies every checksum, and falls back
// past corrupt or uncommitted generations (each rejection is a typed
// RestoreError). Generation GC keeps the newest `keep` manifests.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "storage/fault_plan.hpp"

namespace sh::ckpt {

enum class RestoreErrorKind {
  NoValidGeneration,  ///< no committed generation survived validation
  MissingFile,        ///< manifest or data file absent (e.g. tmp-only orphan)
  Truncated,          ///< manifest or data file shorter than declared
  BadMagic,           ///< manifest is not a checkpoint manifest
  BadVersion,         ///< manifest from an unknown format version
  ChecksumMismatch,   ///< manifest self-checksum or a tensor checksum failed
  GeometryMismatch,   ///< tensor/blob shape does not fit the running model
  MissingData,        ///< a required blob/tensor is absent from the snapshot
};

/// Typed restore failure. `step()` is the generation that was rejected
/// (UINT64_MAX when no generation applies).
class RestoreError : public std::runtime_error {
 public:
  RestoreError(RestoreErrorKind kind, const std::string& what,
               std::uint64_t step = UINT64_MAX)
      : std::runtime_error(what), kind_(kind), step_(step) {}

  RestoreErrorKind kind() const noexcept { return kind_; }
  std::uint64_t step() const noexcept { return step_; }

 private:
  RestoreErrorKind kind_;
  std::uint64_t step_;
};

/// FNV-1a 64-bit — the per-tensor and manifest checksum. Deterministic
/// across platforms, cheap enough to run inline with the staging copy.
inline std::uint64_t checksum_bytes(const void* data, std::size_t n,
                                    std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Small named byte payloads stored inline in the manifest: RNG streams,
/// data-loader cursors, scaler state, geometry guards. Ordered map so the
/// manifest bytes (and its checksum) are deterministic.
struct Blobs {
  std::map<std::string, std::vector<std::uint8_t>> entries;

  bool contains(const std::string& name) const {
    return entries.count(name) != 0;
  }

  void put_bytes(const std::string& name, const void* data, std::size_t n) {
    auto& e = entries[name];
    e.resize(n);
    std::memcpy(e.data(), data, n);
  }

  template <typename T>
  void put(const std::string& name, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_bytes(name, &v, sizeof(T));
  }

  template <typename T>
  T get(const std::string& name) const {
    static_assert(std::is_trivially_copyable_v<T>);
    auto it = entries.find(name);
    if (it == entries.end()) {
      throw RestoreError(RestoreErrorKind::MissingData,
                         "ckpt: blob '" + name + "' missing from snapshot");
    }
    if (it->second.size() != sizeof(T)) {
      throw RestoreError(RestoreErrorKind::GeometryMismatch,
                         "ckpt: blob '" + name + "' has " +
                             std::to_string(it->second.size()) +
                             " bytes, expected " + std::to_string(sizeof(T)));
    }
    T v;
    std::memcpy(&v, it->second.data(), sizeof(T));
    return v;
  }
};

/// One named tensor staged for writing (or produced by a restore). Staging
/// copies are what lets the engine keep training while the tier writes.
struct TensorEntry {
  std::string name;
  std::vector<float> data;
};

/// A complete training-state capture: everything needed to continue a run
/// bit-identically. Producers: StrongholdEngine::capture_snapshot(),
/// DataParallelTrainer. Consumers: restore_snapshot() / Checkpointer.
struct Snapshot {
  std::uint64_t step = 0;
  Blobs blobs;
  std::vector<TensorEntry> tensors;

  std::size_t payload_bytes() const {
    std::size_t n = 0;
    for (const auto& t : tensors) n += t.data.size() * sizeof(float);
    for (const auto& [k, v] : blobs.entries) n += v.size();
    return n;
  }
};

/// Checkpointer policy. `SH_CKPT_DIR` / `SH_CKPT_EVERY` / `SH_CKPT_KEEP`
/// environment variables override dir/every_n_steps/keep at construction
/// (config_from_env), mirroring the SH_FAULT_* convention.
struct Config {
  std::string dir;                ///< empty = checkpointing disabled
  std::size_t every_n_steps = 0;  ///< periodic async snapshot cadence (0=off)
  std::size_t keep = 2;           ///< generations retained by GC (min 1)
  double bytes_per_second = 0.0;  ///< tier write throttle (tests/bench)
  /// Fault plan + retry policy for checkpoint WRITES (the same knobs as the
  /// swap tier; SH_FAULT_* env does NOT overlay here — checkpoints usually
  /// target a healthier device than the tier under test).
  storage::FaultConfig faults{};
};

/// Applies the SH_CKPT_* environment overrides to `base`.
Config config_from_env(Config base = {});

}  // namespace sh::ckpt
