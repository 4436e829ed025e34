#pragma once
// S-RECOV resumable run-state file ("PDSLRUN3" blob): everything needed to
// kill a run after round r and continue it bit-identically — the driver-side
// cursor/series/accountant (algos::ResumeState) plus the algorithm's opaque
// save_state blob, guarded by a config-identity hash so a resume against a
// different experiment configuration fails loudly instead of silently
// diverging. Written with the io/checkpoint tmp+rename discipline: a crash
// mid-checkpoint never clobbers the previous resumable state.

#include <cstdint>
#include <string>

#include "algos/common.hpp"
#include "io/codec.hpp"

namespace pdsl::recovery {

/// "PDSLRUN3" — resumable run-state blob magic. Older files are refused by
/// magic: PDSLRUN1 stored the round metrics in another field order, and
/// PDSLRUN2 carried per-agent DP noise-stream cursors from before noise was
/// keyed per release (dp/noise.hpp), so neither resumes bit-identically.
constexpr std::uint64_t kRunStateMagic = 0x5044534C52554E33ULL;
/// "PDSLSNP1" — per-agent recovery snapshot blob magic.
constexpr std::uint64_t kSnapshotMagic = 0x5044534C534E5031ULL;

struct RunState {
  /// FNV-1a over the canonical JSON of the experiment config with volatile,
  /// resume-irrelevant knobs scrubbed (threads, output paths, checkpoint
  /// cadence). load_run_state refuses a mismatch.
  std::uint64_t config_hash = 0;
  algos::ResumeState resume;
  io::ByteBuffer algo_state;  ///< Algorithm::save_state payload, opaque here
};

/// Persist `st` crash-safely at `path`.
void save_run_state(const std::string& path, const RunState& st);

/// Load and validate a run-state file. Throws std::runtime_error on a
/// missing/truncated/corrupted file, and — when `expected_config_hash` is
/// non-zero — on a config-identity mismatch.
[[nodiscard]] RunState load_run_state(const std::string& path,
                                      std::uint64_t expected_config_hash);

/// FNV-1a over a string (the config-identity hash primitive).
[[nodiscard]] inline std::uint64_t fnv1a_str(const std::string& s) {
  return io::fnv1a_bytes(s.data(), s.size());
}

}  // namespace pdsl::recovery
