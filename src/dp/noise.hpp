#pragma once
// Keyed, counter-based Gaussian noise for every DP release (Eqs. 11/14).
//
// Each release draws from its own stream, keyed by a hash of
// (run seed, agent, round, release kind, index). Nothing carries over from
// one release to the next, so a draw depends only on its key: not on the
// order agents run in, the thread count, or what a checkpoint captured.
// Inside a release a SplitMix64 counter advances sequentially and feeds a
// 128-layer float ziggurat. The bits are this library's own; no std::
// distribution is involved. DESIGN.md "DP noise" has the key layout, the
// uniqueness invariant and the portability caveats.

#include <cstddef>
#include <cstdint>

namespace pdsl::dp {

/// What a release perturbs: an agent's own gradient (Eq. 11), a gradient
/// taken at a neighbour's model (Eq. 14), or a model.
enum class ReleaseKind : std::uint8_t { kSelf, kCross, kModel };

/// The identity of one noisy release. No two releases of a run may share a
/// key: they would carry the same noise, which cancels in their difference.
struct ReleaseKey {
  std::uint64_t seed = 0;   ///< run seed
  std::uint64_t agent = 0;  ///< releasing agent
  std::uint64_t round = 0;  ///< round the release belongs to (1-indexed)
  ReleaseKind kind = ReleaseKind::kSelf;
  /// kCross: the neighbour whose model the gradient was taken at. For
  /// releases made more than once per (agent, round, kind): the local step
  /// or wake. 0 otherwise.
  std::uint64_t index = 0;
};

/// 64-bit stream key of a release: SplitMix64 chained over the fields.
[[nodiscard]] std::uint64_t stream_key(const ReleaseKey& key);

/// out[k] += sigma * z_k for k < n, where z_0, z_1, ... is the
/// standard-normal stream keyed by `key`.
void add_keyed_gaussian(float* out, std::size_t n, float sigma, std::uint64_t key);

}  // namespace pdsl::dp
