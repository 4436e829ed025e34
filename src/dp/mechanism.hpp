#pragma once
// Gaussian mechanism building blocks (S5): L2 clipping (Eq. 10/13) and noise
// injection (Eq. 11/14). All algorithms share these so their privacy
// treatment is identical up to where the noise is applied. Every release
// draws its noise from its own keyed stream (dp/noise.hpp).

#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "dp/noise.hpp"

namespace pdsl::dp {

/// Clip `g` in place to L2 norm at most `threshold` (the paper's Eq. 10):
/// g <- g / max(1, ||g|| / C). Returns the pre-clip norm.
double clip_l2(std::vector<float>& g, double threshold);

/// Out-of-place variant.
[[nodiscard]] std::vector<float> clipped_l2(const std::vector<float>& g, double threshold);

/// Add i.i.d. N(0, sigma^2) noise to every coordinate (Eq. 11), drawn from
/// the stream of release `key`. When sigma > 0 the release is counted under
/// the metrics counter dp.noise_releases.{self,cross,model}.
void add_gaussian_noise(std::vector<float>& g, double sigma, const ReleaseKey& key);

/// Adapter for noise outside a run's releases (probes, microbenchmarks): draws
/// one 64-bit stream key from `rng`, then fills as above. Not counted.
void add_gaussian_noise(std::vector<float>& g, double sigma, Rng& rng);

/// Test seam: while set, every counted release reports its key here, from
/// whichever thread makes it, so the observer must be thread-safe. Pass an
/// empty function to clear. Set and clear it only between rounds.
void set_release_observer(std::function<void(const ReleaseKey&)> observer);

/// Standard Gaussian-mechanism noise scale for (epsilon, delta)-DP given L2
/// sensitivity `l2_sensitivity` (Dwork & Roth, Thm. 3.22):
///   sigma >= sqrt(2 ln(1.25/delta)) * sensitivity / epsilon
/// Requires delta in (0,1) and epsilon > 0.
[[nodiscard]] double gaussian_sigma(double l2_sensitivity, double epsilon, double delta);

/// Clip-then-perturb in one call; returns the privatized gradient.
[[nodiscard]] std::vector<float> privatize(std::vector<float> g, double clip, double sigma,
                                           const ReleaseKey& key);

}  // namespace pdsl::dp
