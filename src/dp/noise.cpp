#include "dp/noise.hpp"

#include <cmath>

#include "common/rng.hpp"

namespace pdsl::dp {

namespace {

// Marsaglia & Tsang's 128-layer ziggurat ("The ziggurat method for
// generating random variables", 2000): kR is the right edge of the base
// layer, kV the area every layer has.
constexpr int kLayers = 128;
constexpr double kR = 3.442619855899;
constexpr double kV = 9.91256303526217e-3;
constexpr double kAbscissaScale = 16777216.0;  // 2^24, the abscissa's resolution

// A 32-bit word splits into three fields that share no bits (Doornik,
// "An improved ziggurat method to generate normal random samples", 2005):
//   bits 0-6  layer i            (the classic code reuses these as abscissa
//   bit  7    sign                bits, which correlates layer and value)
//   bits 8-31 abscissa u < 2^24
// Both tables are indexed by the low byte, so the sign rides in `width`.
struct Ziggurat {
  std::uint32_t fast[2 * kLayers];  ///< u < fast[b]: the point lies under the curve
  float width[2 * kLayers];         ///< ±(layer's right edge) / 2^24
  double f[kLayers];                ///< exp(-x_i^2 / 2) at each layer's edge
};

// Built once, at static initialization, from kR and kV. Nothing calls the
// sampler from another translation unit's static initializer.
Ziggurat build_ziggurat() {
  Ziggurat z{};
  std::uint32_t fast[kLayers] = {};
  double edge[kLayers] = {};
  double dn = kR;
  double tn = dn;
  const double q = kV / std::exp(-0.5 * dn * dn);  // base layer's pseudo-width
  fast[0] = static_cast<std::uint32_t>(dn / q * kAbscissaScale);
  fast[1] = 0;  // the top layer has no rectangle wholly under the curve
  edge[0] = q;
  edge[kLayers - 1] = dn;
  z.f[0] = 1.0;
  z.f[kLayers - 1] = std::exp(-0.5 * dn * dn);
  for (int i = kLayers - 2; i >= 1; --i) {
    dn = std::sqrt(-2.0 * std::log(kV / dn + std::exp(-0.5 * dn * dn)));
    fast[i + 1] = static_cast<std::uint32_t>(dn / tn * kAbscissaScale);
    tn = dn;
    z.f[i] = std::exp(-0.5 * dn * dn);
    edge[i] = dn;
  }
  for (int b = 0; b < 2 * kLayers; ++b) {
    const int i = b & (kLayers - 1);
    const auto w = static_cast<float>(edge[i] / kAbscissaScale);
    z.fast[b] = fast[i];
    z.width[b] = b < kLayers ? w : -w;
  }
  return z;
}

const Ziggurat kZig = build_ziggurat();

/// The release's SplitMix64 counter: word n is splitmix64(key + n * gamma),
/// the same sequence an Rng-free SplitMix64 seeded with `key` emits.
struct Counter {
  std::uint64_t state;

  std::uint64_t next() {
    std::uint64_t x = state;
    state += 0x9E3779B97F4A7C15ULL;
    return splitmix64(x);
  }
  /// Uniform in (0, 1], from the top 53 bits of the next word.
  double uniform() { return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53; }
};

/// Beyond kR: Marsaglia's exponential-rejection tail sampler.
float tail(Counter& c, bool negative) {
  double x = 0.0;
  double y = 0.0;
  do {
    x = -std::log(c.uniform()) / kR;
    y = -std::log(c.uniform());
  } while (y + y < x * x);
  const auto z = static_cast<float>(kR + x);
  return negative ? -z : z;
}

/// A word that missed the fast path: tail, wedge test, or a fresh word.
float slow_draw(std::uint32_t w, Counter& c) {
  for (;;) {
    const std::uint32_t b = w & 0xFF;
    const std::uint32_t i = b & (kLayers - 1);
    const std::uint32_t u = w >> 8;
    const float x = static_cast<float>(u) * kZig.width[b];
    if (u < kZig.fast[b]) return x;
    if (i == 0) return tail(c, b >= kLayers);
    const double xd = x;
    if (kZig.f[i] + c.uniform() * (kZig.f[i - 1] - kZig.f[i]) < std::exp(-0.5 * xd * xd)) {
      return x;
    }
    w = static_cast<std::uint32_t>(c.next());
  }
}

/// One standard-normal draw from word `w`; ~98.8% return on the first line.
inline float draw(std::uint32_t w, Counter& c) {
  const std::uint32_t b = w & 0xFF;
  const std::uint32_t u = w >> 8;
  if (u < kZig.fast[b]) return static_cast<float>(u) * kZig.width[b];
  return slow_draw(w, c);
}

}  // namespace

std::uint64_t stream_key(const ReleaseKey& key) {
  std::uint64_t h = splitmix64(key.seed ^ 0x6E6F6973654B6579ULL);  // "noiseKey"
  h = splitmix64(h ^ key.agent);
  h = splitmix64(h ^ key.round);
  h = splitmix64(h ^ static_cast<std::uint64_t>(key.kind));
  return splitmix64(h ^ key.index);
}

void add_keyed_gaussian(float* out, std::size_t n, float sigma, std::uint64_t key) {
  Counter c{key};
  std::size_t k = 0;
  // Two draws per 64-bit word; a slow-path draw takes further words from the
  // same counter, so the stream stays sequential.
  for (; k + 1 < n; k += 2) {
    const std::uint64_t word = c.next();
    out[k] += sigma * draw(static_cast<std::uint32_t>(word), c);
    out[k + 1] += sigma * draw(static_cast<std::uint32_t>(word >> 32), c);
  }
  if (k < n) out[k] += sigma * draw(static_cast<std::uint32_t>(c.next()), c);
}

}  // namespace pdsl::dp
