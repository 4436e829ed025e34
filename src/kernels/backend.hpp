#pragma once
// S-KER backend registry. The hot math (GEMM, convolution) exists in two
// tiers:
//
//   - naive:      the reference tier. Plain loops (direct convolution, triple
//                 loop GEMMs, double-accumulated dot products) in a fixed
//                 per-element accumulation order, compiled without FMA
//                 contraction. The byte-exact golden fixtures and the
//                 differential tests pin it.
//   - vectorized: the fast tier and the default — the S-VEC register-tiled
//                 microkernel (microkernel.hpp), with convolution lowered to
//                 im2col + GEMM. Deterministic (fixed lane split + fixed
//                 reduction tree, independent of --threads), but NOT
//                 bit-identical to the reference: it reassociates reductions
//                 and is compiled with FMA contraction. It lives in the
//                 tolerance-banded tier (DESIGN.md "S-KER" band policy).
//
// The selection is process-wide:
//
//   - default: vectorized;
//   - env var PDSL_KERNEL_BACKEND=naive|vectorized overrides the default at
//     process start;
//   - set_backend() (plumbed from `--backend` on the CLI and the "backend"
//     JSON config key) overrides both.
//
// Determinism: within one backend, results are bit-identical at every
// --threads width (both tiers partition complete output rows). Across
// backends, results agree only within tolerance bands.

#include <string>

namespace pdsl::kernels {

enum class Backend {
  kNaive,       ///< reference loops (former tensor/ops + direct convolution)
  kVectorized,  ///< S-VEC microkernel: fast tier, tolerance-banded, the default
};

/// Current process-wide backend (env-initialized on first use).
[[nodiscard]] Backend backend() noexcept;

/// Select the process-wide backend. Safe to call between runs; not meant to
/// be raced against in-flight kernels.
void set_backend(Backend b) noexcept;

/// "naive" | "vectorized"; anything else throws std::invalid_argument whose
/// message starts with `what` (the config key or CLI flag being parsed) and
/// names the valid values.
[[nodiscard]] Backend backend_from_string(const std::string& name, const std::string& what);

/// Inverse of backend_from_string.
[[nodiscard]] const char* backend_name(Backend b) noexcept;

}  // namespace pdsl::kernels
