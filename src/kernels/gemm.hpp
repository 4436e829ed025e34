#pragma once
// S-KER single-precision GEMM family on raw row-major buffers. Three layouts
// cover every matmul in the codebase (Linear forward/backward, the im2col
// convolution, attack models):
//
//   sgemm              C(m,n)  = A(m,k)   * B(k,n)
//   sgemm_transpose_a  C(k,n)  = A(m,k)^T * B(m,n)
//   sgemm_transpose_b  C(m,k)  = A(m,n)   * B(k,n)^T   (double accumulators)
//
// With `accumulate` the product is added to C instead of overwriting it.
//
// Each entry point dispatches on kernels::backend() (see backend.hpp): the
// naive path is the reference triple loop (zero-skip shortcuts removed — they
// silently dropped NaN/Inf propagation from the other operand); the
// vectorized path (microkernel.hpp) keeps accumulator tiles register-resident
// and reduces in fixed float lanes — deterministic but only tolerance-banded
// against the reference. Both paths' optional intra-op parallelism partitions
// complete output rows, so results are bit-identical at every --threads
// width.
//
// Intra-op parallelism engages only when runtime::global_threads() > 1 and
// the caller is NOT already inside a runtime::parallel_for body (the round
// loop's per-agent phases); nested parallelism is rejected by the runtime, so
// the kernels degrade to sequential there.

#include <cstddef>

namespace pdsl::kernels {

void sgemm(std::size_t m, std::size_t k, std::size_t n, const float* a, const float* b,
           float* c, bool accumulate = false);

void sgemm_transpose_a(std::size_t m, std::size_t k, std::size_t n, const float* a,
                       const float* b, float* c, bool accumulate = false);

void sgemm_transpose_b(std::size_t m, std::size_t n, std::size_t k, const float* a,
                       const float* b, float* c, bool accumulate = false);

}  // namespace pdsl::kernels
