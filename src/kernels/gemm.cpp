#include "kernels/gemm.hpp"

#include <algorithm>
#include <functional>

#include "kernels/backend.hpp"
#include "kernels/microkernel.hpp"
#include "runtime/parallel_for.hpp"

namespace pdsl::kernels {

namespace {

/// Run body(lo, hi) over a static partition of [0, rows). Sequential when the
/// configured width is 1, when there is nothing to split, or when the caller
/// already sits inside a parallel_for body (nested parallelism is rejected by
/// the runtime). The partition is a pure function of (rows, width) and every
/// output row is produced by exactly one chunk, so results are bit-identical
/// at every width.
void for_row_range(std::size_t rows, const std::function<void(std::size_t, std::size_t)>& body) {
  if (rows == 0) return;
  const std::size_t width = runtime::global_threads();
  const std::size_t chunks = std::min(width, rows);
  if (chunks <= 1 || runtime::in_parallel_region()) {
    body(0, rows);
    return;
  }
  const std::size_t grain = (rows + chunks - 1) / chunks;
  runtime::parallel_for(0, chunks, 1, [&](std::size_t c) {
    const std::size_t lo = c * grain;
    const std::size_t hi = std::min(rows, lo + grain);
    if (lo < hi) body(lo, hi);
  });
}

// ---------------------------------------------------------------------------
// C(m,n) = A(m,k) * B(k,n)
// ---------------------------------------------------------------------------

void naive_sgemm_rows(std::size_t i_begin, std::size_t i_end, std::size_t k, std::size_t n,
                      const float* a, const float* b, float* c) {
  for (std::size_t i = i_begin; i < i_end; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* brow = b + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// ---------------------------------------------------------------------------
// C(k,n) = A(m,k)^T * B(m,n) — output row p of C gathers column p of A.
// ---------------------------------------------------------------------------

void naive_sgemm_ta_rows(std::size_t p_begin, std::size_t p_end, std::size_t m, std::size_t k,
                         std::size_t n, const float* a, const float* b, float* c) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    const float* brow = b + i * n;
    for (std::size_t p = p_begin; p < p_end; ++p) {
      const float av = arow[p];
      float* crow = c + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// ---------------------------------------------------------------------------
// C(m,k) = A(m,n) * B(k,n)^T — independent dot products, double accumulators
// (matches the original matmul_transpose_b numerics exactly).
// ---------------------------------------------------------------------------

void naive_sgemm_tb_rows(std::size_t i_begin, std::size_t i_end, std::size_t n, std::size_t k,
                         const float* a, const float* b, float* c, bool accumulate) {
  for (std::size_t i = i_begin; i < i_end; ++i) {
    const float* arow = a + i * n;
    for (std::size_t j = 0; j < k; ++j) {
      const float* brow = b + j * n;
      double acc = 0.0;
      for (std::size_t p = 0; p < n; ++p) acc += static_cast<double>(arow[p]) * brow[p];
      if (accumulate) {
        c[i * k + j] += static_cast<float>(acc);
      } else {
        c[i * k + j] = static_cast<float>(acc);
      }
    }
  }
}

}  // namespace

void sgemm(std::size_t m, std::size_t k, std::size_t n, const float* a, const float* b,
           float* c, bool accumulate) {
  const bool vectorized = backend() == Backend::kVectorized;
  for_row_range(m, [&](std::size_t lo, std::size_t hi) {
    if (!accumulate) std::fill(c + lo * n, c + hi * n, 0.0f);
    if (vectorized) {
      vec_sgemm_rows(lo, hi, k, n, a, b, c);
    } else {
      naive_sgemm_rows(lo, hi, k, n, a, b, c);
    }
  });
}

void sgemm_transpose_a(std::size_t m, std::size_t k, std::size_t n, const float* a,
                       const float* b, float* c, bool accumulate) {
  const bool vectorized = backend() == Backend::kVectorized;
  for_row_range(k, [&](std::size_t lo, std::size_t hi) {
    if (!accumulate) std::fill(c + lo * n, c + hi * n, 0.0f);
    if (vectorized) {
      vec_sgemm_ta_rows(lo, hi, m, k, n, a, b, c);
    } else {
      naive_sgemm_ta_rows(lo, hi, m, k, n, a, b, c);
    }
  });
}

void sgemm_transpose_b(std::size_t m, std::size_t n, std::size_t k, const float* a,
                       const float* b, float* c, bool accumulate) {
  const bool vectorized = backend() == Backend::kVectorized;
  for_row_range(m, [&](std::size_t lo, std::size_t hi) {
    if (vectorized) {
      vec_sgemm_tb_rows(lo, hi, n, k, a, b, c, accumulate);
    } else {
      naive_sgemm_tb_rows(lo, hi, n, k, a, b, c, accumulate);
    }
  });
}

}  // namespace pdsl::kernels
