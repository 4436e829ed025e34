// S-KER differential tests for the two kernel tiers: NaN/Inf propagation
// regressions for the removed zero-skip shortcuts, the intra-op determinism
// contract (bit-identical results at any --threads width, including a full
// PDSL round loop with a CNN model, on both tiers), and the backend registry
// (vectorized is the default; retired names are refused).
//
// S-VEC: randomized-shape fuzz of the vectorized tier against naive within
// the documented tolerance band (plus ragged tails, unit/empty dims, NaN/Inf
// propagation at every lane offset) and the im2col convolution against the
// direct one within the same band.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "kernels/backend.hpp"
#include "kernels/gemm.hpp"
#include "kernels/im2col.hpp"
#include "nn/conv2d.hpp"
#include "runtime/parallel_for.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

using namespace pdsl;

namespace {

/// Restores the process-wide backend and width the test mutated.
class KernelEnvGuard {
 public:
  KernelEnvGuard() : prev_(kernels::backend()) {}
  ~KernelEnvGuard() {
    kernels::set_backend(prev_);
    runtime::set_global_threads(1);
  }

 private:
  kernels::Backend prev_;
};

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  rng.fill_normal(v, 0.0, 1.0);
  return v;
}

struct GemmShape {
  std::size_t m, k, n;
};

// Odd shapes on purpose: unit dims hit the register-tile remainders, 17/13/19
// straddle the tiles, 0 exercises the empty range, 64s hit full tiles.
const std::vector<GemmShape> kShapes = {
    {1, 1, 1}, {1, 7, 3}, {5, 1, 4}, {4, 6, 1}, {2, 3, 2},
    {17, 13, 19}, {32, 64, 32}, {64, 64, 64}, {0, 5, 7}, {5, 0, 7}, {5, 7, 0},
};

using RawGemm = void (*)(std::size_t, std::size_t, std::size_t, const float*, const float*,
                         float*, bool);

constexpr kernels::Backend kBothTiers[] = {kernels::Backend::kNaive,
                                           kernels::Backend::kVectorized};

}  // namespace

TEST(Kernels, BackendRegistry) {
  KernelEnvGuard guard;
  // Every test restores the backend it set, so without the env override the
  // process still runs on the library default here.
  const char* env = std::getenv("PDSL_KERNEL_BACKEND");
  if (env == nullptr || *env == '\0') {
    EXPECT_EQ(kernels::backend(), kernels::Backend::kVectorized);
  }
  EXPECT_EQ(kernels::backend_from_string("naive", "backend"), kernels::Backend::kNaive);
  EXPECT_EQ(kernels::backend_from_string("vectorized", "backend"),
            kernels::Backend::kVectorized);
  for (const char* unknown : {"blocked", "auto", "fast", ""}) {
    try {
      (void)kernels::backend_from_string(unknown, "--backend");
      ADD_FAILURE() << "'" << unknown << "' was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_EQ(msg.rfind("--backend", 0), 0u) << msg;
      EXPECT_NE(msg.find("naive | vectorized"), std::string::npos) << msg;
    }
  }
  for (const auto be : kBothTiers) {
    kernels::set_backend(be);
    EXPECT_EQ(kernels::backend_from_string(kernels::backend_name(kernels::backend()), "backend"),
              be);
  }
}

// The old in-place matmuls skipped the inner loop when an A element was
// exactly 0, silently dropping NaN/Inf propagation from B. Both tiers must
// propagate.
TEST(Kernels, MatmulPropagatesNanThroughZeroOperand) {
  KernelEnvGuard guard;
  const float nan = std::nanf("");
  Tensor a(Shape{2, 2});  // all zeros
  Tensor b(Shape{2, 2});
  b.at2(0, 0) = nan;
  for (const auto be : kBothTiers) {
    kernels::set_backend(be);
    const Tensor c = matmul(a, b);
    EXPECT_TRUE(std::isnan(c.at2(0, 0))) << kernels::backend_name(be);
    EXPECT_TRUE(std::isnan(c.at2(1, 0))) << kernels::backend_name(be);
    const Tensor ct = matmul_transpose_a(a, b);
    EXPECT_TRUE(std::isnan(ct.at2(0, 0))) << kernels::backend_name(be);
    const Tensor inf_b = Tensor(Shape{2, 2}, std::vector<float>(4, HUGE_VALF));
    const Tensor ci = matmul(a, inf_b);
    EXPECT_TRUE(std::isnan(ci.at2(0, 0))) << "0 * inf must be NaN, "
                                          << kernels::backend_name(be);
  }
}

TEST(Kernels, ConvBackwardPropagatesNanThroughZeroGrad) {
  KernelEnvGuard guard;
  for (const auto be : kBothTiers) {
    kernels::set_backend(be);
    nn::Conv2D conv(1, 1, 1, 0);
    Rng rng(3);
    conv.init(rng);
    conv.params()[0]->value.fill(std::nanf(""));  // weight = NaN
    Tensor x(Shape{1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
    (void)conv.forward(x);
    const Tensor zero_grad(Shape{1, 1, 2, 2});
    const Tensor gx = conv.backward(zero_grad);
    // gx += g * w with g == 0, w == NaN: the old skip returned zeros here.
    for (std::size_t i = 0; i < gx.numel(); ++i) {
      EXPECT_TRUE(std::isnan(gx[i])) << kernels::backend_name(be) << " index " << i;
    }
  }
}

TEST(Kernels, Im2colLaysOutPatchesRowMajor) {
  const std::vector<float> x = {1, 2, 3, 4};  // 1 channel, 2x2
  std::vector<float> col(4, -1.0f);
  kernels::im2col(x.data(), 1, 2, 2, 2, 0, col.data());  // k=2, pad=0 -> 1 pixel
  EXPECT_EQ(col, (std::vector<float>{1, 2, 3, 4}));
  // With pad=1 the corner patch sees zeros outside the image.
  std::vector<float> col_pad(4 * 9);
  kernels::im2col(x.data(), 1, 2, 2, 2, 1, col_pad.data());  // oh=ow=3
  // Tap (kr=0,kc=0) row: x[r-1][c-1] over the 3x3 output grid.
  EXPECT_EQ(std::vector<float>(col_pad.begin(), col_pad.begin() + 9),
            (std::vector<float>{0, 0, 0, 0, 1, 2, 0, 3, 4}));
}

TEST(Kernels, Col2imIsAdjointOfIm2col) {
  // <im2col(x), c> == <x, col2im(c)> for random x, c — the standard adjoint
  // identity; validates the scatter against the gather including padding.
  const std::size_t in_ch = 2, ih = 5, iw = 4, k = 3, pad = 1;
  const std::size_t oh = ih + 2 * pad - k + 1, ow = iw + 2 * pad - k + 1;
  const std::size_t cols = in_ch * k * k * oh * ow;
  const auto x = random_vec(in_ch * ih * iw, 5);
  const auto c = random_vec(cols, 7);
  std::vector<float> gathered(cols);
  kernels::im2col(x.data(), in_ch, ih, iw, k, pad, gathered.data());
  std::vector<float> scattered(x.size(), 0.0f);
  kernels::col2im(c.data(), in_ch, ih, iw, k, pad, scattered.data());
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < cols; ++i) lhs += static_cast<double>(gathered[i]) * c[i];
  for (std::size_t i = 0; i < x.size(); ++i) rhs += static_cast<double>(x[i]) * scattered[i];
  EXPECT_NEAR(lhs, rhs, 1e-3 * std::abs(lhs) + 1e-6);
}

namespace {

struct ConvCase {
  std::size_t batch, in_ch, out_ch, k, pad, ih, iw;
};

// k=1, pad>0, non-square, single-row output, empty batch.
const std::vector<ConvCase> kConvCases = {
    {2, 2, 3, 1, 0, 5, 7},   // 1x1 kernel
    {3, 1, 8, 3, 1, 9, 9},   // MNIST-style "same" conv
    {2, 3, 4, 5, 2, 8, 6},   // CIFAR-style, non-square
    {1, 2, 2, 3, 0, 3, 11},  // oh == 1: single output row
    {2, 1, 2, 3, 2, 1, 1},   // pad > spatial extent
    {0, 1, 2, 3, 1, 4, 4},   // empty batch
};

void run_conv_both_backends(const ConvCase& cc, Tensor* fwd_out, Tensor* gx_out,
                            std::vector<std::vector<float>>* grads,
                            kernels::Backend backend) {
  kernels::set_backend(backend);
  nn::Conv2D conv(cc.in_ch, cc.out_ch, cc.k, cc.pad);
  Rng rng(17);
  conv.init(rng);
  Tensor x(Shape{cc.batch, cc.in_ch, cc.ih, cc.iw},
           random_vec(cc.batch * cc.in_ch * cc.ih * cc.iw, 29));
  const Tensor y = conv.forward(x);
  Tensor gy(y.shape(), random_vec(y.numel(), 31));
  const Tensor gx = conv.backward(gy);
  *fwd_out = y;
  *gx_out = gx;
  grads->clear();
  for (nn::Param* p : conv.params()) grads->push_back(p->grad.vec());
}

}  // namespace

TEST(Kernels, ArenaReusesBuffersAcrossBatches) {
  KernelEnvGuard guard;
  kernels::set_backend(kernels::Backend::kVectorized);  // the im2col path
  nn::Conv2D conv(2, 4, 3, 1);
  Rng rng(9);
  conv.init(rng);
  Tensor x(Shape{4, 2, 8, 8}, random_vec(4 * 2 * 8 * 8, 41));
  const Tensor y = conv.forward(x);
  Tensor gy(y.shape(), random_vec(y.numel(), 43));
  (void)conv.backward(gy);
  // Arena test via behavior: repeated forward/backward must not change
  // results (scratch reuse is invisible) — run twice and compare.
  nn::Conv2D conv2(2, 4, 3, 1);
  Rng rng2(9);
  conv2.init(rng2);
  const Tensor y1 = conv2.forward(x);
  const Tensor y2 = conv2.forward(x);
  EXPECT_EQ(y1.vec(), y2.vec());
  EXPECT_EQ(y1.vec(), y.vec());
}

// Both tiers are bit-identical to themselves across reruns and across
// --threads widths: the vectorized lane split and reduction tree depend only
// on the reduction length, and the intra-op partition hands out complete
// output rows.
TEST(Kernels, IntraOpGemmBitIdenticalAcrossWidthsAndReruns) {
  KernelEnvGuard guard;
  const std::size_t m = 37, k = 53, n = 41;
  const auto a = random_vec(m * k, 51);
  const auto b = random_vec(k * n, 53);
  for (const auto be : kBothTiers) {
    kernels::set_backend(be);
    std::vector<std::vector<float>> results;
    for (const std::size_t width : {std::size_t{1}, std::size_t{1}, std::size_t{4}}) {
      runtime::set_global_threads(width);
      std::vector<float> c(m * n);
      kernels::sgemm(m, k, n, a.data(), b.data(), c.data());
      std::vector<float> ct(k * n);
      kernels::sgemm_transpose_a(m, k, n, a.data(), b.data(), ct.data());
      std::vector<float> cb(m * m);
      kernels::sgemm_transpose_b(m, k, m, a.data(), a.data(), cb.data());
      c.insert(c.end(), ct.begin(), ct.end());
      c.insert(c.end(), cb.begin(), cb.end());
      results.push_back(std::move(c));
    }
    EXPECT_EQ(results[0], results[1]) << "rerun at width 1, " << kernels::backend_name(be);
    EXPECT_EQ(results[0], results[2]) << "width 1 vs width 4, " << kernels::backend_name(be);
  }
}

TEST(Kernels, KernelsInsideParallelForDegradeToSequential) {
  KernelEnvGuard guard;
  runtime::set_global_threads(4);
  const std::size_t m = 16, k = 8, n = 8;
  const auto a = random_vec(m * k, 61);
  const auto b = random_vec(k * n, 67);
  for (const auto be : kBothTiers) {
    kernels::set_backend(be);
    std::vector<float> reference(m * n);
    kernels::sgemm(m, k, n, a.data(), b.data(), reference.data());
    // From inside a parallel_for body the kernel must not attempt nested
    // parallelism (which throws) and must produce the same bits.
    std::vector<std::vector<float>> per_slot(4, std::vector<float>(m * n));
    runtime::parallel_for(0, 4, 1, [&](std::size_t i) {
      kernels::sgemm(m, k, n, a.data(), b.data(), per_slot[i].data());
    });
    for (const auto& c : per_slot) EXPECT_EQ(c, reference) << kernels::backend_name(be);
  }
}

TEST(Kernels, PdslRoundLoopBitIdenticalAcrossWidths) {
  KernelEnvGuard guard;
  core::ExperimentConfig cfg;
  cfg.algorithm = "pdsl";
  cfg.dataset = "mnist_like";
  cfg.model = "mnist_cnn";
  cfg.agents = 4;
  cfg.rounds = 2;
  cfg.train_samples = 160;
  cfg.test_samples = 60;
  cfg.validation_samples = 40;
  cfg.image = 10;
  cfg.hp.batch = 8;
  cfg.hp.shapley_permutations = 2;
  cfg.hp.validation_batch = 16;
  cfg.metrics.eval_every = 0;
  cfg.seed = 7;
  for (const auto be : kBothTiers) {
    cfg.backend = be;
    cfg.threads = 1;
    const auto seq = core::run_experiment(cfg);
    cfg.threads = 4;
    const auto par = core::run_experiment(cfg);
    ASSERT_EQ(seq.average_model.size(), par.average_model.size());
    EXPECT_EQ(seq.average_model, par.average_model) << kernels::backend_name(be);
    EXPECT_EQ(sim::deterministic_mismatch(seq.series, par.series), "")
        << kernels::backend_name(be);
  }
}

// ---------------------------------------------------------------------------
// S-VEC: the vectorized fast tier. Not bit-identical to naive —
// it reassociates reductions (fixed lanes + fixed fold) and compiles with FMA
// contraction — so the differential contract is a tolerance band:
//   |got - want| <= abs + rel * |want|
// with abs scaled by the reduction depth (absolute error of a reassociated
// float sum grows with the number of terms, and cancellation makes a purely
// relative band meaningless near zero).
// ---------------------------------------------------------------------------

namespace {

void expect_within_band(const std::vector<float>& got, const std::vector<float>& want,
                        std::size_t depth, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  const float abs_tol = 1e-5f + 1e-6f * static_cast<float>(depth);
  const float rel_tol = 2e-4f;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float band = abs_tol + rel_tol * std::abs(want[i]);
    ASSERT_NEAR(got[i], want[i], band) << what << " element " << i << " depth " << depth;
  }
}

/// Run `fn` under `be` on fresh copies of the inputs and return C.
std::vector<float> run_gemm(RawGemm fn, kernels::Backend be, std::size_t m, std::size_t k,
                            std::size_t n, const std::vector<float>& a,
                            const std::vector<float>& b, const std::vector<float>& c_seed,
                            bool accumulate) {
  std::vector<float> c = c_seed;
  kernels::set_backend(be);
  fn(m, k, n, a.data(), b.data(), c.data(), accumulate);
  return c;
}

struct VecCase {
  const char* name;
  RawGemm fn;
  // (a, b, c) element counts and the reduction depth as functions of (m,k,n).
  std::size_t a_elems, b_elems, c_elems, depth;
};

std::vector<VecCase> vec_cases(std::size_t m, std::size_t k, std::size_t n) {
  return {
      {"sgemm", kernels::sgemm, m * k, k * n, m * n, k},
      {"sgemm_transpose_a", kernels::sgemm_transpose_a, m * k, m * n, k * n, m},
      // sgemm_transpose_b(m, n, k): A(m,n), B(k,n), C(m,k), reduces over n.
      {"sgemm_transpose_b", kernels::sgemm_transpose_b, m * k, n * k, m * n, k},
  };
}

}  // namespace

// Deterministic pseudo-random shape fuzz: every GEMM layout, both accumulate
// modes, shapes drawn to cover full tiles, ragged row/column tails, unit and
// zero dims. The vectorized result must sit inside the band around naive.
TEST(KernelsVec, FuzzRandomShapesWithinBandOfNaive) {
  KernelEnvGuard guard;
  Rng shape_rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    // Bias toward small shapes but include tile-straddling ones; every 8th
    // trial pins a dimension to 0 or 1 to hit the degenerate paths.
    auto dim = [&](int salt) {
      const auto r = shape_rng.uniform_int(0, 96);
      if (trial % 8 == salt) return static_cast<std::size_t>(trial % 16 == salt ? 0 : 1);
      return static_cast<std::size_t>(r);
    };
    const std::size_t m = dim(0), k = dim(1), n = dim(2);
    for (const auto& vc : vec_cases(m, k, n)) {
      for (const bool acc : {false, true}) {
        const auto a = random_vec(vc.a_elems, 101 + trial);
        const auto b = random_vec(vc.b_elems, 203 + trial);
        const auto c_seed = acc ? random_vec(vc.c_elems, 307 + trial)
                                : std::vector<float>(vc.c_elems, -7.0f);
        const auto want =
            run_gemm(vc.fn, kernels::Backend::kNaive, m, k, n, a, b, c_seed, acc);
        const auto got =
            run_gemm(vc.fn, kernels::Backend::kVectorized, m, k, n, a, b, c_seed, acc);
        expect_within_band(got, want, vc.depth, vc.name);
      }
    }
  }
}

// The fixed shape table (unit dims, tile-straddling 17/13/19, zero dims)
// through the vectorized tier: same band contract, plus the empty-range
// behavior (k == 0 with accumulate=false must still zero C).
TEST(KernelsVec, FixedShapeTableWithinBandOfNaive) {
  KernelEnvGuard guard;
  for (const auto& s : kShapes) {
    for (const auto& vc : vec_cases(s.m, s.k, s.n)) {
      for (const bool acc : {false, true}) {
        const auto a = random_vec(vc.a_elems, 11);
        const auto b = random_vec(vc.b_elems, 23);
        const auto c_seed =
            acc ? random_vec(vc.c_elems, 37) : std::vector<float>(vc.c_elems, -7.0f);
        const auto want =
            run_gemm(vc.fn, kernels::Backend::kNaive, s.m, s.k, s.n, a, b, c_seed, acc);
        const auto got = run_gemm(vc.fn, kernels::Backend::kVectorized, s.m, s.k, s.n, a,
                                  b, c_seed, acc);
        expect_within_band(got, want, vc.depth, vc.name);
      }
    }
  }
}

// Inf * 0 and NaN must survive the lane fold and the register tiles: seed a
// single pathological element at every alignment class within the first
// kVecColTile columns and check it lands in (exactly) the affected outputs.
TEST(KernelsVec, VectorizedPropagatesNanAndInfAtEveryLaneOffset) {
  KernelEnvGuard guard;
  kernels::set_backend(kernels::Backend::kVectorized);
  const std::size_t m = 5, k = 9, n = 11;
  for (std::size_t poison_col = 0; poison_col < n; ++poison_col) {
    auto a = random_vec(m * k, 81);
    auto b = random_vec(k * n, 83);
    b[3 * n + poison_col] = std::nanf("");
    std::vector<float> c(m * n);
    kernels::sgemm(m, k, n, a.data(), b.data(), c.data());
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(std::isnan(c[i * n + j]), j == poison_col)
            << "i=" << i << " j=" << j << " poison_col=" << poison_col;
      }
    }
  }
  // 0 * inf -> NaN through the dot-product kernel (no zero-skip shortcuts).
  std::vector<float> az(4 * 8, 0.0f);
  std::vector<float> binf(4 * 8, HUGE_VALF);
  std::vector<float> cd(4 * 4);
  kernels::sgemm_transpose_b(4, 8, 4, az.data(), binf.data(), cd.data(), false);
  for (const float v : cd) EXPECT_TRUE(std::isnan(v));
}

// Conv2D on the vectorized backend follows the im2col path; agreement with
// the naive direct convolution is banded like the underlying GEMMs.
TEST(KernelsVec, ConvVectorizedAgreesWithDirectWithinBand) {
  KernelEnvGuard guard;
  for (const auto& cc : kConvCases) {
    Tensor y_naive, gx_naive, y_vec, gx_vec;
    std::vector<std::vector<float>> g_naive, g_vec;
    run_conv_both_backends(cc, &y_naive, &gx_naive, &g_naive, kernels::Backend::kNaive);
    run_conv_both_backends(cc, &y_vec, &gx_vec, &g_vec, kernels::Backend::kVectorized);
    ASSERT_EQ(y_naive.shape(), y_vec.shape());
    const std::size_t depth = cc.in_ch * cc.k * cc.k;
    expect_within_band(y_vec.vec(), y_naive.vec(), depth, "conv forward");
    expect_within_band(gx_vec.vec(), gx_naive.vec(), depth, "conv grad_input");
    ASSERT_EQ(g_naive.size(), g_vec.size());
    for (std::size_t p = 0; p < g_naive.size(); ++p) {
      expect_within_band(g_vec[p], g_naive[p], cc.batch * cc.ih * cc.iw, "conv param grad");
    }
  }
}
