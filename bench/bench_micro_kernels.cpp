// Microbenchmarks for the hot kernels underneath the experiments. Two parts:
//
//  1. The S-KER naive-vs-vectorized sweep (default): GEMM and convolution
//     timings of the reference and the fast tier at the MNIST-CNN and
//     CIFAR-CNN layer shapes, written as a speedup table to
//     BENCH_kernels.json (override with --out). Two acceptance signals: the
//     vectorized conv forward+backward speedup at the CIFAR-CNN shapes
//     (S-KER) and the vectorized single-thread speedup at the square GEMM
//     shapes, gated at >= 1.3x (S-VEC; waived, and recorded as such, when
//     the host has a single core). `--threads N` additionally times the
//     vectorized backend at an intra-op width of N (top-level kernels only;
//     inside the round loop's per-agent phases kernels stay sequential).
//     Flags: --out <path> --reps <n> --threads <n>
//
//  2. The original google-benchmark suite (matmul, model gradients, DP
//     mechanism, Shapley, QP, gossip): pass --gbench to run it (with
//     google-benchmark's default options).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "dp/mechanism.hpp"
#include "dp/noise.hpp"
#include "graph/mixing.hpp"
#include "kernels/backend.hpp"
#include "kernels/gemm.hpp"
#include "nn/conv2d.hpp"
#include "nn/model_zoo.hpp"
#include "optim/qp.hpp"
#include "runtime/parallel_for.hpp"
#include "shapley/game.hpp"
#include "shapley/shapley.hpp"
#include "tensor/ops.hpp"

using namespace pdsl;

// ---------------------------------------------------------------------------
// S-KER sweep
// ---------------------------------------------------------------------------

namespace {

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  rng.fill_normal(v, 0.0, 1.0);
  return v;
}

/// Best-of-3 trials of `reps` calls each; returns ms per call.
template <typename F>
double time_ms(std::size_t reps, F&& fn) {
  double best = 1e30;
  for (int trial = 0; trial < 3; ++trial) {
    Stopwatch sw;
    for (std::size_t r = 0; r < reps; ++r) fn();
    best = std::min(best, sw.elapsed_ms() / static_cast<double>(reps));
  }
  return best;
}

struct SweepRow {
  std::string name;
  std::string kind;   // "gemm" | "conv"
  std::string shape;  // human-readable
  double naive_ms = 0.0;
  double vec_ms = 0.0;     // S-VEC register-tiled backend
  double vec_mt_ms = 0.0;  // vectorized at --threads width (0 = not run)
};

struct GemmShape {
  const char* name;
  std::size_t m, k, n;
};

struct ConvShape {
  const char* name;
  std::size_t batch, in_ch, out_ch, k, pad, image;
};

// The two CNNs of the paper's evaluation (model_zoo): conv layer geometries
// at their bench batch size, plus the fully-connected heads as GEMM shapes.
const GemmShape kGemmShapes[] = {
    {"gemm_square_64", 64, 64, 64},
    {"gemm_square_128", 128, 128, 128},
    {"gemm_square_256", 256, 256, 256},
    {"gemm_mnist_fc", 32, 144, 10},   // Linear(16*3*3 -> 10), batch 32
    {"gemm_cifar_fc1", 32, 256, 64},  // Linear(16*4*4 -> 64), batch 32
};

const ConvShape kConvShapes[] = {
    {"conv_mnist_l1", 32, 1, 8, 3, 1, 14},   // make_mnist_cnn(14): conv1
    {"conv_mnist_l2", 32, 8, 16, 3, 1, 7},   // conv2 after pool
    {"conv_cifar_l1", 32, 3, 8, 5, 2, 16},   // make_cifar_cnn(16): conv1
    {"conv_cifar_l2", 32, 8, 16, 5, 2, 8},   // conv2 after pool
};

double run_gemm_once(const GemmShape& s, const std::vector<float>& a,
                     const std::vector<float>& b, std::vector<float>& c) {
  kernels::sgemm(s.m, s.k, s.n, a.data(), b.data(), c.data());
  return static_cast<double>(c[0]);
}

SweepRow sweep_gemm(const GemmShape& s, std::size_t reps, std::size_t threads) {
  const auto a = random_vec(s.m * s.k, 1);
  const auto b = random_vec(s.k * s.n, 2);
  std::vector<float> c(s.m * s.n);
  SweepRow row;
  row.name = s.name;
  row.kind = "gemm";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%zux%zux%zu", s.m, s.k, s.n);
  row.shape = buf;
  runtime::set_global_threads(1);
  kernels::set_backend(kernels::Backend::kNaive);
  row.naive_ms = time_ms(reps, [&] { benchmark::DoNotOptimize(run_gemm_once(s, a, b, c)); });
  kernels::set_backend(kernels::Backend::kVectorized);
  row.vec_ms = time_ms(reps, [&] { benchmark::DoNotOptimize(run_gemm_once(s, a, b, c)); });
  if (threads > 1) {
    runtime::set_global_threads(threads);
    row.vec_mt_ms = time_ms(reps, [&] { benchmark::DoNotOptimize(run_gemm_once(s, a, b, c)); });
    runtime::set_global_threads(1);
  }
  return row;
}

SweepRow sweep_conv(const ConvShape& s, std::size_t reps, std::size_t threads) {
  nn::Conv2D conv(s.in_ch, s.out_ch, s.k, s.pad);
  Rng rng(3);
  conv.init(rng);
  Tensor x(Shape{s.batch, s.in_ch, s.image, s.image},
           random_vec(s.batch * s.in_ch * s.image * s.image, 4));
  const Shape out_shape = conv.output_shape(x.shape());
  Tensor gy(out_shape, random_vec(shape_numel(out_shape), 5));
  // One rep = forward + backward, the unit of work every SGD step pays per
  // layer. Parameter grads are cleared each rep so they cannot drift to inf.
  auto step = [&] {
    for (nn::Param* p : conv.params()) p->grad.zero();
    const Tensor y = conv.forward(x);
    benchmark::DoNotOptimize(conv.backward(gy));
    benchmark::DoNotOptimize(y[0]);
  };
  SweepRow row;
  row.name = s.name;
  row.kind = "conv";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "b%zu %zux%zux%zu k%zu p%zu -> %zuch", s.batch, s.in_ch,
                s.image, s.image, s.k, s.pad, s.out_ch);
  row.shape = buf;
  runtime::set_global_threads(1);
  kernels::set_backend(kernels::Backend::kNaive);
  row.naive_ms = time_ms(reps, step);
  kernels::set_backend(kernels::Backend::kVectorized);
  row.vec_ms = time_ms(reps, step);
  if (threads > 1) {
    runtime::set_global_threads(threads);
    row.vec_mt_ms = time_ms(reps, step);
    runtime::set_global_threads(1);
  }
  return row;
}

int run_kernel_sweep(const CliArgs& args) {
  const std::string out_path = args.get_string("out", "BENCH_kernels.json");
  const auto reps = static_cast<std::size_t>(args.get_int("reps", 20));
  const auto threads = static_cast<std::size_t>(args.get_int("threads", 1));
  const kernels::Backend entry_backend = kernels::backend();

  std::printf(
      "==== bench_micro_kernels: naive vs vectorized (reps=%zu, threads=%zu) ====\n", reps,
      threads);
  std::printf("%-16s %-24s %12s %12s %9s\n", "kernel", "shape", "naive_ms", "vec_ms",
              "vec_spd");

  std::vector<SweepRow> rows;
  for (const auto& s : kGemmShapes) rows.push_back(sweep_gemm(s, reps, threads));
  for (const auto& s : kConvShapes) rows.push_back(sweep_conv(s, reps, threads));
  kernels::set_backend(entry_backend);

  pdsl::bench::BenchEnvelope env("kernels", "micro");
  {
    pdsl::json::Object c;
    c["reps"] = reps;
    c["threads"] = threads;
    c["conv_unit"] = std::string("forward+backward per batch");
    env.set_config(std::move(c));
  }

  double cifar_conv_min_speedup = 1e30;
  double square_gemm_vec_min_speedup = 1e30;
  for (const auto& r : rows) {
    const double vec_speedup = r.vec_ms > 0 ? r.naive_ms / r.vec_ms : 0.0;
    if (r.name.rfind("conv_cifar", 0) == 0) {
      cifar_conv_min_speedup = std::min(cifar_conv_min_speedup, vec_speedup);
    }
    if (r.name.rfind("gemm_square", 0) == 0) {
      square_gemm_vec_min_speedup = std::min(square_gemm_vec_min_speedup, vec_speedup);
    }
    std::printf("%-16s %-24s %12.4f %12.4f %8.2fx\n", r.name.c_str(), r.shape.c_str(),
                r.naive_ms, r.vec_ms, vec_speedup);
    env.add_metric_sample(r.name + ".naive_ms", "ms", r.naive_ms);
    env.add_metric_sample(r.name + ".vec_ms", "ms", r.vec_ms);
    env.add_metric_sample(r.name + ".vec_speedup", "x", vec_speedup);
    pdsl::json::Object o;
    o["name"] = r.name;
    o["kind"] = r.kind;
    o["shape"] = r.shape;
    o["naive_ms"] = r.naive_ms;
    o["vec_ms"] = r.vec_ms;
    o["vec_speedup"] = vec_speedup;
    if (r.vec_mt_ms > 0) {
      o["vec_mt_ms"] = r.vec_mt_ms;
      o["speedup_mt_vs_naive"] = r.naive_ms / r.vec_mt_ms;
    }
    env.add_run(std::move(o));
  }
  env.add_metric_sample("cifar_conv_min_speedup", "x", cifar_conv_min_speedup);
  env.add_metric_sample("square_gemm_vec_min_speedup", "x", square_gemm_vec_min_speedup);

  // Two acceptance contracts. S-KER: vectorized conv must beat naive at the
  // CIFAR-CNN shapes. S-VEC: the register-tiled backend must clear 1.3x over
  // naive on the square GEMM shapes single-threaded — except on a single-core
  // host, where scheduler contention makes the timing unreliable; there the
  // gate is waived and the waiver recorded in the envelope.
  const unsigned host_cores = std::thread::hardware_concurrency();
  const bool vec_gate_met = square_gemm_vec_min_speedup >= 1.3;
  const bool vec_gate_waived = !vec_gate_met && host_cores <= 1;
  pdsl::json::Object gate;
  gate["cifar_conv_min_speedup"] = cifar_conv_min_speedup;
  gate["square_gemm_vec_min_speedup"] = square_gemm_vec_min_speedup;
  gate["square_gemm_vec_threshold"] = 1.3;
  gate["host_cores"] = static_cast<std::size_t>(host_cores);
  gate["vec_gate_waived_single_core"] = vec_gate_waived;
  gate["passed"] = cifar_conv_min_speedup > 1.0 && (vec_gate_met || vec_gate_waived);
  env.set_acceptance(std::move(gate), !vec_gate_waived);
  if (!env.write(out_path)) return 1;
  std::printf("cifar conv min speedup: %.2fx\n", cifar_conv_min_speedup);
  std::printf("square gemm vectorized min speedup: %.2fx (gate >=1.3x: %s)\n",
              square_gemm_vec_min_speedup,
              vec_gate_met ? "passed" : (vec_gate_waived ? "waived, 1-core host" : "FAILED"));
  return 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// google-benchmark suite (run with --gbench)
// ---------------------------------------------------------------------------

static void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Tensor a(Shape{n, n}), b(Shape{n, n});
  rng.fill_normal(a.vec(), 0.0, 1.0);
  rng.fill_normal(b.vec(), 0.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128);

static void BM_MnistCnnGradient(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  nn::Model m = nn::make_mnist_cnn(14, 1, 10);
  m.init(rng);
  Tensor x(Shape{batch, 1, 14, 14});
  rng.fill_normal(x.vec(), 0.0, 1.0);
  std::vector<int> y(batch);
  for (std::size_t i = 0; i < batch; ++i) y[i] = static_cast<int>(i % 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.loss_and_backward(x, y));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_MnistCnnGradient)->Arg(8)->Arg(32);

static void BM_MlpGradient(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  nn::Model m = nn::make_mlp(100, 32, 10);
  m.init(rng);
  Tensor x(Shape{batch, 1, 10, 10});
  rng.fill_normal(x.vec(), 0.0, 1.0);
  std::vector<int> y(batch);
  for (std::size_t i = 0; i < batch; ++i) y[i] = static_cast<int>(i % 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.loss_and_backward(x, y));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_MlpGradient)->Arg(16)->Arg(64)->Arg(256);

static void BM_Privatize(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  std::vector<float> g(d);
  rng.fill_normal(g, 0.0, 1.0);
  dp::ReleaseKey key{4, 0, 0, dp::ReleaseKind::kSelf, 0};
  for (auto _ : state) {
    ++key.round;
    benchmark::DoNotOptimize(dp::privatize(g, 1.0, 0.1, key));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d));
}
BENCHMARK(BM_Privatize)->Arg(1000)->Arg(10000)->Arg(100000);

// The noise of one release at the paper's MLP size (d = 6634): the per-draw
// std::normal_distribution loop releases ran before noise was keyed, against
// the keyed fill that replaced it. Both report time_per_draw (e.g. "2.5ns").
static void set_time_per_draw(benchmark::State& state, std::size_t d) {
  state.counters["time_per_draw"] =
      benchmark::Counter(static_cast<double>(state.iterations()) * static_cast<double>(d),
                         benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

static void BM_GaussianNoiseStdNormal(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  std::vector<float> g(d, 0.0f);
  Rng rng(6);
  for (auto _ : state) {
    for (auto& v : g) {
      std::normal_distribution<double> dist(0.0, 0.1);
      v += static_cast<float>(dist(rng.engine()));
    }
    benchmark::DoNotOptimize(g.data());
    benchmark::ClobberMemory();
  }
  set_time_per_draw(state, d);
}
BENCHMARK(BM_GaussianNoiseStdNormal)->Arg(6634);

static void BM_GaussianNoiseKeyed(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  std::vector<float> g(d, 0.0f);
  std::uint64_t key = 6;
  for (auto _ : state) {
    dp::add_keyed_gaussian(g.data(), d, 0.1f, ++key);
    benchmark::DoNotOptimize(g.data());
    benchmark::ClobberMemory();
  }
  set_time_per_draw(state, d);
}
BENCHMARK(BM_GaussianNoiseKeyed)->Arg(6634);

static void BM_MonteCarloShapley(benchmark::State& state) {
  const auto players = static_cast<std::size_t>(state.range(0));
  const auto perms = static_cast<std::size_t>(state.range(1));
  Rng rng(5);
  for (auto _ : state) {
    shapley::Game game(players, shapley::batch_of([](const std::vector<std::size_t>& c) {
      double v = 0.0;
      for (std::size_t p : c) v += static_cast<double>(p + 1);
      return v / 100.0;
    }));
    benchmark::DoNotOptimize(shapley::monte_carlo_shapley(game, perms, rng));
  }
}
BENCHMARK(BM_MonteCarloShapley)->Args({6, 8})->Args({10, 8})->Args({20, 10});

static void BM_ExactShapley(benchmark::State& state) {
  const auto players = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    shapley::Game game(players, shapley::batch_of([](const std::vector<std::size_t>& c) {
      double v = 0.0;
      for (std::size_t p : c) v += static_cast<double>(p + 1);
      return v / 100.0;
    }));
    benchmark::DoNotOptimize(shapley::exact_shapley(game));
  }
}
BENCHMARK(BM_ExactShapley)->Arg(4)->Arg(8)->Arg(12);

static void BM_MinNormQp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  std::vector<std::vector<float>> grads(n, std::vector<float>(512));
  for (auto& g : grads) rng.fill_normal(g, 0.0, 1.0);
  optim::MinNormSolver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(grads));
  }
}
BENCHMARK(BM_MinNormQp)->Arg(5)->Arg(10)->Arg(20);

static void BM_GossipMix(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto topo = graph::Topology::make(graph::TopologyKind::kRing, m);
  const auto w = graph::MixingMatrix::metropolis(topo);
  std::vector<double> x(m, 1.0);
  x[0] = static_cast<double>(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(x = w.apply(x));
  }
}
BENCHMARK(BM_GossipMix)->Arg(10)->Arg(50)->Arg(200);

int main(int argc, char** argv) {
  const CliArgs args(argc, argv, {"out", "reps", "threads", "gbench"});
  const int rc = run_kernel_sweep(args);
  if (rc != 0) return rc;
  if (args.get_bool("gbench", false)) {
    int bench_argc = 1;
    benchmark::Initialize(&bench_argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
