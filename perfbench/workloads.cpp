#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "nn/model_zoo.hpp"
#include "obs/metrics.hpp"
#include "runtime/parallel_for.hpp"
#include "sim/evaluate.hpp"
#include "sim/metrics.hpp"

namespace perfbench {

namespace core = pdsl::core;

namespace {

/// Current resident set size, from /proc/self/statm.
double resident_mb() {
  std::ifstream statm("/proc/self/statm");
  double pages = 0.0, resident = 0.0;
  statm >> pages >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::uint64_t fnv1a_step(std::uint64_t h, double v) {
  unsigned char bytes[sizeof(double)];
  std::memcpy(bytes, &v, sizeof(double));
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::atomic<double> calibration_sink{0.0};  // keeps the reference kernel's result live

}  // namespace

double wall_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double calibration_ms(std::size_t threads) {
  constexpr std::size_t kN = 64;             // matrix side
  constexpr std::size_t kStream = 1u << 20;  // floats streamed (4 MiB)
  struct Buffers {
    std::vector<float> a = std::vector<float>(kN * kN, 0.5f);
    std::vector<float> b = std::vector<float>(kN * kN, 0.25f);
    std::vector<float> c = std::vector<float>(kN * kN);
    std::vector<float> stream = std::vector<float>(kStream, 1.0f);
  };
  static std::vector<Buffers> buffers;  // one set per calibration thread, kept
  if (buffers.size() < threads) buffers.resize(threads);
  const auto kernel = [](Buffers& m) {
    // Pass 0 warms the caches the program just used; only pass 1 is timed,
    // so the figure tracks the host's speed and not the cache state left
    // behind.
    double acc = 0.0;
    double t0 = 0.0;
    for (int pass = 0; pass < 2; ++pass) {
      if (pass == 1) t0 = wall_s();
      std::fill(m.c.begin(), m.c.end(), 0.0f);
      for (std::size_t i = 0; i < kN; ++i) {
        for (std::size_t k = 0; k < kN; ++k) {
          const float aik = m.a[i * kN + k];
          for (std::size_t j = 0; j < kN; ++j) m.c[i * kN + j] += aik * m.b[k * kN + j];
        }
      }
      float s = 0.0f;
      for (std::size_t i = 0; i < kStream; i += 4) {
        s += m.stream[i] + m.stream[i + 1] + m.stream[i + 2];
      }
      acc += s + m.c[kN + 1];
      for (int i = 1; i <= 4096; ++i) {
        acc += std::sqrt(std::log(static_cast<double>(i) + acc * 1e-9));
      }
    }
    calibration_sink.store(acc, std::memory_order_relaxed);
    return 1e3 * (wall_s() - t0);
  };
  std::vector<double> ms(threads, 0.0);
  std::vector<std::thread> helpers;
  for (std::size_t t = 1; t < threads; ++t) {
    helpers.emplace_back([&, t] { ms[t] = kernel(buffers[t]); });
  }
  ms[0] = kernel(buffers[0]);
  for (auto& h : helpers) h.join();
  return *std::max_element(ms.begin(), ms.end());
}

namespace {

// Workload seeds: the benchmark seed picks the data, partition, noise and
// fault streams; the offset keeps seed 0 valid and distinct per workload.
std::uint64_t derive_seed(std::uint64_t bench_seed, std::uint64_t salt) {
  return 1 + bench_seed * 7919 + salt;
}

Workload mnist_full8(std::uint64_t seed) {
  Workload w;
  w.name = "mnist_full8";
  auto& c = w.cfg;
  c.algorithm = "pdsl";
  c.dataset = "mnist_like";
  c.model = "mlp";  // 196 -> 32 -> 10: d = 6634
  c.topology = "full";
  c.agents = 8;
  c.rounds = 36;
  c.train_samples = 3000;
  c.test_samples = 600;
  c.validation_samples = 400;
  c.image = 14;
  c.hidden = 32;
  c.mu = 0.25;
  c.hp.batch = 32;
  c.hp.gamma = 0.02;
  c.hp.alpha = 0.5;
  c.hp.clip = 1.0;
  c.hp.shapley_permutations = 8;
  c.hp.validation_batch = 48;
  c.epsilon = 0.1;
  c.delta = 1e-3;
  c.sigma_mode = "dpsgd";
  c.noise_scale = 0.15;
  c.threads = 1;
  c.metrics.test_subsample = 300;
  c.metrics.eval_every = 10;
  c.seed = derive_seed(seed, 11);
  // Met around round 20-27 of 36: the second half of every repetition.
  w.target_loss = 0.1;
  w.quality_seeds = 16;
  return w;
}

Workload cifar_ring8_t2(std::uint64_t seed) {
  Workload w;
  w.name = "cifar_ring8_t2";
  auto& c = w.cfg;
  c.algorithm = "pdsl";
  c.dataset = "cifar_like";
  c.model = "cifar_cnn";
  c.topology = "ring";
  c.agents = 8;
  c.rounds = 40;
  c.train_samples = 2400;
  c.test_samples = 400;
  c.validation_samples = 300;
  c.image = 8;
  c.mu = 0.25;
  c.hp.batch = 16;
  c.hp.gamma = 0.01;
  c.hp.alpha = 0.7;
  c.hp.clip = 1.0;
  c.hp.shapley_permutations = 8;
  c.hp.validation_batch = 32;
  c.epsilon = 0.1;
  c.delta = 1e-3;
  c.sigma_mode = "dpsgd";
  c.noise_scale = 0.05;
  c.threads = 2;
  c.metrics.test_subsample = 200;
  c.metrics.eval_every = 10;
  c.seed = derive_seed(seed, 23);
  // Met around round 23-32 of 40.
  w.target_loss = 2.0;
  w.quality_seeds = 2;
  return w;
}

Workload fleet_lossy_t2(std::uint64_t seed) {
  Workload w;
  w.name = "fleet_lossy_t2";
  auto& c = w.cfg;
  c.algorithm = "pdsl";
  c.dataset = "mnist_like";
  c.model = "logistic";
  c.topology = "regular";
  c.agents = 256;
  c.rounds = 150;
  c.train_samples = 4096;
  c.test_samples = 400;
  c.validation_samples = 300;
  c.image = 10;
  c.partition = "iid";
  c.hp.batch = 16;
  c.hp.gamma = 0.05;
  c.hp.alpha = 0.5;
  c.hp.clip = 1.0;
  c.hp.shapley_permutations = 6;
  c.hp.validation_batch = 32;
  c.sigma_mode = "none";
  c.threads = 2;
  c.fleet.sparse = true;
  c.fleet.degree = 4;
  c.fleet.participation.mode = pdsl::fleet::ParticipationMode::kSampled;
  c.fleet.participation.active = 48;
  c.fleet.lazy_state = true;
  c.fleet.worker_cache = 96;
  c.fleet.wire_roundtrip = true;
  c.channel.corrupt_prob = 0.10;
  c.channel.duplicate_prob = 0.05;
  c.channel.reorder_prob = 0.05;
  // Enough retries that no message is ever lost (0.1^9 per message): every
  // corruption is detected and recovered, so no operation fails.
  c.channel.max_retries = 8;
  c.crash.crash_prob = 0.005;
  c.crash.snapshot_every = 5;
  c.metrics.metric_agents = 32;
  c.metrics.test_subsample = 200;
  c.metrics.eval_every = 10;
  c.seed = derive_seed(seed, 37);
  // Met around round 60-80 of 150.
  w.target_loss = 0.6;
  w.quality_seeds = 16;
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "mnist_full8") return mnist_full8(seed);
  if (name == "cifar_ring8_t2") return cifar_ring8_t2(seed);
  if (name == "fleet_lossy_t2") return fleet_lossy_t2(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

Workload with_quality_seed(const Workload& w, std::size_t j) {
  Workload out = w;
  out.cfg.seed = w.cfg.seed + 1000003ULL * j;
  return out;
}

std::unique_ptr<Built> build(const core::ExperimentConfig& cfg, SetupTimes& times,
                             SpanRecorder* spans) {
  using namespace pdsl;
  auto b = std::make_unique<Built>();
  runtime::set_global_threads(cfg.threads);
  Rng rng(cfg.seed);

  double t0 = wall_s();
  {
    ScopedSpan s(spans, "setup.data", "setup");
    const std::size_t total = cfg.train_samples + cfg.test_samples + cfg.validation_samples;
    data::SyntheticSpec spec = cfg.dataset == "cifar_like"
                                   ? data::cifar_like_spec(total, cfg.image, cfg.seed)
                                   : data::mnist_like_spec(total, cfg.image, cfg.seed);
    const data::Dataset pool = data::make_synthetic_images(spec);
    auto [train_and_val, test] = data::split_off(pool, cfg.test_samples, rng);
    auto [train, validation] = data::split_off(train_and_val, cfg.validation_samples, rng);
    b->train = std::move(train);
    b->validation = std::move(validation);
    b->test = std::move(test);
  }
  double t1 = wall_s();
  times.data_s = t1 - t0;

  {
    ScopedSpan s(spans, "setup.partition", "setup");
    Rng part_rng = rng.split(0x9A27);
    if (cfg.partition == "iid") {
      b->partition = data::iid_partition(b->train, cfg.agents, part_rng);
    } else {
      data::PartitionOptions popts;
      popts.mu = cfg.mu;
      popts.min_per_agent = std::max<std::size_t>(2, cfg.hp.batch / 4);
      b->partition = data::dirichlet_partition(b->train, cfg.agents, popts, part_rng);
    }
  }
  t0 = wall_s();
  times.partition_s = t0 - t1;

  cfg.fleet.validate(cfg.agents);
  const graph::TopologyView* topo_v = nullptr;
  const graph::MixingView* mix_v = nullptr;
  {
    ScopedSpan s(spans, "setup.graph", "setup");
    if (cfg.fleet.sparse) {
      b->sparse_topo.emplace(cfg.topology == "ring"
                                 ? fleet::SparseGraph::ring(cfg.agents)
                                 : fleet::SparseGraph::regular(cfg.agents, cfg.fleet.degree));
      b->sparse_mixing.emplace(*b->sparse_topo);
      topo_v = &*b->sparse_topo;
      mix_v = &*b->sparse_mixing;
    } else {
      Rng topo_rng = rng.split(0x70B0);
      b->dense_topo.emplace(graph::Topology::make(graph::topology_from_string(cfg.topology),
                                                  cfg.agents, &topo_rng));
      b->dense_mixing.emplace(graph::MixingMatrix::metropolis(*b->dense_topo));
      topo_v = &*b->dense_topo;
      mix_v = &*b->dense_mixing;
    }
  }
  t1 = wall_s();
  times.graph_s = t1 - t0;

  {
    ScopedSpan s(spans, "setup.algo", "setup");
    b->model_template.emplace(nn::make_model(cfg.model, cfg.image,
                                             cfg.dataset == "cifar_like" ? 3 : 1,
                                             b->train.num_classes(), cfg.hidden));
    algos::HyperParams hp = cfg.hp;
    if (cfg.sigma_mode == "none") {
      hp.sigma = 0.0;
    } else {
      if (!b->dense_mixing) {
        throw std::invalid_argument("perfbench: DP noise needs a dense topology");
      }
      hp.sigma = core::calibrate_sigma(cfg, *b->dense_mixing) * cfg.noise_scale;
    }
    algos::Env& env = b->env;
    env.topo = topo_v;
    env.mixing = mix_v;
    env.train = &b->train;
    env.validation = &b->validation;
    env.model_template = &*b->model_template;
    env.partition = &b->partition;
    env.hp = hp;
    env.seed = cfg.seed;
    env.dp_delta = cfg.delta;
    env.drop_prob = cfg.drop_prob;
    env.faults = cfg.faults;
    env.adversary = cfg.adversary;
    env.channel = cfg.channel;
    env.channel.validate();
    env.crash = cfg.crash;
    env.crash.validate();
    env.defense = cfg.defense;
    env.fleet = cfg.fleet;
    b->alg = core::make_algorithm(cfg.algorithm, env);
    if (cfg.crash.any()) {
      sim::CrashPlan plan = cfg.crash;
      if (plan.seed == 0) plan.seed = cfg.seed;
      recovery::RecoveryOptions ropts;
      ropts.snapshot_dir = cfg.recovery_dir;
      b->recov.emplace(plan, ropts);
      b->alg->set_recovery(&*b->recov);
    }
  }
  times.algo_s = wall_s() - t1;
  return b;
}

void drive(Built& b, const Workload& w, Repetition& rep, SpanRecorder* spans) {
  using namespace pdsl;
  algos::Algorithm& alg = *b.alg;
  const core::ExperimentConfig& cfg = w.cfg;
  const algos::MetricsOptions& opts = cfg.metrics;
  const auto& hp = alg.env().hp;
  const std::size_t n = alg.num_agents();
  const std::size_t eval_agents =
      opts.metric_agents == 0 ? n : std::min(n, opts.metric_agents);
  nn::Model eval_ws = *alg.env().model_template;
  // Privacy trajectory exactly as run_with_metrics composes it.
  const double sensitivity = hp.batch > 0 ? 2.0 * hp.clip / static_cast<double>(hp.batch) : 0.0;
  const double noise_multiplier =
      (hp.sigma > 0.0 && sensitivity > 0.0) ? hp.sigma / sensitivity : 0.0;
  dp::RdpAccountant accountant;

  rep.rounds.clear();
  rep.rounds.reserve(cfg.rounds);
  rep.loss_hash = 0xCBF29CE484222325ULL;
  double last_acc = 0.0;
  double last_test_loss = 0.0;
  // Every dp::privatize release clips first, so the library's clip counter
  // read around run_round counts the round's releases.
  const obs::Counter& clips = obs::MetricsRegistry::global().counter("grad.clip_total");
  const double loop_start = wall_s();
  double aside_s = 0.0;  // benchmark bookkeeping, kept out of loop times
  for (std::size_t t = 1; t <= cfg.rounds; ++t) {
    RoundSample r;
    alg.reset_phase_timings();
    const std::uint64_t clips_before = clips.value();
    {
      ScopedSpan s(spans, "run_round", "round", static_cast<std::int64_t>(t));
      r.round_span = s.id();
      const double a = wall_s();
      alg.run_round(t);
      r.round_ms = 1e3 * (wall_s() - a);
    }
    r.releases = static_cast<std::size_t>(clips.value() - clips_before);
    r.phases = alg.phase_timings();
    {
      ScopedSpan s(spans, "eval.loss", "metric", static_cast<std::int64_t>(t));
      const double a = wall_s();
      double loss_acc = 0.0;
      for (std::size_t i = 0; i < eval_agents; ++i) {
        loss_acc += alg.worker(i).local_eval_loss(alg.models()[i]);
      }
      r.avg_loss = loss_acc / static_cast<double>(eval_agents);
      (void)sim::consensus_distance(alg.models());
      r.eval_loss_ms = 1e3 * (wall_s() - a);
    }
    if (opts.eval_every != 0 && (t % opts.eval_every == 0 || t == cfg.rounds)) {
      ScopedSpan s(spans, "eval.test", "metric", static_cast<std::int64_t>(t));
      const double a = wall_s();
      double acc = 0.0;
      double loss = 0.0;
      for (std::size_t i = 0; i < eval_agents; ++i) {
        const sim::EvalResult e = sim::evaluate(eval_ws, alg.models()[i], b.test, opts.test_subsample);
        acc += e.accuracy;
        loss += e.loss;
      }
      last_acc = acc / static_cast<double>(eval_agents);
      last_test_loss = loss / static_cast<double>(eval_agents);
      r.eval_test_ms = 1e3 * (wall_s() - a);
    }
    if (noise_multiplier > 0.0) accountant.add_gaussian(noise_multiplier, 1);
    const double aside = wall_s();
    r.loop_s = aside - loop_start - aside_s;

    // Counts for the per-layer report; outside the timed calls above.
    for (std::size_t i = 0; i < n; ++i) {
      if (alg.agent_active(i)) ++r.active;
    }
    if (const auto st = alg.shapley_round_stats()) {
      r.shapley_evals = st->coalition_evals;
      r.shapley_perms = st->permutations_used;
    }
    r.participants = alg.participants();
    rep.crashes += alg.fault_stats().crashed_agents;
    rep.resyncs += alg.fault_stats().resynced_agents;
    rep.samples += r.active * hp.batch;
    rep.resident_mb = std::max(rep.resident_mb, resident_mb());
    if (!std::isfinite(r.avg_loss)) ++rep.nonfinite_rounds;
    rep.loss_hash = fnv1a_step(rep.loss_hash, r.avg_loss);
    if (!rep.time_to_target_s && r.avg_loss <= w.target_loss) {
      rep.time_to_target_s = r.loop_s;
    }
    rep.rounds.push_back(r);
    aside_s += wall_s() - aside;
  }
  rep.loop_s = wall_s() - loop_start - aside_s;

  const sim::Network& net = alg.network();
  rep.final_loss = rep.rounds.back().avg_loss;
  rep.final_acc = last_acc;
  rep.final_test_loss = last_test_loss;
  rep.epsilon_spent = noise_multiplier > 0.0 ? accountant.epsilon(alg.env().dp_delta) : 0.0;
  rep.messages = net.messages_sent();
  rep.bytes = net.bytes_sent();
  rep.wire_messages = net.wire_messages();
  rep.wire_bytes = net.wire_bytes();
  rep.dropped = net.messages_dropped();
  rep.retransmits = net.retransmits();
  rep.corruptions_detected = net.corruptions_detected();
  rep.retry_exhausted = net.retry_exhausted();
  rep.workers_peak = alg.workers_peak();
  rep.models_materialized = alg.models_materialized();
}

}  // namespace perfbench
