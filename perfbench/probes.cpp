#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>

#include "dp/mechanism.hpp"
#include "fleet/wire.hpp"
#include "kernels/gemm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "runtime/parallel_for.hpp"
#include "sim/evaluate.hpp"
#include "sim/network.hpp"

namespace perfbench {

namespace {

using namespace pdsl;

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median microseconds per call of `op` over five batches, each at least
/// `batch_ms` long after a calibration pass.
double us_per_call(const std::function<void()>& op, double batch_ms = 10.0) {
  std::size_t reps = 1;
  for (;;) {
    const double a = now_us();
    for (std::size_t r = 0; r < reps; ++r) op();
    const double el = now_us() - a;
    if (el >= 1e3 * batch_ms || reps >= (1u << 24)) break;
    reps *= 2;
  }
  std::vector<double> per;
  for (int k = 0; k < 5; ++k) {
    const double a = now_us();
    for (std::size_t r = 0; r < reps; ++r) op();
    per.push_back((now_us() - a) / static_cast<double>(reps));
  }
  std::sort(per.begin(), per.end());
  return per[per.size() / 2];
}

/// Layers of the model, cloned so forward/backward can run on them, each with
/// the input it sees on a real batch.
struct LayerAtShape {
  std::unique_ptr<nn::Layer> layer;
  Tensor input;
};

std::vector<LayerAtShape> layers_at_batch(const nn::Model& model, const Tensor& x0) {
  std::vector<LayerAtShape> out;
  Tensor x = x0;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    LayerAtShape l{model.layer(i).clone(), x};
    x = l.layer->forward(x);
    out.push_back(std::move(l));
  }
  return out;
}

}  // namespace

std::map<std::string, double> run_probes(Built& b, const Workload& w, SpanRecorder* spans) {
  std::map<std::string, double> out;
  algos::Algorithm& alg = *b.alg;
  const auto& hp = alg.env().hp;
  const nn::Model& tmpl = *b.model_template;
  const std::size_t d = tmpl.num_params();
  const std::vector<float>& live = alg.models()[0];

  {
    ScopedSpan s(spans, "probe.dp", "probe");
    std::vector<float> v(live);
    Rng rng(0x5EED);
    out["dp.noise_ns_per_draw"] =
        hp.sigma > 0.0
            ? 1e3 * us_per_call([&] { dp::add_gaussian_noise(v, hp.sigma, rng); }) /
                  static_cast<double>(d)
            : 0.0;
    std::vector<float> g(d, 1.0f);
    out["dp.clip_us"] = us_per_call([&] { (void)dp::clip_l2(g, hp.clip); });
  }

  // A real mini-batch of agent 0's data at the workload's batch size.
  std::vector<std::size_t> idx;
  for (std::size_t k = 0; k < hp.batch; ++k) {
    const auto& part = b.partition[0];
    idx.push_back(part[k % part.size()]);
  }
  const Tensor bx = b.train.batch_features(idx);
  const std::vector<int> by = b.train.batch_labels(idx);

  {
    ScopedSpan s(spans, "probe.nn", "probe");
    nn::Model m = tmpl;
    m.set_flat_params(live);
    out["nn.loss_and_backward_ms"] = 1e-3 * us_per_call([&] {
      m.zero_grad();
      (void)m.loss_and_backward(bx, by);
    });
  }

  {
    ScopedSpan s(spans, "probe.kernels", "probe");
    nn::Model m = tmpl;
    m.set_flat_params(live);
    auto layers = layers_at_batch(m, bx);
    double flops = 0.0;
    double gemm_us = 0.0;
    double conv_us = 0.0;
    for (auto& l : layers) {
      if (const auto* lin = dynamic_cast<const nn::Linear*>(l.layer.get())) {
        // Forward X·Wᵀ, input gradient dY·W and weight gradient dYᵀ·X.
        const std::size_t rows = l.input.shape()[0];
        const std::size_t in = lin->in_features();
        const std::size_t outf = lin->out_features();
        std::vector<float> x(rows * in, 0.5f), wt(outf * in, 0.25f), y(rows * outf, 0.0f),
            dx(rows * in, 0.0f), dw(outf * in, 0.0f);
        gemm_us += us_per_call([&] {
          kernels::sgemm_transpose_b(rows, in, outf, x.data(), wt.data(), y.data());
          kernels::sgemm(rows, outf, in, y.data(), wt.data(), dx.data());
          kernels::sgemm_transpose_a(rows, outf, in, y.data(), x.data(), dw.data());
        });
        flops += 3.0 * 2.0 * static_cast<double>(rows * in * outf);
      } else if (dynamic_cast<const nn::Conv2D*>(l.layer.get()) != nullptr) {
        const Shape os = l.layer->output_shape(l.input.shape());
        const Tensor grad = Tensor::ones(os);
        conv_us += us_per_call([&] {
          (void)l.layer->forward(l.input);
          (void)l.layer->backward(grad);
        });
      }
    }
    out["kernels.gemm_gflops"] = gemm_us > 0.0 ? flops / (1e3 * gemm_us) : 0.0;
    out["kernels.conv_fwd_bwd_ms"] = 1e-3 * conv_us;
  }

  {
    ScopedSpan s(spans, "probe.shapley", "probe");
    // Agent 0's game: itself plus its neighbours, scored on a validation
    // batch of the workload's size.
    std::vector<std::size_t> players = {0};
    for (std::size_t j : alg.env().topo->neighbors(0)) players.push_back(j);
    players.resize(std::min<std::size_t>(players.size(), 10));
    std::vector<const std::vector<float>*> members;
    for (std::size_t j : players) members.push_back(&alg.models()[j]);
    std::vector<std::size_t> vidx;
    for (std::size_t k = 0; k < std::min(hp.validation_batch, b.validation.size()); ++k) {
      vidx.push_back(k);
    }
    const sim::FixedBatch val = sim::FixedBatch::from(b.validation, vidx);
    const std::uint64_t full = (std::uint64_t{1} << members.size()) - 1;
    std::vector<std::uint64_t> masks;
    for (std::uint64_t mask = 1; mask <= full; ++mask) masks.push_back(mask);

    if (sim::CoalitionBatchEvaluator::batchable(tmpl)) {
      sim::CoalitionBatchEvaluator ev(tmpl, val);
      out["shapley.linear_score_us"] =
          us_per_call([&] {
            ev.set_members(members);
            (void)ev.coalition_accuracies(masks);
          }) /
          static_cast<double>(masks.size());
    } else {
      out["shapley.linear_score_us"] = 0.0;
    }
    nn::Model ws = tmpl;
    std::vector<float> avg(d);
    std::size_t next = 0;
    out["shapley.sequential_score_us"] = us_per_call([&] {
      const std::uint64_t mask = masks[next++ % masks.size()];
      std::fill(avg.begin(), avg.end(), 0.0f);
      float cnt = 0.0f;
      for (std::size_t k = 0; k < members.size(); ++k) {
        if ((mask >> k & 1u) == 0) continue;
        const auto& p = *members[k];
        for (std::size_t q = 0; q < d; ++q) avg[q] += p[q];
        cnt += 1.0f;
      }
      for (auto& v : avg) v /= cnt;
      (void)sim::accuracy_on(ws, avg, val);
    });
  }

  {
    ScopedSpan s(spans, "probe.net", "probe");
    fleet::WireMessage msg{0, 1, 1, 1, "xg@1", live};
    out["net.wire_roundtrip_us"] = us_per_call([&] {
      const io::ByteBuffer frame = fleet::wire_encode(msg);
      if (!fleet::wire_try_decode(frame)) throw std::runtime_error("wire probe: bad frame");
    });
    const auto& cfg = w.cfg;
    sim::NetworkOptions nopts;
    nopts.seed = cfg.seed;
    nopts.wire_roundtrip = cfg.fleet.wire_roundtrip;
    nopts.channel = cfg.channel;
    sim::Network net(*alg.env().topo, nopts);
    (void)net.begin_round(1);
    const std::size_t dst = alg.env().topo->neighbors(0).front();
    out["net.send_recv_us"] = us_per_call([&] {
      (void)net.send(0, dst, "p", live, sim::Channel::kContribution);
      (void)net.receive(dst, 0, "p");
    });
  }

  {
    ScopedSpan s(spans, "probe.runtime", "probe");
    const std::size_t n = alg.num_agents();
    out["runtime.parallel_for_us"] =
        us_per_call([&] { runtime::parallel_for(0, n, 1, [](std::size_t) {}); });
  }

  {
    ScopedSpan s(spans, "probe.recovery", "probe");
    const auto& plan = w.cfg.crash;
    if (plan.any()) {
      recovery::RecoveryManager probe(plan);
      out["recovery.snapshot_ms"] =
          1e-3 * us_per_call([&] { probe.on_round_end(alg, plan.snapshot_every); });
    } else {
      out["recovery.snapshot_ms"] = 0.0;
    }
  }
  return out;
}

}  // namespace perfbench
