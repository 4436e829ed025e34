#include "algos/dp_cga.hpp"

#include <algorithm>

#include "common/vec_math.hpp"
#include "dp/mechanism.hpp"
#include "runtime/parallel_for.hpp"

namespace pdsl::algos {

DpCga::DpCga(const Env& env) : Algorithm(env) {
  momentum_.assign(num_agents(), std::vector<float>(models_.dim(), 0.0f));
}

void DpCga::round_impl(std::size_t t) {
  draw_all_batches();
  const std::size_t m = num_agents();
  const std::string model_tag = "x@" + std::to_string(t);
  const std::string xgrad_tag = "xg@" + std::to_string(t);

  // Phase 1+2: broadcast current models, compute privatized cross-gradients
  // for every received model, and return them to the model's owner. The
  // broadcast completes (barrier) before anyone receives.
  {
    auto timer = phase(obs::Phase::kCrossGrad);
    runtime::parallel_for(0, m, 1, [&](std::size_t i) {
      if (!active(i)) return;  // churned out: no traffic
      for (std::size_t j : neighbors(i)) {
        if (participating(j)) net_.send(i, j, model_tag, models_[i]);
      }
    });
    runtime::parallel_for(0, m, 1, [&](std::size_t i) {
      if (!active(i)) return;
      for (std::size_t j : neighbors(i)) {
        auto xj = receive_checked(i, j, model_tag, /*reclip=*/false);
        if (!xj) continue;  // dropped link: owner falls back to remaining grads
        auto g = dp::privatize(workers_[i].gradient(*xj), env_.hp.clip, env_.hp.sigma,
                               release_key(i, t, dp::ReleaseKind::kCross, j));
        // The returned cross-gradient steers j's update: contribution channel.
        // (j sent a model, so it participates — but keep the guard symmetric.)
        if (participating(j)) net_.send(i, j, xgrad_tag, std::move(g), sim::Channel::kContribution);
      }
    });
  }

  // Phase 3: each agent bundles its own privatized gradient with the received
  // cross-gradients and solves the min-norm QP for a common descent direction.
  std::vector<std::vector<float>> directions(m);
  std::vector<std::size_t> qp_iters(m, 0);
  {
    auto timer = phase(obs::Phase::kAggregate);
    runtime::parallel_for(0, m, 1, [&](std::size_t i) {
      if (!active(i)) return;  // directions[i] stays empty; update skipped below
      std::vector<std::vector<float>> bundle;
      bundle.push_back(dp::privatize(workers_[i].gradient(models_[i]), env_.hp.clip,
                                     env_.hp.sigma, release_key(i, t, dp::ReleaseKind::kSelf)));
      for (std::size_t j : neighbors(i)) {
        if (auto g = receive_checked(i, j, xgrad_tag, /*reclip=*/true)) {
          bundle.push_back(std::move(*g));
        }
      }
      const auto res = solver_.solve(bundle);
      qp_iters[i] = res.iterations;
      directions[i] = optim::combine(bundle, res.lambda);
    });
    last_qp_iters_ = *std::max_element(qp_iters.begin(), qp_iters.end());
  }

  // Phase 4: gossip-average models, then apply the momentum-smoothed direction.
  auto mixed = mix_vectors(models_, "mix@" + std::to_string(t));
  auto timer = phase(obs::Phase::kAggregate);
  const auto a = static_cast<float>(env_.hp.alpha);
  runtime::parallel_for(0, m, 1, [&](std::size_t i) {
    if (!active(i)) return;  // churned out: model and momentum frozen
    auto& u = momentum_[i];
    for (std::size_t k = 0; k < u.size(); ++k) u[k] = a * u[k] + directions[i][k];
    axpy(mixed[i], u, static_cast<float>(-env_.hp.gamma));
    models_.set(i, std::move(mixed[i]));
  });
}

}  // namespace pdsl::algos
