#include "algos/qgm.hpp"

#include "common/vec_math.hpp"
#include "dp/mechanism.hpp"
#include "runtime/parallel_for.hpp"

namespace pdsl::algos {

DpQgm::DpQgm(const Env& env) : Algorithm(env) {
  momentum_.assign(num_agents(), std::vector<float>(models_.dim(), 0.0f));
  prev_model_ = models_.dense();
}

void DpQgm::round_impl(std::size_t t) {
  draw_all_batches();
  const std::size_t m = num_agents();
  const auto beta = static_cast<float>(env_.hp.alpha);  // reuse alpha as QGM's beta
  const auto gamma = static_cast<float>(env_.hp.gamma);

  std::vector<std::vector<float>> grads(m);
  {
    auto timer = phase(obs::Phase::kLocalGrad);
    runtime::parallel_for(0, m, 1, [&](std::size_t i) {
      if (!active(i)) return;
      grads[i] = dp::privatize(workers_[i].gradient(models_[i]), env_.hp.clip, env_.hp.sigma,
                               release_key(i, t, dp::ReleaseKind::kSelf));
    });
  }
  auto mixed = mix_vectors(models_, "x@" + std::to_string(t));
  auto timer = phase(obs::Phase::kAggregate);
  runtime::parallel_for(0, m, 1, [&](std::size_t i) {
    if (!active(i)) return;  // churned out: model, momentum, prev model frozen
    // Quasi-global momentum from the displacement of the *previous* round.
    auto& mbuf = momentum_[i];
    for (std::size_t k = 0; k < mbuf.size(); ++k) {
      const float displacement = (prev_model_[i][k] - models_[i][k]) / gamma;
      mbuf[k] = beta * mbuf[k] + (1.0f - beta) * displacement;
    }
    prev_model_[i] = models_[i];

    // d_i = ghat_i + m_i applied on the mixed model.
    for (std::size_t k = 0; k < mixed[i].size(); ++k) {
      mixed[i][k] -= gamma * (grads[i][k] + mbuf[k]);
    }
    models_.set(i, std::move(mixed[i]));
  });
}

}  // namespace pdsl::algos
