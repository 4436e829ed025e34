#include "algos/muffliato.hpp"

#include "common/vec_math.hpp"
#include "dp/mechanism.hpp"
#include "runtime/parallel_for.hpp"

namespace pdsl::algos {

void Muffliato::round_impl(std::size_t t) {
  const std::size_t m = num_agents();
  // Local step with clipped gradient, then noise injection on the shared value.
  {
    auto timer = phase(obs::Phase::kLocalGrad);
    draw_all_batches();
    runtime::parallel_for(0, m, 1, [&](std::size_t i) {
      if (!active(i)) return;  // churned out: no local step, no noise draw
      auto g = workers_[i].gradient(models_[i]);
      dp::clip_l2(g, env_.hp.clip);
      axpy(models_.mut(i), g, static_cast<float>(-env_.hp.gamma));
      // Perturb the *update scale* the agent exposes: noise with stddev
      // gamma*sigma on the model matches noising the gradient with sigma.
      dp::add_gaussian_noise(models_.mut(i), env_.hp.gamma * env_.hp.sigma,
                             release_key(i, t, dp::ReleaseKind::kModel));
    });
  }
  // Gossip phase: K sweeps of x <- W x.
  for (std::size_t k = 0; k < std::max<std::size_t>(1, env_.hp.gossip_steps); ++k) {
    models_.assign(mix_vectors(models_, "gossip@" + std::to_string(t) + "." + std::to_string(k)));
  }
}

}  // namespace pdsl::algos
