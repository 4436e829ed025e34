#include "algos/fedavg.hpp"

#include "common/vec_math.hpp"
#include "dp/mechanism.hpp"
#include "runtime/parallel_for.hpp"

namespace pdsl::algos {

FedAvg::FedAvg(const Env& env) : Algorithm(env) {
  double total = 0.0;
  shard_weights_.resize(num_agents());
  for (std::size_t i = 0; i < num_agents(); ++i) {
    shard_weights_[i] = static_cast<double>((*env.partition)[i].size());
    total += shard_weights_[i];
  }
  for (auto& w : shard_weights_) w /= total;
}

void FedAvg::round_impl(std::size_t t) {
  const std::size_t m = num_agents();
  const auto steps = std::max<std::size_t>(1, env_.hp.local_steps);

  // Local phase: K privatized SGD steps per agent from the shared model.
  {
    auto timer = phase(obs::Phase::kLocalGrad);
    runtime::parallel_for(0, m, 1, [&](std::size_t i) {
      if (!active(i)) return;  // churned out: no local steps this round
      for (std::size_t k = 0; k < steps; ++k) {
        workers_[i].draw_batch();
        const auto g = dp::privatize(workers_[i].gradient(models_[i]), env_.hp.clip,
                                     env_.hp.sigma, release_key(i, t, dp::ReleaseKind::kSelf, k));
        axpy(models_.mut(i), g, static_cast<float>(-env_.hp.gamma));
      }
    });
  }

  // Server phase: shard-weighted average over participants, redistributed to
  // them. Full participation takes the exact historical path (no renormalizing
  // division), so zero-fault runs stay bit-identical.
  auto timer = phase(obs::Phase::kAggregate);
  std::vector<const std::vector<float>*> ptrs;
  std::vector<double> weights;
  ptrs.reserve(m);
  weights.reserve(m);
  double wsum = 0.0;
  bool all_active = true;
  for (std::size_t i = 0; i < m; ++i) {
    if (!active(i)) {
      all_active = false;
      continue;
    }
    ptrs.push_back(&models_[i]);
    weights.push_back(shard_weights_[i]);
    wsum += shard_weights_[i];
  }
  if (ptrs.empty()) return;  // everyone offline: nothing to average
  if (all_active) {
    weights = shard_weights_;
  } else {
    for (auto& w : weights) w /= wsum;  // renormalize over participants
  }
  const auto global = weighted_sum(ptrs, weights);
  const std::size_t payload = global.size() * sizeof(float);
  for (std::size_t i = 0; i < m; ++i) {
    if (!active(i)) continue;  // offline agents keep their stale model
    models_.set(i, global);
    server_messages_ += 2;           // upload + download
    server_bytes_ += 2 * payload;
  }
}

}  // namespace pdsl::algos
