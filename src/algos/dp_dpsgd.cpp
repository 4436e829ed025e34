#include "algos/dp_dpsgd.hpp"

#include "common/vec_math.hpp"
#include "dp/mechanism.hpp"
#include "runtime/parallel_for.hpp"

namespace pdsl::algos {

void DpDpsgd::round_impl(std::size_t t) {
  const std::size_t m = num_agents();
  std::vector<std::vector<float>> grads(m);
  {
    auto timer = phase(obs::Phase::kLocalGrad);
    draw_all_batches();
    runtime::parallel_for(0, m, 1, [&](std::size_t i) {
      if (!active(i)) return;
      grads[i] = dp::privatize(workers_[i].gradient(models_[i]), env_.hp.clip, env_.hp.sigma,
                               release_key(i, t, dp::ReleaseKind::kSelf));
    });
  }
  auto mixed = mix_vectors(models_, "x@" + std::to_string(t));
  auto timer = phase(obs::Phase::kAggregate);
  runtime::parallel_for(0, m, 1, [&](std::size_t i) {
    if (!active(i)) return;  // churned out: model frozen this round
    axpy(mixed[i], grads[i], static_cast<float>(-env_.hp.gamma));
    models_.set(i, std::move(mixed[i]));
  });
}

}  // namespace pdsl::algos
