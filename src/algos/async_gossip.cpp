#include "algos/async_gossip.hpp"

#include "common/vec_math.hpp"
#include "dp/mechanism.hpp"

namespace pdsl::algos {

AsyncDpGossip::AsyncDpGossip(const Env& env)
    : Algorithm(env), clock_rng_(splitmix64(env.seed ^ 0xA57C)) {}

void AsyncDpGossip::wake(std::size_t i, std::size_t t, std::size_t e) {
  ++events_;
  if (!active(i)) return;  // churned out: the wake event fires into the void
  // Local privatized step at whatever (possibly stale) model i currently has.
  {
    auto timer = phase(obs::Phase::kLocalGrad);
    workers_[i].draw_batch();
    // An agent can wake more than once per round: the event index keys it.
    const auto g = dp::privatize(workers_[i].gradient(models_[i]), env_.hp.clip, env_.hp.sigma,
                                 release_key(i, t, dp::ReleaseKind::kSelf, e));
    axpy(models_.mut(i), g, static_cast<float>(-env_.hp.gamma));
  }
  auto timer = phase(obs::Phase::kGossip);

  // Randomized pairwise gossip with one uniform neighbor: both endpoints
  // move to the average. Models cross the network privatized so the exchange
  // leaks no more than the synchronous algorithms' model broadcasts; the
  // model has only ever been updated with privatized gradients, so the
  // additional noise here is a conservative hedge against direct inspection.
  const auto nbrs = neighbors(i);
  if (nbrs.empty()) return;
  const std::size_t j = nbrs[static_cast<std::size_t>(
      clock_rng_.uniform_int(0, static_cast<std::int64_t>(nbrs.size()) - 1))];
  const std::string tag = "pair@" + std::to_string(t) + "." + std::to_string(events_);
  // Send both halves and drain both mailboxes before deciding whether the
  // exchange happened: bailing after one successful send would leave its
  // payload unread, tripping the between-rounds leftover check. The model IS
  // the update carrier here, so both halves ride the contribution channel; a
  // half rejected by sanitization aborts the exchange like a dropped one.
  net_.send(i, j, tag, models_[i], sim::Channel::kContribution);
  net_.send(j, i, tag, models_[j], sim::Channel::kContribution);
  const auto from_j = receive_checked(i, j, tag, /*reclip=*/false);
  const auto from_i = receive_checked(j, i, tag, /*reclip=*/false);
  if (!from_j || !from_i) return;  // a dropped half aborts the pairwise average
  std::vector<float> avg = *from_j;
  axpy(avg, *from_i, 1.0f);
  scale_inplace(avg, 0.5f);
  models_.set(i, avg);
  models_.set(j, std::move(avg));
}

void AsyncDpGossip::round_impl(std::size_t t) {
  // M wake events per round, uniformly random agent each time — a discrete
  // simulation of independent Poisson clocks. Deliberately NOT converted to
  // runtime::parallel_for (S-RT): wake events are causally ordered (event e+1
  // reads models event e wrote, and the clock RNG is one serial stream), so
  // this baseline runs sequentially at every --threads setting.
  const std::size_t m = num_agents();
  for (std::size_t e = 0; e < m; ++e) {
    const auto i = static_cast<std::size_t>(
        clock_rng_.uniform_int(0, static_cast<std::int64_t>(m) - 1));
    wake(i, t, e);
  }
}

}  // namespace pdsl::algos
