#pragma once
// Asynchronous DP gossip SGD — the event-driven regime of A(DP)^2SGD [18]
// and randomized gossip [21], provided as an extension to the synchronous
// baselines. Agents wake on independent random clocks; a woken agent takes a
// privatized local gradient step and then performs one randomized pairwise
// gossip exchange with a uniformly chosen neighbor (both ends move to the
// average of their privatized models). One run_round() executes M wake
// events in random order, so rounds remain comparable to the synchronous
// algorithms in expected gradient work.

#include "algos/common.hpp"

namespace pdsl::algos {

class AsyncDpGossip final : public Algorithm {
 public:
  explicit AsyncDpGossip(const Env& env);
  [[nodiscard]] std::string name() const override { return "ASYNC-DP-GOSSIP"; }
  void round_impl(std::size_t t) override;

  /// Wake events executed so far (M per round).
  [[nodiscard]] std::size_t events() const { return events_; }

 private:
  /// Wake event `e` (0..M-1) of round t; e keys the agent's noise release.
  void wake(std::size_t agent, std::size_t t, std::size_t e);

  Rng clock_rng_;  ///< wake order + partner choice
  std::size_t events_ = 0;
};

}  // namespace pdsl::algos
