// S-FAULT chaos suite (ctest -L chaos): end-to-end mnist_like runs under
// fault injection. Convergence must survive moderate chaos (10% drop +
// 1-round delay), stay finite under heavy chaos (30% drop + delay + churn),
// degrade gracefully relative to the fault-free run, hold the S-RT
// bit-identity contract across thread widths, and every baseline algorithm
// must complete a faulted run without NaN/Inf. All runs are seeded, so every
// assertion here is a fixed fact of the seed, not a statistical claim.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/experiment.hpp"

using pdsl::core::ExperimentConfig;
using pdsl::core::ExperimentResult;
using pdsl::core::run_experiment;

namespace {

ExperimentConfig base_config() {
  ExperimentConfig cfg;
  cfg.algorithm = "pdsl";
  cfg.dataset = "mnist_like";
  cfg.model = "mlp";
  cfg.topology = "full";
  cfg.agents = 5;
  cfg.rounds = 10;
  cfg.train_samples = 500;
  cfg.test_samples = 150;
  cfg.validation_samples = 120;
  cfg.image = 8;
  cfg.hidden = 16;
  cfg.hp.batch = 12;
  cfg.hp.gamma = 0.05;
  cfg.hp.alpha = 0.5;
  cfg.hp.clip = 5.0;
  cfg.hp.shapley_permutations = 2;
  cfg.hp.validation_batch = 32;
  cfg.sigma_mode = "none";
  cfg.seed = 9;
  cfg.metrics.eval_every = cfg.rounds;  // evaluate accuracy once, at the end
  cfg.metrics.test_subsample = 150;
  return cfg;
}

void expect_finite(const ExperimentResult& res) {
  for (const auto& m : res.series) {
    EXPECT_TRUE(std::isfinite(m.avg_loss)) << "round " << m.round;
  }
  for (float v : res.average_model) ASSERT_TRUE(std::isfinite(v));
  EXPECT_TRUE(std::isfinite(res.final_loss));
  EXPECT_TRUE(std::isfinite(res.final_accuracy));
}

}  // namespace

TEST(ChaosConvergence, PdslLearnsUnderModerateChaos) {
  ExperimentConfig cfg = base_config();
  cfg.faults.drop_prob = 0.1;
  cfg.faults.delay_prob = 0.25;
  cfg.faults.delay_rounds = 1;
  cfg.faults.staleness_rounds = 2;
  const ExperimentResult res = run_experiment(cfg);

  expect_finite(res);
  EXPECT_GT(res.dropped, 0u);
  EXPECT_GT(res.delayed, 0u);
  EXPECT_LT(res.series.back().avg_loss, res.series.front().avg_loss);
  EXPECT_LT(res.final_loss, 1.2);  // below ln(4) ~ 1.386 (chance on 4 classes)
  EXPECT_GT(res.final_accuracy, 0.6);
}

TEST(ChaosConvergence, PdslStaysFiniteUnderHeavyChaos) {
  ExperimentConfig cfg = base_config();
  cfg.faults.drop_prob = 0.3;
  cfg.faults.delay_prob = 0.25;
  cfg.faults.delay_rounds = 1;
  cfg.faults.churn_prob = 0.2;
  cfg.faults.churn_interval = 3;
  cfg.faults.staleness_rounds = 2;
  const ExperimentResult res = run_experiment(cfg);

  expect_finite(res);
  EXPECT_GT(res.dropped, 0u);
  EXPECT_LT(res.series.back().avg_loss, res.series.front().avg_loss);
}

TEST(ChaosConvergence, DegradationIsGraceful) {
  // 30% drop should cost accuracy, not collapse it: the faulted run must
  // land within 0.25 of the fault-free accuracy and stay well above chance.
  ExperimentConfig clean = base_config();
  const ExperimentResult clean_res = run_experiment(clean);

  ExperimentConfig chaos = base_config();
  chaos.faults.drop_prob = 0.3;
  chaos.faults.delay_prob = 0.25;
  chaos.faults.delay_rounds = 1;
  chaos.faults.staleness_rounds = 2;
  const ExperimentResult chaos_res = run_experiment(chaos);

  expect_finite(chaos_res);
  EXPECT_GT(clean_res.final_accuracy, 0.6);
  EXPECT_GE(chaos_res.final_accuracy, clean_res.final_accuracy - 0.25);
  EXPECT_GT(chaos_res.final_accuracy, 0.4);
}

TEST(ChaosConvergence, BitIdenticalAcrossThreadWidthsUnderChaos) {
  ExperimentConfig cfg = base_config();
  cfg.rounds = 5;
  cfg.faults.drop_prob = 0.2;
  cfg.faults.delay_prob = 0.3;
  cfg.faults.delay_rounds = 2;
  cfg.faults.churn_prob = 0.2;
  cfg.faults.churn_interval = 2;
  cfg.faults.staleness_rounds = 2;

  cfg.threads = 1;
  const ExperimentResult seq = run_experiment(cfg);
  cfg.threads = 4;
  const ExperimentResult par = run_experiment(cfg);

  EXPECT_EQ(seq.average_model, par.average_model);
  EXPECT_EQ(seq.dropped, par.dropped);
  EXPECT_EQ(seq.delayed, par.delayed);
  EXPECT_EQ(pdsl::sim::deterministic_mismatch(seq.series, par.series), "");
  EXPECT_GT(seq.dropped, 0u);
}

TEST(ChaosConvergence, SameSeedRerunIsBitIdentical) {
  ExperimentConfig cfg = base_config();
  cfg.rounds = 5;
  cfg.faults.drop_prob = 0.2;
  cfg.faults.delay_prob = 0.3;
  cfg.faults.delay_rounds = 1;
  cfg.faults.churn_prob = 0.2;
  cfg.faults.churn_interval = 2;

  const ExperimentResult a = run_experiment(cfg);
  const ExperimentResult b = run_experiment(cfg);
  EXPECT_EQ(a.average_model, b.average_model);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.delayed, b.delayed);
}

TEST(ChaosConvergence, EveryBaselineSurvivesChaos) {
  // Fault handling lives in algos::common, so every algorithm — not just
  // PDSL — must finish a faulted run finite and with mailboxes fully read.
  const std::vector<std::string> algos = {
      "pdsl",      "pdsl_uniform", "dp_dpsgd", "muffliato", "dp_cga",
      "dp_netfleet", "async_dp_gossip", "dp_qgm", "fedavg", "dpsgd", "dmsgd"};
  for (const auto& name : algos) {
    ExperimentConfig cfg = base_config();
    cfg.algorithm = name;
    cfg.rounds = 3;
    cfg.metrics.eval_every = 0;
    cfg.faults.drop_prob = 0.25;
    cfg.faults.delay_prob = 0.2;
    cfg.faults.delay_rounds = 1;
    cfg.faults.churn_prob = 0.2;
    cfg.faults.churn_interval = 2;
    const ExperimentResult res = run_experiment(cfg);
    for (const auto& m : res.series) {
      EXPECT_TRUE(std::isfinite(m.avg_loss)) << name << " round " << m.round;
    }
    for (float v : res.average_model) ASSERT_TRUE(std::isfinite(v)) << name;
    // fedavg's server phase is abstract (no Network traffic), so it only
    // feels churn; every decentralized baseline must show real drops.
    if (name != "fedavg") {
      EXPECT_GT(res.dropped, 0u) << name;
    }
  }
}
