#include "attack/label_inference.hpp"

#include <algorithm>
#include <stdexcept>

#include "dp/mechanism.hpp"

namespace pdsl::attack {

std::vector<double> label_scores_from_gradient(const std::vector<float>& flat_grad,
                                               std::size_t classes) {
  if (classes == 0 || flat_grad.size() < classes) {
    throw std::invalid_argument("label_scores_from_gradient: gradient too small");
  }
  std::vector<double> scores(classes);
  const std::size_t off = flat_grad.size() - classes;
  for (std::size_t c = 0; c < classes; ++c) {
    scores[c] = -static_cast<double>(flat_grad[off + c]);
  }
  return scores;
}

std::size_t infer_dominant_label(const std::vector<float>& flat_grad, std::size_t classes) {
  const auto scores = label_scores_from_gradient(flat_grad, classes);
  return static_cast<std::size_t>(std::max_element(scores.begin(), scores.end()) -
                                  scores.begin());
}

LabelLeakageResult label_leakage_experiment(const nn::Model& model, const data::Dataset& ds,
                                            std::size_t batch, double clip, double sigma,
                                            std::size_t trials, Rng rng) {
  if (trials == 0) throw std::invalid_argument("label_leakage_experiment: zero trials");
  const std::size_t classes = ds.num_classes();

  // Index samples by class so each trial can draw a single-class batch (the
  // worst case for the victim: the batch's label *is* the secret).
  std::vector<std::vector<std::size_t>> by_class(classes);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    by_class[static_cast<std::size_t>(ds.label(i))].push_back(i);
  }

  nn::Model victim = model;  // workspace
  std::size_t hits = 0;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    std::size_t secret;
    do {
      secret = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(classes) - 1));
    } while (by_class[secret].empty());
    std::vector<std::size_t> idx(batch);
    for (auto& v : idx) {
      const auto& pool = by_class[secret];
      v = pool[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
    }
    victim.loss_and_backward(ds.batch_features(idx), ds.batch_labels(idx));
    // The victim's self release; each trial is its own "round".
    const auto released = dp::privatize(victim.flat_grad(), clip, sigma,
                                        {rng.seed(), 0, trial + 1, dp::ReleaseKind::kSelf, 0});
    if (infer_dominant_label(released, classes) == secret) ++hits;
  }

  LabelLeakageResult res;
  res.hit_rate = static_cast<double>(hits) / static_cast<double>(trials);
  res.chance = 1.0 / static_cast<double>(classes);
  res.trials = trials;
  res.sigma = sigma;
  return res;
}

}  // namespace pdsl::attack
