#include "common/rng.hpp"

#include <cassert>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace pdsl {

Rng Rng::split(std::uint64_t salt) const {
  return Rng(splitmix64(seed_ ^ splitmix64(salt)));
}

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

bool Rng::bernoulli(double p) {
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  if (weights.empty()) throw std::invalid_argument("categorical: empty weights");
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0.0) throw std::invalid_argument("categorical: non-positive total weight");
  double r = uniform(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r <= 0.0) return i;
  }
  return weights.size() - 1;  // numerical fallthrough
}

double Rng::gamma(double shape) {
  std::gamma_distribution<double> dist(shape, 1.0);
  return dist(engine_);
}

std::vector<double> Rng::dirichlet(const std::vector<double>& alpha) {
  std::vector<double> out(alpha.size());
  double total = 0.0;
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    out[i] = gamma(alpha[i]);
    total += out[i];
  }
  if (total <= 0.0) {
    // All-gamma draws underflowed (tiny alpha); fall back to a one-hot draw,
    // which is the correct limit of Dirichlet as alpha -> 0.
    const auto hot = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(alpha.size()) - 1));
    std::fill(out.begin(), out.end(), 0.0);
    out[hot] = 1.0;
    return out;
  }
  for (auto& v : out) v /= total;
  return out;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  shuffle(idx);
  return idx;
}

std::string Rng::serialize() const {
  std::ostringstream out;
  out << seed_ << ' ' << engine_;
  if (!out) throw std::runtime_error("Rng::serialize: stream failure");
  return out.str();
}

Rng Rng::deserialize(const std::string& state) {
  std::istringstream in(state);
  std::uint64_t seed = 0;
  in >> seed;
  Rng rng(seed);
  in >> rng.engine_;
  if (!in) throw std::runtime_error("Rng::deserialize: malformed state blob");
  return rng;
}

void Rng::fill_normal(std::vector<float>& buf, double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  for (auto& v : buf) v = static_cast<float>(dist(engine_));
}

}  // namespace pdsl
