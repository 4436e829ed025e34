// Topologies, mixing matrices (Assumption 3) and spectral analysis.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "graph/mixing.hpp"
#include "graph/spectral.hpp"
#include "graph/topology.hpp"

using namespace pdsl;
using namespace pdsl::graph;

TEST(Topology, FullyConnectedStructure) {
  const auto t = Topology::make(TopologyKind::kFullyConnected, 6);
  EXPECT_EQ(t.num_edges(), 15u);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(t.degree(i), 5u);
  EXPECT_EQ(t.closed_neighborhood(2).size(), 6u);
}

TEST(Topology, RingStructure) {
  const auto t = Topology::make(TopologyKind::kRing, 8);
  EXPECT_EQ(t.num_edges(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(t.degree(i), 2u);
  EXPECT_TRUE(t.has_edge(0, 7));
  EXPECT_FALSE(t.has_edge(0, 4));
}

TEST(Topology, BipartiteStructure) {
  const auto t = Topology::make(TopologyKind::kBipartite, 10);
  // K_{5,5}: within-side no edges, across-side all edges.
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      if (i != j) {
        EXPECT_FALSE(t.has_edge(i, j));
      }
      EXPECT_TRUE(t.has_edge(i, 5 + j));
    }
  }
}

TEST(Topology, StarAndTorus) {
  const auto star = Topology::make(TopologyKind::kStar, 7);
  EXPECT_EQ(star.degree(0), 6u);
  EXPECT_EQ(star.degree(3), 1u);
  const auto torus = Topology::make(TopologyKind::kTorus, 9);  // 3x3
  for (std::size_t i = 0; i < 9; ++i) EXPECT_EQ(torus.degree(i), 4u);
}

TEST(Topology, ErdosRenyiIsConnected) {
  Rng rng(3);
  const auto t = Topology::make(TopologyKind::kErdosRenyi, 12, &rng, 0.3);
  EXPECT_TRUE(t.is_connected());
}

TEST(Topology, FromAdjacencyValidates) {
  std::vector<std::vector<bool>> self = {{true, false}, {false, false}};
  EXPECT_THROW(Topology::from_adjacency(self), std::invalid_argument);
  std::vector<std::vector<bool>> asym = {{false, true}, {false, false}};
  EXPECT_THROW(Topology::from_adjacency(asym), std::invalid_argument);
}

TEST(Topology, NameParsing) {
  EXPECT_EQ(topology_from_string("full"), TopologyKind::kFullyConnected);
  EXPECT_EQ(topology_from_string("ring"), TopologyKind::kRing);
  EXPECT_EQ(topology_from_string("bipartite"), TopologyKind::kBipartite);
  EXPECT_THROW(topology_from_string("hypercube"), std::invalid_argument);
}

// ---- Property sweep: every (topology, size) yields a symmetric doubly
// stochastic Metropolis matrix with spectral gap (Assumption 3). ----

class MixingProperty
    : public ::testing::TestWithParam<std::tuple<TopologyKind, std::size_t>> {};

TEST_P(MixingProperty, MetropolisSatisfiesAssumption3) {
  const auto [kind, m] = GetParam();
  Rng rng(42);
  const auto topo = Topology::make(kind, m, &rng);
  const auto w = MixingMatrix::metropolis(topo);
  EXPECT_TRUE(w.is_symmetric());
  EXPECT_TRUE(w.is_doubly_stochastic());
  EXPECT_GT(w.min_positive_weight(), 0.0);

  const auto info = analyze(w);
  EXPECT_NEAR(info.lambda1, 1.0, 1e-8);
  EXPECT_LT(info.sqrt_rho, 1.0) << "connected graph must mix";
  EXPECT_GE(info.rho, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllTopologies, MixingProperty,
    ::testing::Combine(::testing::Values(TopologyKind::kFullyConnected, TopologyKind::kRing,
                                         TopologyKind::kBipartite, TopologyKind::kStar),
                       ::testing::Values(std::size_t{4}, std::size_t{6}, std::size_t{10},
                                         std::size_t{15}, std::size_t{20})));

TEST(Mixing, FullyConnectedMetropolisIsUniform) {
  const auto topo = Topology::make(TopologyKind::kFullyConnected, 10);
  const auto w = MixingMatrix::metropolis(topo);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 10; ++j) EXPECT_NEAR(w(i, j), 0.1, 1e-12);
  }
}

TEST(Mixing, UniformNeighborhoodRequiresRegularity) {
  const auto ring = Topology::make(TopologyKind::kRing, 6);
  EXPECT_NO_THROW(MixingMatrix::uniform_neighborhood(ring));
  const auto star = Topology::make(TopologyKind::kStar, 6);
  EXPECT_THROW(MixingMatrix::uniform_neighborhood(star), std::invalid_argument);
}

TEST(Mixing, FromDenseValidates) {
  EXPECT_NO_THROW(MixingMatrix::from_dense({{0.5, 0.5}, {0.5, 0.5}}));
  EXPECT_THROW(MixingMatrix::from_dense({{0.9, 0.2}, {0.2, 0.9}}), std::invalid_argument);
  EXPECT_THROW(MixingMatrix::from_dense({{1.5, -0.5}, {-0.5, 1.5}}), std::invalid_argument);
}

TEST(Mixing, ApplyPreservesMeanAndContracts) {
  const auto topo = Topology::make(TopologyKind::kRing, 8);
  const auto w = MixingMatrix::metropolis(topo);
  std::vector<double> x = {8, -3, 2, 7, -1, 0, 4, -5};
  const double mean0 = 1.5;  // sum = 12, /8
  auto spread = [&](const std::vector<double>& v) {
    double s = 0.0;
    for (double u : v) s += (u - mean0) * (u - mean0);
    return s;
  };
  const double before = spread(x);
  auto y = w.apply(x);
  double mean1 = 0.0;
  for (double u : y) mean1 += u;
  mean1 /= 8.0;
  EXPECT_NEAR(mean1, mean0, 1e-9);
  EXPECT_LT(spread(y), before);
}

TEST(Spectral, JacobiAgreesWithKnownEigenvalues) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  const auto eig = symmetric_eigenvalues({{2, 1}, {1, 2}});
  EXPECT_NEAR(eig[0], 3.0, 1e-9);
  EXPECT_NEAR(eig[1], 1.0, 1e-9);
}

TEST(Spectral, FullyConnectedHasRhoZero) {
  const auto topo = Topology::make(TopologyKind::kFullyConnected, 12);
  const auto info = analyze(MixingMatrix::metropolis(topo));
  EXPECT_NEAR(info.rho, 0.0, 1e-9);
  EXPECT_NEAR(info.spectral_gap, 1.0, 1e-6);
}

TEST(Spectral, RingMixesSlowerThanFull) {
  const auto full = analyze(MixingMatrix::metropolis(Topology::make(TopologyKind::kFullyConnected, 10)));
  const auto ring = analyze(MixingMatrix::metropolis(Topology::make(TopologyKind::kRing, 10)));
  const auto bip = analyze(MixingMatrix::metropolis(Topology::make(TopologyKind::kBipartite, 10)));
  EXPECT_GT(ring.rho, bip.rho);
  EXPECT_GT(bip.rho, full.rho - 1e-12);
}

TEST(Spectral, LargerRingsMixSlower) {
  double prev = 0.0;
  for (std::size_t n : {6, 10, 16, 24}) {
    const auto info = analyze(MixingMatrix::metropolis(Topology::make(TopologyKind::kRing, n)));
    EXPECT_GT(info.rho, prev);
    prev = info.rho;
  }
}
