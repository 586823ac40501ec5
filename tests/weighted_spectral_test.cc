#include "linalg/spectral.h"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.h"
#include "graph/weighted_generators.h"

namespace geer {
namespace {

TEST(WeightedSpectralTest, UnitWeightsMatchUnweighted) {
  Graph g = gen::BarabasiAlbert(50, 3, 3);
  SpectralBounds unweighted = ComputeSpectralBounds(g);
  SpectralBounds weighted = ComputeWeightedSpectralBounds(FromUnweighted(g));
  EXPECT_NEAR(weighted.lambda2, unweighted.lambda2, 1e-8);
  EXPECT_NEAR(weighted.lambda_n, unweighted.lambda_n, 1e-8);
  EXPECT_NEAR(weighted.lambda, unweighted.lambda, 1e-8);
}

// Padded Ritz extremes bracket the dense oracle (see SpectralTest.
// MatchesDenseOracleOnRandomGraphs). The 4×5 circuit exhausts the Krylov
// space; on the 300-node random-conductance graph the residual stop
// fires first. kOracleSlack allows for the Jacobi oracle's rounding.
TEST(WeightedSpectralTest, LanczosMatchesDenseOracle) {
  constexpr double kOracleSlack = 1e-12;
  const WeightedGraph small = gen::TriangulatedGridCircuit(4, 5, 0.5, 2.0, 5);
  const WeightedGraph large = gen::WithUniformWeights(
      gen::ErdosRenyi(300, 1500, 6), 0.5, 2.0, 7);
  for (const WeightedGraph* g : {&small, &large}) {
    SpectralBounds lanczos = ComputeWeightedSpectralBounds(*g);
    SpectralBounds dense = ComputeWeightedSpectralBoundsDense(*g);
    const int n = static_cast<int>(g->NumNodes());
    EXPECT_GE(lanczos.lambda2, dense.lambda2 - kOracleSlack) << "n " << n;
    EXPECT_LE(lanczos.lambda_n, dense.lambda_n + kOracleSlack) << "n " << n;
    EXPECT_NEAR(lanczos.lambda2, dense.lambda2, 1e-8) << "n " << n;
    EXPECT_NEAR(lanczos.lambda_n, dense.lambda_n, 1e-8) << "n " << n;
    if (g == &large) EXPECT_LT(lanczos.lanczos_iterations, n - 1);
  }
}

TEST(WeightedSpectralTest, NonBipartiteCircuitHasLambdaBelowOne) {
  WeightedGraph g = gen::TriangulatedGridCircuit(4, 4, 0.5, 2.0, 7);
  SpectralBounds bounds = ComputeWeightedSpectralBounds(g);
  EXPECT_LT(bounds.lambda, 1.0);
  EXPECT_GT(bounds.lambda, 0.0);
}

TEST(WeightedSpectralTest, BipartiteGridHasLambdaNMinusOne) {
  // Weights cannot cure bipartiteness: the grid's walk spectrum keeps
  // λ_n = −1 (period 2), so estimators must reject / cap on such inputs.
  WeightedGraph g = gen::GridCircuit(4, 4, 0.5, 2.0, 9);
  SpectralBounds dense = ComputeWeightedSpectralBoundsDense(g);
  EXPECT_NEAR(dense.lambda_n, -1.0, 1e-9);
}

TEST(WeightedSpectralTest, ExtremeWeightSkewSlowsMixing) {
  // A near-cut: two cliques joined by a tiny conductance — λ₂ approaches 1
  // as the bridge weakens, the weighted analogue of the barbell.
  auto barbell_lambda = [](double bridge_conductance) {
    WeightedGraphBuilder b;
    for (NodeId u = 0; u < 6; ++u) {
      for (NodeId v = u + 1; v < 6; ++v) {
        b.AddEdge(u, v, 1.0);           // clique A
        b.AddEdge(u + 6, v + 6, 1.0);   // clique B
      }
    }
    b.AddEdge(0, 6, bridge_conductance);
    return ComputeWeightedSpectralBoundsDense(b.Build()).lambda2;
  };
  const double strong = barbell_lambda(1.0);
  const double weak = barbell_lambda(0.01);
  EXPECT_GT(weak, strong);
  EXPECT_GT(weak, 0.99);
}

}  // namespace
}  // namespace geer
