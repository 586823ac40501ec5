#include "linalg/spectral.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "graph/generators.h"

namespace geer {
namespace {

TEST(SpectralTest, CompleteGraphClosedForm) {
  // K_n: P has eigenvalues 1 and −1/(n−1) (n−1 times).
  const NodeId n = 10;
  SpectralBounds sb = ComputeSpectralBounds(gen::Complete(n));
  EXPECT_NEAR(sb.lambda2, -1.0 / (n - 1.0), 1e-8);
  EXPECT_NEAR(sb.lambda_n, -1.0 / (n - 1.0), 1e-8);
  EXPECT_NEAR(sb.lambda, 1.0 / (n - 1.0), 1e-8);
}

TEST(SpectralTest, OddCycleClosedForm) {
  // C_n: eigenvalues cos(2πk/n); for odd n, λ₂ = cos(2π/n) and
  // λ_n = cos(π(n−1)/n).
  const NodeId n = 9;
  SpectralBounds sb = ComputeSpectralBounds(gen::Cycle(n));
  EXPECT_NEAR(sb.lambda2, std::cos(2.0 * M_PI / n), 1e-8);
  EXPECT_NEAR(sb.lambda_n, std::cos(2.0 * M_PI * 4.0 / n), 1e-8);
}

TEST(SpectralTest, BipartiteReportsMinusOne) {
  SpectralBounds sb = ComputeSpectralBounds(gen::Cycle(8));
  EXPECT_NEAR(sb.lambda_n, -1.0, 1e-8);
  // λ is clamped below 1 so the ℓ formulas stay finite.
  EXPECT_LT(sb.lambda, 1.0);
}

// λ₂ and λ_n are Ritz extremes padded by their residual bounds, so they
// bracket the dense oracle's values: λ₂ from above, λ_n from below. The
// n = 60 inputs exhaust the Krylov space (a breakdown); at n = 300 and
// 400 the residual stop fires first. kOracleSlack allows for the Jacobi
// oracle's own rounding.
TEST(SpectralTest, MatchesDenseOracleOnRandomGraphs) {
  constexpr double kOracleSlack = 1e-12;
  struct Input {
    NodeId n;
    std::uint64_t m;
    std::uint64_t seed;
  };
  for (const Input& in : {Input{60, 180, 1}, Input{60, 180, 2},
                          Input{60, 180, 3}, Input{300, 1500, 4},
                          Input{400, 2400, 5}}) {
    Graph g = gen::ErdosRenyi(in.n, in.m, in.seed);
    SpectralBounds lanczos = ComputeSpectralBounds(g);
    SpectralBounds dense = ComputeSpectralBoundsDense(g);
    const std::string where =
        "n " + std::to_string(in.n) + " seed " + std::to_string(in.seed);
    EXPECT_GE(lanczos.lambda2, dense.lambda2 - kOracleSlack) << where;
    EXPECT_LE(lanczos.lambda_n, dense.lambda_n + kOracleSlack) << where;
    EXPECT_NEAR(lanczos.lambda2, dense.lambda2, 1e-8) << where;
    EXPECT_NEAR(lanczos.lambda_n, dense.lambda_n, 1e-8) << where;
    EXPECT_NEAR(lanczos.lambda, dense.lambda, 1e-8) << where;
    if (in.n >= 300) {
      EXPECT_LT(lanczos.lanczos_iterations, static_cast<int>(in.n) - 1)
          << where;
    }
  }
}

// A slow-mixing cycle reaches the 300-iteration cap before the residual
// stop fires. The capped run is padded all the same, so λ₂ and λ_n still
// bracket the closed form; its bare Ritz extremes would not.
TEST(SpectralTest, CappedRunStillBrackets) {
  const NodeId n = 1001;
  SpectralBounds sb = ComputeSpectralBounds(gen::Cycle(n));
  EXPECT_EQ(sb.lanczos_iterations, 300);
  EXPECT_GE(sb.lambda2, std::cos(2.0 * M_PI / n));
  EXPECT_LE(sb.lambda_n, std::cos(M_PI * (n - 1.0) / n));
}

TEST(SpectralTest, BarbellMixesSlowly) {
  // The barbell's bottleneck pushes λ₂ toward 1.
  SpectralBounds sb = ComputeSpectralBounds(gen::Barbell(8, 4));
  EXPECT_GT(sb.lambda2, 0.9);
}

TEST(SpectralTest, DenseExpanderMixesFast) {
  SpectralBounds sb = ComputeSpectralBounds(gen::ErdosRenyi(100, 1200, 5));
  EXPECT_LT(sb.lambda, 0.6);
}

TEST(SpectralTest, LambdaWithinUnitInterval) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Graph g = gen::BarabasiAlbert(80, 3, seed);
    SpectralBounds sb = ComputeSpectralBounds(g);
    EXPECT_GE(sb.lambda, 0.0);
    EXPECT_LT(sb.lambda, 1.0);
    EXPECT_LE(sb.lambda2, 1.0);
    EXPECT_GE(sb.lambda_n, -1.0);
  }
}

}  // namespace
}  // namespace geer
