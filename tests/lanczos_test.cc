#include "linalg/lanczos.h"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/jacobi_eigen.h"
#include "rw/rng.h"

namespace geer {
namespace {

// Wraps a dense symmetric matrix as an operator.
std::function<void(const Vector&, Vector*)> AsOperator(const Matrix& m) {
  return [&m](const Vector& x, Vector* y) { *y = MatVec(m, x); };
}

Matrix RandomSymmetric(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng.NextGaussian();
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

TEST(LanczosTest, DiagonalExtremes) {
  Matrix m(5, 5, 0.0);
  const double diag[5] = {-2.0, 0.5, 1.0, 3.0, -1.0};
  for (int i = 0; i < 5; ++i) m(i, i) = diag[i];
  LanczosResult res = LanczosExtremeEigenvalues(AsOperator(m), 5, {});
  EXPECT_NEAR(res.max_eigenvalue, 3.0, 1e-8);
  EXPECT_NEAR(res.min_eigenvalue, -2.0, 1e-8);
}

TEST(LanczosTest, MatchesJacobiOnRandomSymmetric) {
  const std::size_t n = 30;
  Matrix m = RandomSymmetric(n, 123);
  EigenDecomposition dense = JacobiEigenSolve(m);
  LanczosResult res = LanczosExtremeEigenvalues(AsOperator(m), n, {});
  EXPECT_NEAR(res.max_eigenvalue, dense.eigenvalues.back(), 1e-7);
  EXPECT_NEAR(res.min_eigenvalue, dense.eigenvalues.front(), 1e-7);
}

TEST(LanczosTest, DeflationExposesSecondEigenvalue) {
  const std::size_t n = 25;
  Matrix m = RandomSymmetric(n, 321);
  EigenDecomposition dense = JacobiEigenSolve(m);
  // Deflate the top eigenvector; the max Ritz value is then λ_{n−1}.
  Vector top(n);
  for (std::size_t i = 0; i < n; ++i) {
    top[i] = dense.eigenvectors(i, n - 1);
  }
  LanczosResult res = LanczosExtremeEigenvalues(AsOperator(m), n, {top});
  EXPECT_NEAR(res.max_eigenvalue, dense.eigenvalues[n - 2], 1e-7);
}

TEST(LanczosTest, ConvergesOnLowRank) {
  // Rank-1 matrix v vᵀ: eigenvalues {‖v‖², 0,…}; Lanczos must stop early.
  const std::size_t n = 40;
  Rng rng(9);
  Vector v(n);
  for (auto& e : v) e = rng.NextGaussian();
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) m(i, j) = v[i] * v[j];
  }
  LanczosResult res = LanczosExtremeEigenvalues(AsOperator(m), n, {});
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.iterations, 5);
  EXPECT_NEAR(res.max_eigenvalue, Dot(v, v), 1e-6);
}

// A run the cap ends is not certified, but its residual bounds still
// hold: the padded extremes bracket the true ones.
TEST(LanczosTest, IterationCapRespected) {
  const std::size_t n = 50;
  Matrix m = RandomSymmetric(n, 8);
  EigenDecomposition dense = JacobiEigenSolve(m);
  LanczosOptions opt;
  opt.max_iterations = 10;
  LanczosResult res = LanczosExtremeEigenvalues(AsOperator(m), n, {}, opt);
  EXPECT_EQ(res.iterations, 10);
  EXPECT_FALSE(res.converged);
  EXPECT_GT(res.max_residual, opt.tolerance);
  EXPECT_GE(res.max_eigenvalue + res.max_residual, dense.eigenvalues.back());
  EXPECT_LE(res.min_eigenvalue - res.min_residual, dense.eigenvalues.front());
}

// The certified stop fires well before the Krylov space is exhausted,
// and both residual bounds then meet the relative tolerance.
TEST(LanczosTest, CertifiedStopBeforeExhaustion) {
  const std::size_t n = 300;
  Matrix m(n, n, 0.0);
  // Well-separated extremes: a diagonal spectrum in [-1, 1] plus two
  // outliers, mixed by a random symmetric perturbation of norm ~1e-3.
  Matrix noise = RandomSymmetric(n, 77);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) m(i, j) = 1e-4 * noise(i, j);
    m(i, i) += -1.0 + 2.0 * static_cast<double>(i) / (n - 1.0);
  }
  m(0, 0) = -3.0;
  m(n - 1, n - 1) = 4.0;
  EigenDecomposition dense = JacobiEigenSolve(m);
  LanczosResult res = LanczosExtremeEigenvalues(AsOperator(m), n, {});
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.iterations, static_cast<int>(n) / 2);
  EXPECT_LE(res.max_residual, 1e-10 * std::abs(res.max_eigenvalue));
  EXPECT_LE(res.min_residual, 1e-10 * std::abs(res.min_eigenvalue));
  // Ritz values lie inside the spectrum; padding reaches past its ends.
  EXPECT_LE(res.max_eigenvalue, dense.eigenvalues.back() + 1e-12);
  EXPECT_GE(res.max_eigenvalue + res.max_residual,
            dense.eigenvalues.back() - 1e-12);
  EXPECT_GE(res.min_eigenvalue, dense.eigenvalues.front() - 1e-12);
  EXPECT_LE(res.min_eigenvalue - res.min_residual,
            dense.eigenvalues.front() + 1e-12);
}

}  // namespace
}  // namespace geer
