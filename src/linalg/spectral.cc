#include "linalg/spectral.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "linalg/jacobi_eigen.h"
#include "linalg/lanczos.h"
#include "linalg/transition.h"
#include "util/check.h"

namespace geer {
namespace {

// Lanczos budget and certificate (linalg/lanczos.h). The cap is a safety
// net: a run that reaches it is still padded by its residual bounds.
constexpr int kMaxIterations = 300;
constexpr double kTolerance = 1e-10;
constexpr std::uint64_t kSeed = 42;
// λ is clamped to ≤ 1 − kFloorGap so the walk-length formulas stay finite.
constexpr double kFloorGap = 1e-9;

double ClampLambda(double lambda2, double lambda_n, double floor_gap) {
  const double raw = std::max(std::abs(lambda2), std::abs(lambda_n));
  return std::clamp(raw, 0.0, 1.0 - floor_gap);
}

}  // namespace

template <WeightPolicy WP>
SpectralBounds ComputeSpectralBoundsT(const typename WP::GraphT& graph) {
  GEER_CHECK_GE(graph.NumNodes(), 2u);
  NormalizedAdjacencyOperatorT<WP> op(graph);
  LanczosOptions lopt;
  lopt.max_iterations = kMaxIterations;
  lopt.tolerance = kTolerance;
  lopt.seed = kSeed;
  auto apply = [&op](const Vector& x, Vector* y) { op.Apply(x, y); };
  const LanczosResult res = LanczosExtremeEigenvalues(
      apply, op.Dim(), {op.TopEigenvector()}, lopt);

  SpectralBounds out;
  out.lambda2 = std::min(res.max_eigenvalue + res.max_residual, 1.0);
  out.lambda_n = std::max(res.min_eigenvalue - res.min_residual, -1.0);
  out.lambda = ClampLambda(out.lambda2, out.lambda_n, kFloorGap);
  out.lanczos_iterations = res.iterations;
  return out;
}

template <WeightPolicy WP>
SpectralBounds ComputeSpectralBoundsDenseT(const typename WP::GraphT& graph) {
  const NodeId n = graph.NumNodes();
  GEER_CHECK_GE(n, 2u);
  GEER_CHECK_LE(n, 4096u) << "dense spectral oracle limited to small graphs";
  Matrix normalized(n, n, 0.0);
  const auto& offsets = graph.Offsets();
  const auto& adj = graph.NeighborArray();
  for (NodeId u = 0; u < n; ++u) {
    const double wu = WP::NodeWeight(graph, u);
    GEER_CHECK(wu > 0.0);
    for (std::uint64_t k = offsets[u]; k < offsets[u + 1]; ++k) {
      const NodeId v = adj[k];
      normalized(u, v) =
          WP::ArcWeight(graph, k) / std::sqrt(wu * WP::NodeWeight(graph, v));
    }
  }
  EigenDecomposition eig = JacobiEigenSolve(normalized);
  SpectralBounds out;
  const std::size_t count = eig.eigenvalues.size();
  out.lambda_n = eig.eigenvalues.front();
  out.lambda2 = count >= 2 ? eig.eigenvalues[count - 2] : out.lambda_n;
  out.lambda = ClampLambda(out.lambda2, out.lambda_n, 1e-12);
  return out;
}

template SpectralBounds ComputeSpectralBoundsT<UnitWeight>(const Graph&);
template SpectralBounds ComputeSpectralBoundsT<EdgeWeight>(
    const WeightedGraph&);
template SpectralBounds ComputeSpectralBoundsDenseT<UnitWeight>(const Graph&);
template SpectralBounds ComputeSpectralBoundsDenseT<EdgeWeight>(
    const WeightedGraph&);

}  // namespace geer
