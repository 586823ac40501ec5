// Spectral preprocessing (paper §3.1): compute λ = max(|λ₂|, |λ_n|) of
// the transition matrix P once per graph; it parameterizes the maximum
// walk lengths of Eq. (5) and Eq. (6). P is similar to the symmetric
// N = D_w^{-1/2} A_w D_w^{-1/2}, so Lanczos on N (with the known top
// eigenvector deflated) yields λ₂ and λ_n as the paper's ARPACK setup
// does. The run stops when both extreme Ritz values are certified by
// their residual bounds (linalg/lanczos.h), and each is padded outward by
// its bound, so λ never under-estimates the true value — a short λ would
// make ℓ too short for Theorem 3.1. Deterministic: one fixed seed, so
// every replica of a graph derives the same λ bit for bit.
// Weight-generic: the same code serves the unweighted and weighted
// (conductance) stacks through graph/weight_policy.h.

#ifndef GEER_LINALG_SPECTRAL_H_
#define GEER_LINALG_SPECTRAL_H_

#include "graph/weight_policy.h"

namespace geer {

/// The spectral quantities reused across all queries on a graph.
struct SpectralBounds {
  double lambda2 = 0.0;   ///< second-largest eigenvalue of P (upper bound)
  double lambda_n = 0.0;  ///< smallest eigenvalue of P (lower bound)
  double lambda = 0.0;    ///< max(|λ₂|, |λ_n|), clamped into [0, 1)
  int lanczos_iterations = 0;
};

/// Computes λ₂, λ_n and λ for a connected graph under weight policy WP.
/// Non-bipartite inputs get λ < 1; bipartite inputs report λ_n = −1 (the
/// caller should reject them for walk-based estimators, or run
/// EnsureNonBipartite first).
template <WeightPolicy WP>
SpectralBounds ComputeSpectralBoundsT(const typename WP::GraphT& graph);

/// Exact (dense Jacobi) spectral bounds for small graphs; test oracle.
template <WeightPolicy WP>
SpectralBounds ComputeSpectralBoundsDenseT(const typename WP::GraphT& graph);

/// Unweighted entry points (historical names).
inline SpectralBounds ComputeSpectralBounds(const Graph& graph) {
  return ComputeSpectralBoundsT<UnitWeight>(graph);
}
inline SpectralBounds ComputeSpectralBoundsDense(const Graph& graph) {
  return ComputeSpectralBoundsDenseT<UnitWeight>(graph);
}

/// Weighted entry points. With unit weights the results match the
/// unweighted functions on the skeleton exactly.
inline SpectralBounds ComputeWeightedSpectralBounds(
    const WeightedGraph& graph) {
  return ComputeSpectralBoundsT<EdgeWeight>(graph);
}
inline SpectralBounds ComputeWeightedSpectralBoundsDense(
    const WeightedGraph& graph) {
  return ComputeSpectralBoundsDenseT<EdgeWeight>(graph);
}

extern template SpectralBounds ComputeSpectralBoundsT<UnitWeight>(
    const Graph&);
extern template SpectralBounds ComputeSpectralBoundsT<EdgeWeight>(
    const WeightedGraph&);
extern template SpectralBounds ComputeSpectralBoundsDenseT<UnitWeight>(
    const Graph&);
extern template SpectralBounds ComputeSpectralBoundsDenseT<EdgeWeight>(
    const WeightedGraph&);

}  // namespace geer

#endif  // GEER_LINALG_SPECTRAL_H_
