// Lanczos iteration with full reorthogonalization for extreme eigenvalues
// of a symmetric operator. This replaces the paper's ARPACK dependency for
// the λ = max(|λ₂|, |λ_n|) preprocessing step (§3.1).
//
// The run stops on a certificate, not a budget. For a Ritz pair (θ, y = V·s)
// of the k-step tridiagonal T_k, ‖Op·y − θ·y‖ = β_k·|e_kᵀs|, so some
// eigenvalue of the operator lies within that residual bound of θ. The
// run ends once both extreme Ritz pairs have a residual bound at most
// `tolerance`·max(1, |θ|); a breakdown (β_k = 0, an invariant subspace)
// is the zero-residual case of the same rule. Callers pad the Ritz
// extremes outward by their residual bounds.
//
// Assumption: the seeded random start vector has a non-negligible
// component along each extreme eigenvector. The certificate says an
// eigenvalue lies near θ; it cannot say that a larger one was never seen
// by the Krylov space. This holds with probability 1 over the start
// vector, and a fixed-budget run rests on the same assumption.
// Kuczyński & Woźniakowski (SIMAX 1992) quantify the random-start case.

#ifndef GEER_LINALG_LANCZOS_H_
#define GEER_LINALG_LANCZOS_H_

#include <functional>
#include <vector>

#include "linalg/dense.h"

namespace geer {

/// Options controlling the Lanczos run.
struct LanczosOptions {
  int max_iterations = 200;  ///< Krylov dimension cap (safety net)
  double tolerance = 1e-10;  ///< relative residual bound that certifies
  std::uint64_t seed = 42;   ///< deterministic start vector
};

/// Result: extreme Ritz values of the operator restricted to the subspace
/// orthogonal to the supplied deflation vectors, with their residual
/// bounds. Under the header's start-vector assumption the extreme
/// eigenvalues lie in [min_eigenvalue − min_residual, min_eigenvalue] and
/// [max_eigenvalue, max_eigenvalue + max_residual].
struct LanczosResult {
  double max_eigenvalue = 0.0;  ///< largest Ritz value θ_max
  double min_eigenvalue = 0.0;  ///< smallest Ritz value θ_min
  double max_residual = 0.0;    ///< β_k·|e_kᵀs| of θ_max's Ritz pair
  double min_residual = 0.0;    ///< β_k·|e_kᵀs| of θ_min's Ritz pair
  int iterations = 0;           ///< Krylov dimension actually built
  /// Both residual bounds met the tolerance. False when the iteration
  /// cap ended the run; the residual bounds still hold, only wider.
  bool converged = false;
};

/// Runs Lanczos on the symmetric operator `apply` (y ← Op·x) of dimension
/// `dim`, deflating the (orthonormal) vectors in `deflate` — pass the
/// known top eigenvector to expose λ₂. Full reorthogonalization keeps the
/// basis numerically orthogonal; fine for the ≤ few-hundred iterations the
/// spectral preprocessing needs.
LanczosResult LanczosExtremeEigenvalues(
    const std::function<void(const Vector&, Vector*)>& apply,
    std::size_t dim, const std::vector<Vector>& deflate,
    const LanczosOptions& options = {});

}  // namespace geer

#endif  // GEER_LINALG_LANCZOS_H_
