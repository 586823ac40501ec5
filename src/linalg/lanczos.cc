#include "linalg/lanczos.h"

#include <algorithm>
#include <cmath>

#include "rw/rng.h"
#include "util/check.h"

namespace geer {
namespace {

// Iterations between certificate checks. A check is an O(k²) tridiagonal
// solve: run after every iteration it made the 4k-node facebook stand-in
// 1.6× slower. The stride costs at most 7 extra iterations.
constexpr int kCheckStride = 8;

// Eigenvalues of the symmetric tridiagonal matrix (diag, off) by QL with
// implicit shifts (standard tql1/tql2-style routine), overwriting `diag`
// unsorted. Of the eigenvector matrix only the LAST row is carried: the
// plane rotations act on each row independently, so `last` starts as
// e_kᵀ and ends holding e_kᵀs_j for the eigenvector s_j of (*diag)[j] —
// the weights of the Ritz residual bounds.
void TridiagonalEigen(std::vector<double>* diag_io, std::vector<double> off,
                      std::vector<double>* last) {
  std::vector<double>& diag = *diag_io;
  const int n = static_cast<int>(diag.size());
  last->assign(n, 0.0);
  if (n == 0) return;
  (*last)[n - 1] = 1.0;
  off.resize(n, 0.0);  // off[i] couples i and i+1; pad.
  for (int l = 0; l < n; ++l) {
    int iter = 0;
    int m = 0;
    do {
      for (m = l; m < n - 1; ++m) {
        const double dd = std::abs(diag[m]) + std::abs(diag[m + 1]);
        if (std::abs(off[m]) <= 1e-15 * dd) break;
      }
      if (m != l) {
        GEER_CHECK_LT(iter++, 100) << "tridiagonal QL failed to converge";
        double g = (diag[l + 1] - diag[l]) / (2.0 * off[l]);
        double r = std::hypot(g, 1.0);
        g = diag[m] - diag[l] + off[l] / (g + std::copysign(r, g));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        int i = m - 1;
        for (; i >= l; --i) {
          double f = s * off[i];
          const double b = c * off[i];
          r = std::hypot(f, g);
          off[i + 1] = r;
          if (r == 0.0) {
            diag[i + 1] -= p;
            off[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = diag[i + 1] - p;
          r = (diag[i] - g) * s + 2.0 * c * b;
          p = s * r;
          diag[i + 1] = g + p;
          g = c * r - b;
          f = (*last)[i + 1];
          (*last)[i + 1] = s * (*last)[i] + c * f;
          (*last)[i] = c * (*last)[i] - s * f;
        }
        if (r == 0.0 && i >= l) continue;
        diag[l] -= p;
        off[l] = g;
        off[m] = 0.0;
      }
    } while (m != l);
  }
}

void OrthogonalizeAgainst(const std::vector<Vector>& basis, Vector* v) {
  for (const Vector& b : basis) {
    const double coeff = Dot(b, *v);
    Axpy(-coeff, b, v);
  }
}

}  // namespace

LanczosResult LanczosExtremeEigenvalues(
    const std::function<void(const Vector&, Vector*)>& apply,
    std::size_t dim, const std::vector<Vector>& deflate,
    const LanczosOptions& options) {
  GEER_CHECK_GT(dim, 0u);
  LanczosResult result;

  // Random start vector, deflated and normalized.
  Vector v(dim, 0.0);
  Rng rng(options.seed);
  for (double& e : v) e = rng.NextDouble() - 0.5;
  OrthogonalizeAgainst(deflate, &v);
  double norm = Norm2(v);
  if (norm < options.tolerance) {
    // Deflation space covers the start vector (tiny graphs): retry once
    // with a different seed, else report the trivial subspace.
    Rng retry(options.seed + 0x51ed2700);
    for (double& e : v) e = retry.NextDouble() - 0.5;
    OrthogonalizeAgainst(deflate, &v);
    norm = Norm2(v);
    if (norm < options.tolerance) {
      result.converged = true;
      return result;
    }
  }
  Scale(1.0 / norm, &v);

  std::vector<Vector> basis;
  basis.push_back(v);
  std::vector<double> alpha;
  std::vector<double> beta;
  Vector w(dim, 0.0);
  const auto certified = [&options](double theta, double residual) {
    return residual <= options.tolerance * std::max(1.0, std::abs(theta));
  };

  const int max_iter =
      std::min<int>(options.max_iterations, static_cast<int>(dim));
  for (int j = 0; j < max_iter; ++j) {
    apply(basis.back(), &w);
    const double a = Dot(basis.back(), w);
    alpha.push_back(a);
    // w ← w − a·v_j − β_{j−1}·v_{j−1}, then fully reorthogonalize against
    // the deflation space and all previous basis vectors.
    Axpy(-a, basis.back(), &w);
    if (j > 0) Axpy(-beta.back(), basis[basis.size() - 2], &w);
    OrthogonalizeAgainst(deflate, &w);
    OrthogonalizeAgainst(basis, &w);
    const double b = Norm2(w);
    result.iterations = j + 1;
    // Residual bounds of the extreme Ritz pairs, on a stride (the
    // tridiagonal solve is O(k²)), at the cap, and on a breakdown: b
    // below the tolerance certifies both, so 1/b below is always safe.
    const bool last_step = j + 1 == max_iter;
    if ((j + 1) % kCheckStride == 0 || last_step || b < options.tolerance) {
      std::vector<double> ritz = alpha;
      std::vector<double> last;
      TridiagonalEigen(&ritz, beta, &last);
      const auto [lo, hi] = std::minmax_element(ritz.begin(), ritz.end());
      result.min_eigenvalue = *lo;
      result.max_eigenvalue = *hi;
      result.min_residual = b * std::abs(last[lo - ritz.begin()]);
      result.max_residual = b * std::abs(last[hi - ritz.begin()]);
      if (certified(result.min_eigenvalue, result.min_residual) &&
          certified(result.max_eigenvalue, result.max_residual)) {
        result.converged = true;
        break;
      }
    }
    if (last_step) break;
    beta.push_back(b);
    Scale(1.0 / b, &w);
    basis.push_back(w);
  }
  return result;
}

}  // namespace geer
