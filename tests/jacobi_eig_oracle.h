// Cyclic Jacobi eigensolver for symmetric matrices: the accuracy oracle for
// linalg::EigSym (tridiagonal QL). Jacobi is slow — O(n^3) per sweep, a
// handful of sweeps — but it reaches full relative accuracy on every
// eigenpair by a route that shares no code with the solver under test.

#ifndef NEUROPRINT_TESTS_JACOBI_EIG_ORACLE_H_
#define NEUROPRINT_TESTS_JACOBI_EIG_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <optional>
#include <vector>

#include "linalg/eig_sym.h"
#include "linalg/matrix.h"

namespace neuroprint::linalg {

/// Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations,
/// eigenvalues descending, column j of the eigenvectors paired with
/// eigenvalue j. Returns nullopt if `max_sweeps` sweeps do not converge.
inline std::optional<SymmetricEigenDecomposition> JacobiEigSym(
    const Matrix& a, int max_sweeps = 100) {
  const std::size_t n = a.rows();
  Matrix m = a;
  Matrix v = Matrix::Identity(n);

  auto off_diagonal_norm = [&]() {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) sum += m(i, j) * m(i, j);
    }
    return std::sqrt(2.0 * sum);
  };

  const double tol = 1e-14 * std::max(1.0, m.FrobeniusNorm());
  bool converged = n < 2 || off_diagonal_norm() <= tol;
  for (int sweep = 0; sweep < max_sweeps && !converged; ++sweep) {
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = m(p, q);
        if (std::fabs(apq) <= tol / static_cast<double>(n)) continue;
        const double app = m(p, p);
        const double aqq = m(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // Apply the rotation J(p, q, theta) on both sides: M <- J^T M J.
        for (std::size_t k = 0; k < n; ++k) {
          const double mkp = m(k, p);
          const double mkq = m(k, q);
          m(k, p) = c * mkp - s * mkq;
          m(k, q) = s * mkp + c * mkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double mpk = m(p, k);
          const double mqk = m(q, k);
          m(p, k) = c * mpk - s * mqk;
          m(q, k) = s * mpk + c * mqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v(k, p);
          const double vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
    converged = off_diagonal_norm() <= tol;
  }
  if (!converged) return std::nullopt;

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return m(x, x) > m(y, y);
                   });
  SymmetricEigenDecomposition out;
  out.eigenvalues.assign(n, 0.0);
  out.eigenvectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.eigenvalues[j] = m(order[j], order[j]);
    for (std::size_t i = 0; i < n; ++i) {
      out.eigenvectors(i, j) = v(i, order[j]);
    }
  }
  return out;
}

}  // namespace neuroprint::linalg

#endif  // NEUROPRINT_TESTS_JACOBI_EIG_ORACLE_H_
