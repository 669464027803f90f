// One-sided Jacobi SVD (Hestenes): the accuracy oracle for the leverage
// scores, which the library computes from the Gram's eigendecomposition
// and never from an SVD. Jacobi is slow — O(m n^2) per sweep, a handful of
// sweeps — but it orthogonalizes the columns of A itself, so it never
// squares the condition number and shares no code with the solver under
// test.

#ifndef NEUROPRINT_TESTS_SVD_ORACLE_H_
#define NEUROPRINT_TESTS_SVD_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "linalg/matrix.h"
#include "util/status.h"
#include "util/string_util.h"

namespace neuroprint::linalg {

/// Thin SVD of an m x n matrix: u is m x k, s has k entries (descending,
/// non-negative), v is n x k, where k = min(m, n).
struct SvdDecomposition {
  Matrix u;
  Vector s;
  Matrix v;

  /// U diag(s) V^T.
  Matrix Reconstruct() const {
    Matrix us = u;
    for (std::size_t i = 0; i < us.rows(); ++i) {
      for (std::size_t j = 0; j < us.cols(); ++j) us(i, j) *= s[j];
    }
    return MatMulT(us, v);
  }

  /// Numerical rank: number of singular values > rel_tol * s[0].
  std::size_t Rank(double rel_tol = 1e-12) const {
    if (s.empty() || s[0] <= 0.0) return 0;
    return static_cast<std::size_t>(
        std::count_if(s.begin(), s.end(),
                      [&](double value) { return value > rel_tol * s[0]; }));
  }
};

/// Thin SVD by one-sided Jacobi rotations: orthogonalize the columns of
/// W = A V by plane rotations; the singular values are the final column
/// norms. A wide input is decomposed through its transpose. Fails with
/// InvalidArgument on non-finite input and NotConverged if `max_sweeps`
/// sweeps do not orthogonalize every column pair.
inline Result<SvdDecomposition> JacobiSvd(const Matrix& a,
                                          int max_sweeps = 60) {
  if (!a.AllFinite()) {
    return Status::InvalidArgument("JacobiSvd: non-finite input");
  }
  if (a.rows() < a.cols()) {
    auto t = JacobiSvd(a.Transposed(), max_sweeps);
    if (t.ok()) std::swap(t->u, t->v);
    return t;
  }
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  // Column j of W is row j of wt (and of V, row j of vt), so every dot
  // product and rotation walks contiguous memory.
  Matrix wt = a.Transposed();
  Matrix vt = Matrix::Identity(n);
  const double eps = std::numeric_limits<double>::epsilon();

  bool converged = n < 2;
  for (int sweep = 0; sweep < max_sweeps && !converged; ++sweep) {
    converged = true;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        double* wp = wt.RowPtr(p);
        double* wq = wt.RowPtr(q);
        double alpha = 0.0, beta = 0.0, gamma = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          alpha += wp[i] * wp[i];
          beta += wq[i] * wq[i];
          gamma += wp[i] * wq[i];
        }
        if (std::fabs(gamma) <= eps * std::sqrt(alpha * beta) ||
            gamma == 0.0) {
          continue;
        }
        converged = false;
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (std::size_t i = 0; i < m; ++i) {
          const double xp = wp[i];
          const double xq = wq[i];
          wp[i] = c * xp - s * xq;
          wq[i] = s * xp + c * xq;
        }
        double* vp = vt.RowPtr(p);
        double* vq = vt.RowPtr(q);
        for (std::size_t i = 0; i < n; ++i) {
          const double xp = vp[i];
          const double xq = vq[i];
          vp[i] = c * xp - s * xq;
          vq[i] = s * xp + c * xq;
        }
      }
    }
  }
  if (!converged) {
    return Status::NotConverged(
        StrFormat("JacobiSvd: not converged after %d sweeps", max_sweeps));
  }

  Vector norms(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const double* w = wt.RowPtr(j);
    double sum = 0.0;
    for (std::size_t i = 0; i < m; ++i) sum += w[i] * w[i];
    norms[j] = std::sqrt(sum);
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t x,
                                                   std::size_t y) {
    return norms[x] > norms[y];
  });
  SvdDecomposition d;
  d.s.assign(n, 0.0);
  d.u = Matrix(m, n);
  d.v = Matrix(n, n);
  for (std::size_t out = 0; out < n; ++out) {
    const std::size_t j = order[out];
    d.s[out] = norms[j];
    const double* w = wt.RowPtr(j);
    if (norms[j] > 0.0) {
      for (std::size_t i = 0; i < m; ++i) d.u(i, out) = w[i] / norms[j];
    }
    for (std::size_t i = 0; i < n; ++i) d.v(i, out) = vt(j, i);
  }
  return d;
}

/// Leverage scores from the oracle: squared row norms of U over the
/// singular values above rel_tol * s[0] (the library's rank cutoff).
inline Result<Vector> OracleLeverageScores(const Matrix& a,
                                           double rel_tol = 1e-12) {
  auto svd = JacobiSvd(a);
  if (!svd.ok()) return svd.status();
  const std::size_t k = svd->Rank(rel_tol);
  Vector scores(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      scores[i] += svd->u(i, j) * svd->u(i, j);
    }
  }
  return scores;
}

}  // namespace neuroprint::linalg

#endif  // NEUROPRINT_TESTS_SVD_ORACLE_H_
