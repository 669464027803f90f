#include "linalg/eig_sym.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "util/string_util.h"

namespace neuroprint::linalg {
namespace {

// QL iterations allowed per eigenvalue before giving up (EISPACK's cap).
constexpr int kMaxQlIterations = 30;

// sqrt(x^2 + y^2) without overflow, from IEEE operations only, so the bits
// do not depend on the platform's libm.
double Pythag(double x, double y) {
  const double ax = std::fabs(x);
  const double ay = std::fabs(y);
  const double big = std::max(ax, ay);
  if (big == 0.0) return 0.0;
  const double t = std::min(ax, ay) / big;
  return big * std::sqrt(1.0 + t * t);
}

// Householder reduction of the symmetric matrix in `w` to tridiagonal form
// (EISPACK tred2). On return d holds the diagonal, e[1..n) the
// subdiagonal (e[0] = 0), and row j of `w` the j-th column of the
// orthogonal Q with A = Q T Q^T. `w` enters as A; only its upper triangle
// is read. Row i of `w` holds the i-th Householder vector until the
// accumulation, so both phases walk rows.
void Tridiagonalize(Matrix& w, Vector& d, Vector& e) {
  const std::size_t n = w.rows();
  for (std::size_t j = 0; j < n; ++j) d[j] = w(j, n - 1);

  for (std::size_t i = n - 1; i > 0; --i) {
    double scale = 0.0;
    double h = 0.0;
    for (std::size_t k = 0; k < i; ++k) scale += std::fabs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (std::size_t j = 0; j < i; ++j) {
        d[j] = w(j, i - 1);
        w(j, i) = 0.0;
        w(i, j) = 0.0;
      }
    } else {
      // Householder vector u = x / scale - g e_{i-1}, stored in row i.
      for (std::size_t k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = std::sqrt(h);
      if (f > 0.0) g = -g;
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      for (std::size_t j = 0; j < i; ++j) e[j] = 0.0;

      // p = A u over the leading i x i block (its upper triangle).
      double* wi = w.RowPtr(i);
      for (std::size_t j = 0; j < i; ++j) {
        const double* wj = w.RowPtr(j);
        f = d[j];
        wi[j] = f;
        g = e[j] + wj[j] * f;
        for (std::size_t k = j + 1; k < i; ++k) {
          g += wj[k] * d[k];
          e[k] += wj[k] * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (std::size_t j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (std::size_t j = 0; j < i; ++j) e[j] -= hh * d[j];

      // Rank-2 update A -= u q^T + q u^T of the leading block.
      for (std::size_t j = 0; j < i; ++j) {
        double* wj = w.RowPtr(j);
        f = d[j];
        g = e[j];
        for (std::size_t k = j; k < i; ++k) wj[k] -= (f * e[k] + g * d[k]);
        d[j] = wj[i - 1];
        wj[i] = 0.0;
      }
    }
    d[i] = h;
  }

  // Accumulate the reflectors into Q, one leading block at a time.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    double* wi = w.RowPtr(i);
    wi[n - 1] = wi[i];
    wi[i] = 1.0;
    double* u = w.RowPtr(i + 1);
    const double h = d[i + 1];
    if (h != 0.0) {
      for (std::size_t k = 0; k <= i; ++k) d[k] = u[k] / h;
      for (std::size_t j = 0; j <= i; ++j) {
        double* wj = w.RowPtr(j);
        double g = 0.0;
        for (std::size_t k = 0; k <= i; ++k) g += u[k] * wj[k];
        for (std::size_t k = 0; k <= i; ++k) wj[k] -= g * d[k];
      }
    }
    for (std::size_t k = 0; k <= i; ++k) u[k] = 0.0;
  }
  for (std::size_t j = 0; j < n; ++j) {
    double* wj = w.RowPtr(j);
    d[j] = wj[n - 1];
    wj[n - 1] = 0.0;
  }
  w(n - 1, n - 1) = 1.0;
  e[0] = 0.0;
}

// Implicit-shift QL on the tridiagonal (d, e) from Tridiagonalize (EISPACK
// tql2). On success d holds the eigenvalues (unsorted) and row j of `w`
// the eigenvector of d[j]. Each rotation mixes rows i and i + 1 of `w`.
Status TridiagonalQl(Matrix& w, Vector& d, Vector& e) {
  const std::size_t n = w.rows();
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  const double eps = std::numeric_limits<double>::epsilon();
  double f = 0.0;
  double tst1 = 0.0;
  for (std::size_t l = 0; l < n; ++l) {
    // Find a negligible subdiagonal element e[m], m >= l (e[n-1] is 0).
    tst1 = std::max(tst1, std::fabs(d[l]) + std::fabs(e[l]));
    std::size_t m = l;
    while (m + 1 < n && std::fabs(e[m]) > eps * tst1) ++m;

    // m == l: d[l] is an eigenvalue already. Otherwise iterate.
    for (int iter = 0; m > l; ++iter) {
      if (iter == kMaxQlIterations) {
        return Status::NotConverged(StrFormat(
            "EigSym: QL not converged for eigenvalue %zu after %d iterations",
            l, kMaxQlIterations));
      }
      // Shift from the leading 2x2 block.
      double g = d[l];
      double p = (d[l + 1] - g) / (2.0 * e[l]);
      double r = Pythag(p, 1.0);
      if (p < 0.0) r = -r;
      d[l] = e[l] / (p + r);
      d[l + 1] = e[l] * (p + r);
      const double dl1 = d[l + 1];
      double h = g - d[l];
      for (std::size_t i = l + 2; i < n; ++i) d[i] -= h;
      f += h;

      // Implicit QL sweep from m - 1 down to l.
      p = d[m];
      double c = 1.0;
      double c2 = c;
      double c3 = c;
      const double el1 = e[l + 1];
      double s = 0.0;
      double s2 = 0.0;
      for (std::size_t i = m; i-- > l;) {
        c3 = c2;
        c2 = c;
        s2 = s;
        g = c * e[i];
        h = c * p;
        r = Pythag(p, e[i]);
        e[i + 1] = s * r;
        s = e[i] / r;
        c = p / r;
        p = c * d[i] - s * g;
        d[i + 1] = h + s * (c * g + s * d[i]);
        double* wi = w.RowPtr(i);
        double* wi1 = w.RowPtr(i + 1);
        for (std::size_t k = 0; k < n; ++k) {
          const double t = wi1[k];
          wi1[k] = s * wi[k] + c * t;
          wi[k] = c * wi[k] - s * t;
        }
      }
      p = -s * s2 * c3 * el1 * e[l] / dl1;
      e[l] = s * p;
      d[l] = c * p;
      if (std::fabs(e[l]) <= eps * tst1) break;
    }
    d[l] += f;
    e[l] = 0.0;
  }
  return Status::OK();
}

}  // namespace

Result<SymmetricEigenDecomposition> EigSym(const Matrix& a) {
  const std::size_t n = a.rows();
  if (a.cols() != n) {
    return Status::InvalidArgument("EigSym: matrix not square");
  }
  if (!a.AllFinite()) {
    return Status::InvalidArgument("EigSym: non-finite input");
  }
  const double scale = a.MaxAbs();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (std::fabs(a(i, j) - a(j, i)) > 1e-8 * std::max(1.0, scale)) {
        return Status::InvalidArgument(
            StrFormat("EigSym: input not symmetric at (%zu,%zu)", i, j));
      }
    }
  }

  SymmetricEigenDecomposition out;
  if (n == 0) return out;
  Matrix w = a;
  Vector d(n, 0.0);
  Vector e(n, 0.0);
  Tridiagonalize(w, d, e);
  NP_RETURN_IF_ERROR(TridiagonalQl(w, d, e));

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) { return d[x] > d[y]; });
  out.eigenvalues.assign(n, 0.0);
  out.eigenvectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.eigenvalues[j] = d[order[j]];
    const double* v = w.RowPtr(order[j]);
    for (std::size_t i = 0; i < n; ++i) out.eigenvectors(i, j) = v[i];
  }
  return out;
}

}  // namespace neuroprint::linalg
