#include "linalg/svd.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "linalg/bidiag.h"
#include "linalg/qr.h"
#include "linalg/vector_ops.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace neuroprint::linalg {
namespace {

// Direct-path inputs with min(m, n) at or above this use the blocked
// panel bidiagonalization (level-3 trailing updates on the tiled GEMM
// path) instead of the classic single-vector reduction. Below it the
// level-3 machinery costs more than it saves.
constexpr std::size_t kBlockedBidiagMinDim = 64;

// Implicit-shift QR iterations allowed per singular value before the
// iteration is reported as stalled (NotConverged).
constexpr int kMaxIterationsPerValue = 60;

// Tall inputs with rows >= kQrPreconditionRatio * cols are factored A = QR
// first and the SVD runs on R (exact; saves the O(m n) sweeps on the long
// dimension).
constexpr double kQrPreconditionRatio = 1.6;

// sqrt(a^2 + b^2) without destructive underflow or overflow.
double Pythag(double a, double b) {
  const double absa = std::fabs(a);
  const double absb = std::fabs(b);
  if (absa > absb) {
    const double r = absb / absa;
    return absa * std::sqrt(1.0 + r * r);
  }
  if (absb == 0.0) return 0.0;
  const double r = absa / absb;
  return absb * std::sqrt(1.0 + r * r);
}

double SignOf(double magnitude, double sign_source) {
  return sign_source >= 0.0 ? std::fabs(magnitude) : -std::fabs(magnitude);
}

// Applies one Givens rotation to columns (ca, cb) of `mat`:
// (a, b) <- (a*c + b*s, b*c - a*s) per row. The update is elementwise
// per row, so the chunked parallel loop is bitwise identical to the
// serial one at any thread count.
void RotateColumns(Matrix& mat, std::size_t ca, std::size_t cb, double c,
                   double s, const ParallelContext& ctx) {
  ParallelFor(ctx, 0, mat.rows(), GrainForWork(4),
              [&](std::size_t lo, std::size_t hi) {
                for (std::size_t r = lo; r < hi; ++r) {
                  double* row = mat.RowPtr(r);
                  const double a = row[ca];
                  const double b = row[cb];
                  row[ca] = a * c + b * s;
                  row[cb] = b * c - a * s;
                }
              });
}

// Diagonalizes an upper-bidiagonal form by implicit-shift QR (the
// Golub–Kahan–Reinsch iteration): on entry w holds the n diagonal
// entries, rv1 the superdiagonal shifted down one slot (rv1[i] =
// B(i-1, i), rv1[0] = 0), u (m x n) and v (n x n) the accumulated
// transformations. On exit w holds the unordered non-negative singular
// values and u/v the rotated vectors. Shared by the classic
// single-vector reduction and the blocked panel reduction.
Status DiagonalizeBidiagonal(Matrix& u, Vector& w, std::vector<double>& rv1,
                             Matrix& v, const ParallelContext& ctx) {
  const int m = static_cast<int>(u.rows());
  const int n = static_cast<int>(u.cols());
  const double eps = std::numeric_limits<double>::epsilon();
  double anorm = 0.0;
  for (int i = 0; i < n; ++i) {
    anorm = std::max(anorm, std::fabs(w[static_cast<std::size_t>(i)]) +
                                std::fabs(rv1[static_cast<std::size_t>(i)]));
  }
  (void)m;

  std::uint64_t qr_its = 0;
  for (int k = n - 1; k >= 0; --k) {
    for (int its = 0;; ++its) {
      bool flag = true;
      int l = 0;
      int nm = 0;
      for (l = k; l >= 0; --l) {
        nm = l - 1;
        if (l == 0 || std::fabs(rv1[static_cast<std::size_t>(l)]) <=
                          eps * anorm) {
          flag = false;
          break;
        }
        if (std::fabs(w[static_cast<std::size_t>(nm)]) <= eps * anorm) break;
      }
      if (flag) {
        // Cancellation of rv1[l] when w[l-1] is negligible.
        double c = 0.0;
        double s = 1.0;
        for (int i = l; i < k + 1; ++i) {
          double f = s * rv1[static_cast<std::size_t>(i)];
          rv1[static_cast<std::size_t>(i)] =
              c * rv1[static_cast<std::size_t>(i)];
          if (std::fabs(f) <= eps * anorm) break;
          double g = w[static_cast<std::size_t>(i)];
          double h = Pythag(f, g);
          w[static_cast<std::size_t>(i)] = h;
          h = 1.0 / h;
          c = g * h;
          s = -f * h;
          RotateColumns(u, static_cast<std::size_t>(nm),
                        static_cast<std::size_t>(i), c, s, ctx);
        }
      }
      double z = w[static_cast<std::size_t>(k)];
      if (l == k) {
        // Convergence: make the singular value non-negative.
        if (z < 0.0) {
          w[static_cast<std::size_t>(k)] = -z;
          for (int j = 0; j < n; ++j) {
            v(static_cast<std::size_t>(j), static_cast<std::size_t>(k)) =
                -v(static_cast<std::size_t>(j), static_cast<std::size_t>(k));
          }
        }
        break;
      }
      if (its >= kMaxIterationsPerValue) {
        return Status::NotConverged(StrFormat(
            "SVD: no convergence for singular value %d after %d iterations",
            k, kMaxIterationsPerValue));
      }
      ++qr_its;
      // Shift from the bottom 2x2 minor.
      double x = w[static_cast<std::size_t>(l)];
      const int nm2 = k - 1;
      double y = w[static_cast<std::size_t>(nm2)];
      double g = rv1[static_cast<std::size_t>(nm2)];
      double h = rv1[static_cast<std::size_t>(k)];
      double f = ((y - z) * (y + z) + (g - h) * (g + h)) / (2.0 * h * y);
      g = Pythag(f, 1.0);
      f = ((x - z) * (x + z) + h * ((y / (f + SignOf(g, f))) - h)) / x;
      double c = 1.0;
      double s = 1.0;
      // QR transformation.
      for (int j = l; j <= nm2; ++j) {
        const int i = j + 1;
        g = rv1[static_cast<std::size_t>(i)];
        y = w[static_cast<std::size_t>(i)];
        h = s * g;
        g = c * g;
        z = Pythag(f, h);
        rv1[static_cast<std::size_t>(j)] = z;
        c = f / z;
        s = h / z;
        f = x * c + g * s;
        g = g * c - x * s;
        h = y * s;
        y *= c;
        RotateColumns(v, static_cast<std::size_t>(j),
                      static_cast<std::size_t>(i), c, s, ctx);
        z = Pythag(f, h);
        w[static_cast<std::size_t>(j)] = z;
        if (z != 0.0) {
          z = 1.0 / z;
          c = f * z;
          s = h * z;
        }
        f = c * g + s * y;
        x = c * y - s * g;
        RotateColumns(u, static_cast<std::size_t>(j),
                      static_cast<std::size_t>(i), c, s, ctx);
      }
      rv1[static_cast<std::size_t>(l)] = 0.0;
      rv1[static_cast<std::size_t>(k)] = f;
      w[static_cast<std::size_t>(k)] = x;
    }
  }
  // Runs exactly once per bidiagonal diagonalization (the
  // QR-preconditioned path recurses with force_direct before reaching
  // here), so this is the true shifted-QR work count.
  metrics::Count("svd.qr_iterations", qr_its);
  return Status::OK();
}

// Golub–Kahan–Reinsch SVD for m >= n. `u` holds A on entry and the left
// singular vectors (m x n) on exit; `w` gets the n singular values; `v` the
// right singular vectors (n x n). Classic algorithm (Golub & Reinsch 1970,
// as popularized by EISPACK/Numerical Recipes), 0-based.
Status GolubReinsch(Matrix& u, Vector& w, Matrix& v,
                    const ParallelContext& ctx) {
  const int m = static_cast<int>(u.rows());
  const int n = static_cast<int>(u.cols());
  w.assign(static_cast<std::size_t>(n), 0.0);
  v = Matrix(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  std::vector<double> rv1(static_cast<std::size_t>(n), 0.0);

  double g = 0.0, scale = 0.0, s = 0.0;
  int l = 0;

  // Householder reduction to bidiagonal form.
  for (int i = 0; i < n; ++i) {
    l = i + 2;
    rv1[i] = scale * g;
    g = s = scale = 0.0;
    if (i < m) {
      for (int k = i; k < m; ++k) scale += std::fabs(u(k, i));
      if (scale != 0.0) {
        for (int k = i; k < m; ++k) {
          u(k, i) /= scale;
          s += u(k, i) * u(k, i);
        }
        double f = u(i, i);
        g = -SignOf(std::sqrt(s), f);
        const double h = f * g - s;
        u(i, i) = f - g;
        for (int j = l - 1; j < n; ++j) {
          s = 0.0;
          for (int k = i; k < m; ++k) s += u(k, i) * u(k, j);
          f = s / h;
          for (int k = i; k < m; ++k) u(k, j) += f * u(k, i);
        }
        for (int k = i; k < m; ++k) u(k, i) *= scale;
      }
    }
    w[i] = scale * g;
    g = s = scale = 0.0;
    if (i + 1 <= m && i + 1 != n) {
      for (int k = l - 1; k < n; ++k) scale += std::fabs(u(i, k));
      if (scale != 0.0) {
        for (int k = l - 1; k < n; ++k) {
          u(i, k) /= scale;
          s += u(i, k) * u(i, k);
        }
        double f = u(i, l - 1);
        g = -SignOf(std::sqrt(s), f);
        const double h = f * g - s;
        u(i, l - 1) = f - g;
        for (int k = l - 1; k < n; ++k) rv1[k] = u(i, k) / h;
        for (int j = l - 1; j < m; ++j) {
          s = 0.0;
          for (int k = l - 1; k < n; ++k) s += u(j, k) * u(i, k);
          for (int k = l - 1; k < n; ++k) u(j, k) += s * rv1[k];
        }
        for (int k = l - 1; k < n; ++k) u(i, k) *= scale;
      }
    }
  }

  // Accumulation of right-hand transformations.
  for (int i = n - 1; i >= 0; --i) {
    if (i < n - 1) {
      if (g != 0.0) {
        for (int j = l; j < n; ++j) v(j, i) = (u(i, j) / u(i, l)) / g;
        for (int j = l; j < n; ++j) {
          s = 0.0;
          for (int k = l; k < n; ++k) s += u(i, k) * v(k, j);
          for (int k = l; k < n; ++k) v(k, j) += s * v(k, i);
        }
      }
      for (int j = l; j < n; ++j) v(i, j) = v(j, i) = 0.0;
    }
    v(i, i) = 1.0;
    g = rv1[i];
    l = i;
  }

  // Accumulation of left-hand transformations.
  for (int i = std::min(m, n) - 1; i >= 0; --i) {
    l = i + 1;
    g = w[i];
    for (int j = l; j < n; ++j) u(i, j) = 0.0;
    if (g != 0.0) {
      g = 1.0 / g;
      for (int j = l; j < n; ++j) {
        s = 0.0;
        for (int k = l; k < m; ++k) s += u(k, i) * u(k, j);
        const double f = (s / u(i, i)) * g;
        for (int k = i; k < m; ++k) u(k, j) += f * u(k, i);
      }
      for (int j = i; j < m; ++j) u(j, i) *= g;
    } else {
      for (int j = i; j < m; ++j) u(j, i) = 0.0;
    }
    ++u(i, i);
  }

  return DiagonalizeBidiagonal(u, w, rv1, v, ctx);
}

// Sorts singular values into descending order, permuting the columns of U
// and V to match.
void SortDescending(SvdDecomposition& d) {
  const std::size_t k = d.s.size();
  std::vector<std::size_t> order(k);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return d.s[a] > d.s[b]; });

  Vector sorted_s(k);
  Matrix sorted_u(d.u.rows(), k);
  Matrix sorted_v(d.v.rows(), k);
  for (std::size_t out = 0; out < k; ++out) {
    const std::size_t in = order[out];
    sorted_s[out] = d.s[in];
    for (std::size_t i = 0; i < d.u.rows(); ++i) sorted_u(i, out) = d.u(i, in);
    for (std::size_t i = 0; i < d.v.rows(); ++i) sorted_v(i, out) = d.v(i, in);
  }
  d.s = std::move(sorted_s);
  d.u = std::move(sorted_u);
  d.v = std::move(sorted_v);
}

Result<SvdDecomposition> SvdTall(const Matrix& a, const SvdOptions& options) {
  // a has rows >= cols here.
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();

  if (!options.force_direct &&
      static_cast<double>(m) >=
          kQrPreconditionRatio * static_cast<double>(n) &&
      n > 0) {
    // Tall-skinny fast path: A = Q R, SVD(R) = Ur S V^T, so
    // A = (Q Ur) S V^T exactly.
    Result<QrDecomposition> qr = QrDecompose(a);
    if (!qr.ok()) return qr.status();
    SvdOptions inner = options;
    inner.force_direct = true;
    Result<SvdDecomposition> rsvd = SvdTall(qr->r, inner);
    if (!rsvd.ok()) return rsvd.status();
    SvdDecomposition out;
    out.u = MatMul(qr->q, rsvd->u, options.parallel);
    out.s = std::move(rsvd->s);
    out.v = std::move(rsvd->v);
    out.qr_preconditioned = true;
    out.blocked_bidiag = rsvd->blocked_bidiag;
    return out;
  }

  SvdDecomposition d;
  if (options.bidiag_panel != 1 && n >= kBlockedBidiagMinDim) {
    // Blocked panel bidiagonalization: the trailing-matrix work runs as
    // level-3 products on the tiled GEMM path, then the shared QR
    // iteration diagonalizes the explicit U B V^T factorization.
    BidiagOptions bopt;
    bopt.panel = options.bidiag_panel;
    bopt.parallel = options.parallel;
    Result<BidiagFactorization> f = BlockedBidiagonalize(a, bopt);
    if (!f.ok()) return f.status();
    std::vector<double> rv1(n, 0.0);
    for (std::size_t i = 0; i + 1 < n; ++i) rv1[i + 1] = f->e[i];
    d.u = std::move(f->u);
    d.s = std::move(f->d);
    d.v = std::move(f->v);
    d.blocked_bidiag = true;
    metrics::Count("svd.blocked_bidiag", 1);
    const Status status =
        DiagonalizeBidiagonal(d.u, d.s, rv1, d.v, options.parallel);
    if (!status.ok()) return status;
  } else {
    d.u = a;
    const Status status = GolubReinsch(d.u, d.s, d.v, options.parallel);
    if (!status.ok()) return status;
  }
  SortDescending(d);
  return d;
}

}  // namespace

Matrix SvdDecomposition::Reconstruct() const {
  Matrix us = u;
  for (std::size_t i = 0; i < us.rows(); ++i) {
    for (std::size_t j = 0; j < us.cols(); ++j) us(i, j) *= s[j];
  }
  return MatMulT(us, v);
}

std::size_t SvdDecomposition::Rank(double rel_tol) const {
  if (s.empty() || s[0] <= 0.0) return 0;
  const double cutoff = rel_tol * s[0];
  std::size_t rank = 0;
  for (double value : s) {
    if (value > cutoff) ++rank;
  }
  return rank;
}

Result<SvdDecomposition> Svd(const Matrix& a, const SvdOptions& options) {
  NP_TRACE_SCOPE("linalg.svd");
  metrics::Count("svd.calls", 1);
  if (!a.AllFinite()) {
    return Status::InvalidArgument("Svd: non-finite input");
  }
  if (a.rows() == 0 || a.cols() == 0) {
    SvdDecomposition d;
    d.u = Matrix(a.rows(), 0);
    d.v = Matrix(a.cols(), 0);
    return d;
  }
  if (a.rows() >= a.cols()) {
    Result<SvdDecomposition> d = SvdTall(a, options);
    if (d.ok() && d->qr_preconditioned) {
      metrics::Count("svd.qr_preconditioned", 1);
    }
    return d;
  }

  // Wide input: SVD of A^T swaps the roles of U and V.
  Result<SvdDecomposition> t = SvdTall(a.Transposed(), options);
  if (!t.ok()) return t.status();
  SvdDecomposition d;
  d.u = std::move(t->v);
  d.s = std::move(t->s);
  d.v = std::move(t->u);
  d.qr_preconditioned = t->qr_preconditioned;
  d.blocked_bidiag = t->blocked_bidiag;
  if (d.qr_preconditioned) metrics::Count("svd.qr_preconditioned", 1);
  return d;
}

Result<SvdDecomposition> JacobiSvd(const Matrix& a, int max_sweeps) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (m < n) {
    return Status::InvalidArgument("JacobiSvd requires rows >= cols");
  }
  if (!a.AllFinite()) {
    return Status::InvalidArgument("JacobiSvd: non-finite input");
  }

  // Hestenes one-sided Jacobi: orthogonalize the columns of W = A V by
  // plane rotations; singular values are the final column norms.
  Matrix w = a;
  Matrix v = Matrix::Identity(n);
  const double eps = std::numeric_limits<double>::epsilon();

  bool converged = n < 2;
  for (int sweep = 0; sweep < max_sweeps && !converged; ++sweep) {
    converged = true;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        double alpha = 0.0, beta = 0.0, gamma = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          alpha += w(i, p) * w(i, p);
          beta += w(i, q) * w(i, q);
          gamma += w(i, p) * w(i, q);
        }
        if (std::fabs(gamma) <= eps * std::sqrt(alpha * beta) || gamma == 0.0) {
          continue;
        }
        converged = false;
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t =
            SignOf(1.0, zeta) / (std::fabs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (std::size_t i = 0; i < m; ++i) {
          const double wp = w(i, p);
          const double wq = w(i, q);
          w(i, p) = c * wp - s * wq;
          w(i, q) = s * wp + c * wq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double vp = v(i, p);
          const double vq = v(i, q);
          v(i, p) = c * vp - s * vq;
          v(i, q) = s * vp + c * vq;
        }
      }
    }
  }
  if (!converged) {
    return Status::NotConverged(
        StrFormat("JacobiSvd: not converged after %d sweeps", max_sweeps));
  }

  SvdDecomposition d;
  d.s.assign(n, 0.0);
  d.u = Matrix(m, n);
  d.v = std::move(v);
  for (std::size_t j = 0; j < n; ++j) {
    double norm = 0.0;
    for (std::size_t i = 0; i < m; ++i) norm += w(i, j) * w(i, j);
    norm = std::sqrt(norm);
    d.s[j] = norm;
    if (norm > 0.0) {
      for (std::size_t i = 0; i < m; ++i) d.u(i, j) = w(i, j) / norm;
    }
  }
  SortDescending(d);
  return d;
}

Result<Vector> SingularValues(const Matrix& a) {
  Result<SvdDecomposition> d = Svd(a);
  if (!d.ok()) return d.status();
  return std::move(d->s);
}

Result<Matrix> PseudoInverse(const Matrix& a, double rel_tol) {
  Result<SvdDecomposition> d = Svd(a);
  if (!d.ok()) return d.status();
  const double cutoff = d->s.empty() ? 0.0 : rel_tol * d->s[0];
  // pinv(A) = V diag(1/s) U^T.
  Matrix vs = d->v;
  for (std::size_t j = 0; j < vs.cols(); ++j) {
    const double inv = d->s[j] > cutoff ? 1.0 / d->s[j] : 0.0;
    for (std::size_t i = 0; i < vs.rows(); ++i) vs(i, j) *= inv;
  }
  return MatMulT(vs, d->u);
}

}  // namespace neuroprint::linalg
