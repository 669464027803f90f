#include "linalg/qr.h"

#include <cmath>
#include <vector>

#include "util/string_util.h"

namespace neuroprint::linalg {

Result<QrDecomposition> QrDecompose(const Matrix& a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (m < n) {
    return Status::InvalidArgument(
        StrFormat("QrDecompose requires rows >= cols, got %zux%zu", m, n));
  }
  if (n == 0) return QrDecomposition{Matrix(m, 0), Matrix(0, 0)};
  if (!a.AllFinite()) {
    return Status::InvalidArgument("QrDecompose: non-finite input");
  }

  // `work` accumulates the Householder vectors v_k in its lower trapezoid
  // (column k, rows k..m-1) while its strict upper part becomes R's
  // off-diagonal. R's diagonal entries are kept separately in `alpha`.
  //
  // Reflector applications are organized as two row-streaming passes over
  // the trailing submatrix (accumulate every column dot, then update every
  // column) instead of a column-at-a-time loop: row-major storage makes the
  // per-column form stride-n on every access. Each per-column dot still
  // sums in ascending row order, so the arithmetic is unchanged.
  Matrix work = a;
  std::vector<double> beta(n, 0.0);
  std::vector<double> alpha(n, 0.0);
  std::vector<double> dots(n, 0.0);

  for (std::size_t k = 0; k < n; ++k) {
    double norm2 = 0.0;
    for (std::size_t i = k; i < m; ++i) norm2 += work(i, k) * work(i, k);
    const double norm = std::sqrt(norm2);
    if (norm == 0.0) continue;  // beta = alpha = 0; singular column.

    const double akk = work(k, k);
    const double alpha_k = akk >= 0.0 ? -norm : norm;
    const double vk = akk - alpha_k;
    double vnorm2 = vk * vk;
    for (std::size_t i = k + 1; i < m; ++i) vnorm2 += work(i, k) * work(i, k);
    alpha[k] = alpha_k;
    if (vnorm2 == 0.0) continue;  // x was already alpha * e1.
    beta[k] = 2.0 / vnorm2;
    work(k, k) = vk;

    // Apply H_k = I - beta v v^T to the trailing columns: dots[j] = v . col j
    // (ascending i), then col j -= (beta * dots[j]) * v.
    std::fill(dots.begin() + static_cast<std::ptrdiff_t>(k) + 1, dots.end(),
              0.0);
    for (std::size_t i = k; i < m; ++i) {
      const double vik = work(i, k);
      const double* wrow = work.RowPtr(i);
      for (std::size_t j = k + 1; j < n; ++j) dots[j] += vik * wrow[j];
    }
    for (std::size_t j = k + 1; j < n; ++j) dots[j] *= beta[k];
    for (std::size_t i = k; i < m; ++i) {
      const double vik = work(i, k);
      double* wrow = work.RowPtr(i);
      for (std::size_t j = k + 1; j < n; ++j) wrow[j] -= dots[j] * vik;
    }
  }

  QrDecomposition out;
  out.r = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    out.r(i, i) = alpha[i];
    for (std::size_t j = i + 1; j < n; ++j) out.r(i, j) = work(i, j);
  }

  // Thin Q = H_0 H_1 ... H_{n-1} * [I_n; 0], applied reflector-by-reflector
  // from the last to the first, with the same two-pass row streaming.
  out.q = Matrix(m, n);
  for (std::size_t j = 0; j < n; ++j) out.q(j, j) = 1.0;
  for (std::size_t kk = n; kk > 0; --kk) {
    const std::size_t k = kk - 1;
    if (beta[k] == 0.0) continue;
    std::fill(dots.begin(), dots.end(), 0.0);
    for (std::size_t i = k; i < m; ++i) {
      const double vik = work(i, k);
      const double* qrow = out.q.RowPtr(i);
      for (std::size_t j = 0; j < n; ++j) dots[j] += vik * qrow[j];
    }
    for (std::size_t j = 0; j < n; ++j) dots[j] *= beta[k];
    for (std::size_t i = k; i < m; ++i) {
      const double vik = work(i, k);
      double* qrow = out.q.RowPtr(i);
      for (std::size_t j = 0; j < n; ++j) qrow[j] -= dots[j] * vik;
    }
  }
  return out;
}

Result<Vector> SolveUpperTriangular(const Matrix& r, const Vector& b) {
  const std::size_t n = r.rows();
  if (r.cols() != n) {
    return Status::InvalidArgument("SolveUpperTriangular: matrix not square");
  }
  if (b.size() != n) {
    return Status::InvalidArgument("SolveUpperTriangular: size mismatch");
  }
  Vector x(n, 0.0);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double sum = b[i];
    for (std::size_t j = i + 1; j < n; ++j) sum -= r(i, j) * x[j];
    const double d = r(i, i);
    if (std::fabs(d) < 1e-300) {
      return Status::FailedPrecondition(
          StrFormat("SolveUpperTriangular: zero pivot at %zu", i));
    }
    x[i] = sum / d;
  }
  return x;
}

Result<Vector> SolveLowerTriangular(const Matrix& l, const Vector& b) {
  const std::size_t n = l.rows();
  if (l.cols() != n) {
    return Status::InvalidArgument("SolveLowerTriangular: matrix not square");
  }
  if (b.size() != n) {
    return Status::InvalidArgument("SolveLowerTriangular: size mismatch");
  }
  Vector x(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t j = 0; j < i; ++j) sum -= l(i, j) * x[j];
    const double d = l(i, i);
    if (std::fabs(d) < 1e-300) {
      return Status::FailedPrecondition(
          StrFormat("SolveLowerTriangular: zero pivot at %zu", i));
    }
    x[i] = sum / d;
  }
  return x;
}

Result<Vector> LeastSquares(const Matrix& a, const Vector& b) {
  if (a.rows() != b.size()) {
    return Status::InvalidArgument("LeastSquares: size mismatch");
  }
  Result<QrDecomposition> qr = QrDecompose(a);
  if (!qr.ok()) return qr.status();
  const Vector qtb = MatTVec(qr->q, b);
  return SolveUpperTriangular(qr->r, qtb);
}

}  // namespace neuroprint::linalg
