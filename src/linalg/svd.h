// Singular value decomposition.
//
// Svd() computes a thin SVD A = U diag(s) V^T with singular values in
// descending order. The default algorithm is Golub–Kahan–Reinsch
// (Householder bidiagonalization + implicit-shift QR on the bidiagonal),
// with an automatic thin-QR preconditioning step for tall-skinny inputs —
// the shape of the paper's 64620 x 100 group matrices. A one-sided Jacobi
// implementation is provided as an independent cross-check used in tests.

#ifndef NEUROPRINT_LINALG_SVD_H_
#define NEUROPRINT_LINALG_SVD_H_

#include "linalg/matrix.h"
#include "util/status.h"

namespace neuroprint::linalg {

/// Thin SVD of an m x n matrix: u is m x k, s has k entries (descending,
/// non-negative), v is n x k, where k = min(m, n).
struct SvdDecomposition {
  Matrix u;
  Vector s;
  Matrix v;

  /// True if the thin-QR preconditioning fast path produced this
  /// decomposition (telemetry: lets callers and tests verify the tall-
  /// skinny path was actually taken).
  bool qr_preconditioned = false;

  /// True if the blocked panel bidiagonalization (level-3 trailing
  /// updates) produced the bidiagonal form (telemetry, like
  /// qr_preconditioned).
  bool blocked_bidiag = false;

  /// Reconstructs U diag(s) V^T (for tests and diagnostics).
  Matrix Reconstruct() const;

  /// Numerical rank: number of singular values > tol * s[0].
  std::size_t Rank(double rel_tol = 1e-12) const;
};

struct SvdOptions {
  /// Disables the thin-QR preconditioning that tall inputs (rows >= 1.6 *
  /// cols) otherwise take (for testing the direct path on tall input).
  bool force_direct = false;
  /// Panel width of the blocked Householder bidiagonalization used on
  /// the direct path when min(rows, cols) >= 64 (trailing updates become
  /// tiled level-3 GEMMs on the thread pool). 0 = auto (32 columns),
  /// 1 = force the classic unblocked single-vector reduction,
  /// >= 2 = explicit panel width.
  std::size_t bidiag_panel = 0;
  /// Thread knob for the gemm-shaped steps (never changes results).
  ParallelContext parallel;
};

/// Computes the thin SVD. Fails with InvalidArgument on non-finite input
/// and NotConverged if the QR iteration stalls (pathological inputs).
Result<SvdDecomposition> Svd(const Matrix& a, const SvdOptions& options = {});

/// One-sided Jacobi SVD (Hestenes). Slower but independently derived;
/// requires rows >= cols. Used to cross-validate Svd() in tests.
Result<SvdDecomposition> JacobiSvd(const Matrix& a, int max_sweeps = 60);

/// Singular values only (descending), via Svd().
Result<Vector> SingularValues(const Matrix& a);

/// Moore–Penrose pseudo-inverse via the thin SVD; singular values below
/// rel_tol * s_max are treated as zero.
Result<Matrix> PseudoInverse(const Matrix& a, double rel_tol = 1e-12);

}  // namespace neuroprint::linalg

#endif  // NEUROPRINT_LINALG_SVD_H_
