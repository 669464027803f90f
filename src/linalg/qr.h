// Householder QR decomposition.
//
// For a tall matrix A (m >= n) computes A = Q R with Q m x n having
// orthonormal columns (thin Q) and R n x n upper-triangular. Used for
// least squares.

#ifndef NEUROPRINT_LINALG_QR_H_
#define NEUROPRINT_LINALG_QR_H_

#include "linalg/matrix.h"
#include "util/status.h"

namespace neuroprint::linalg {

/// Result of a thin QR factorization.
struct QrDecomposition {
  Matrix q;  ///< m x n, orthonormal columns.
  Matrix r;  ///< n x n, upper triangular.
};

/// Thin Householder QR of `a` (requires rows >= cols).
Result<QrDecomposition> QrDecompose(const Matrix& a);

/// Solves R x = b by back substitution, where `r` is n x n upper
/// triangular. Fails if a diagonal entry is (near) zero.
Result<Vector> SolveUpperTriangular(const Matrix& r, const Vector& b);

/// Solves L x = b by forward substitution, where `l` is n x n lower
/// triangular. Fails if a diagonal entry is (near) zero.
Result<Vector> SolveLowerTriangular(const Matrix& l, const Vector& b);

/// Least-squares solution of min ||A x - b||_2 via QR (requires
/// rows >= cols and full column rank).
Result<Vector> LeastSquares(const Matrix& a, const Vector& b);

}  // namespace neuroprint::linalg

#endif  // NEUROPRINT_LINALG_QR_H_
