// Symmetric eigendecomposition: Householder reduction to tridiagonal form,
// then implicit-shift QL iteration on the tridiagonal matrix (the EISPACK
// tred2/tql2 scheme; Golub & Van Loan, Matrix Computations, §8.3).
//
// Used by the leverage fit (eigenvectors of A^T A give the right singular
// vectors of A). The reduction costs ~(4/3) n^3 and accumulating it ~(4/3) n^3; each QL sweep
// is O(n) rotations of length n, and it converges in ~2 sweeps per
// eigenvalue. The solver is serial scalar code: its bits depend on the
// input alone, never on the thread count or the SIMD dispatch table.
// The transform is stored transposed, so every Householder update and every
// QL rotation walks contiguous rows. tests/ keeps a cyclic Jacobi solver as
// the accuracy oracle.

#ifndef NEUROPRINT_LINALG_EIG_SYM_H_
#define NEUROPRINT_LINALG_EIG_SYM_H_

#include "linalg/matrix.h"
#include "util/status.h"

namespace neuroprint::linalg {

/// Eigendecomposition A = V diag(lambda) V^T of a symmetric matrix, with
/// eigenvalues sorted in descending order and orthonormal columns in V.
struct SymmetricEigenDecomposition {
  Vector eigenvalues;
  Matrix eigenvectors;  ///< Column j pairs with eigenvalues[j].
};

/// Computes the eigendecomposition of a symmetric matrix from its upper
/// triangle. Fails on non-square, non-finite, or materially asymmetric
/// input (relative asymmetry > 1e-8), and with NotConverged if the QL
/// iteration for some eigenvalue exceeds a fixed iteration cap.
Result<SymmetricEigenDecomposition> EigSym(const Matrix& a);

}  // namespace neuroprint::linalg

#endif  // NEUROPRINT_LINALG_EIG_SYM_H_
