// Leverage scores and the Principal Features Subspace method (the paper's
// Section 3.1.2, following Ravindra et al. 2018).
//
// For a group matrix A (features x subjects, m >> n), the leverage score
// of row i is l_i = ||U_{i,*}||^2 where U spans A's column space (Eq. 5).
// Deterministically keeping the t rows with the largest scores gives the
// principal features subspace — the compact set of connectome edges that
// carries the identity signature.
//
// U is never formed. A = U S V^T gives A^T A = V S^2 V^T, so the scores
// come from the small n x n Gram: eigendecompose it (linalg::EigSym), then
// l_i = ||a_i V diag(1/sigma)||^2 through the fused projection kernel. This
// is exact up to squaring the condition number; tests check it against an
// independent one-sided Jacobi SVD. Every m >= n input takes this path.

#ifndef NEUROPRINT_CORE_LEVERAGE_H_
#define NEUROPRINT_CORE_LEVERAGE_H_

#include <cstddef>
#include <vector>

#include "connectome/matrix_store.h"
#include "linalg/matrix.h"
#include "util/status.h"

namespace neuroprint::core {

struct LeverageOptions {
  /// Number of left singular vectors to use. 0 means all of them (the full
  /// column space, the paper's choice); k < n restricts to the rank-k
  /// dominant subspace.
  std::size_t rank = 0;
  /// Thread knob for the underlying kernels (never changes results).
  ParallelContext parallel;
};

/// Leverage scores of the rows of `a` (length a.rows(); each in [0, 1],
/// summing to min(rank, numerical rank)). Fails with InvalidArgument on an
/// empty, wide (rows < cols) or non-finite matrix, FailedPrecondition on a
/// numerically zero one, and with EigSym's status when the Gram does not
/// decompose even after a ridge retry.
Result<linalg::Vector> ComputeLeverageScores(const linalg::Matrix& a,
                                             const LeverageOptions& options = {});

/// Leverage scores of a store: bitwise-identical to ComputeLeverageScores
/// of the materialized store in every configuration. A resident store
/// asked for no window (`stream.window_cols == 0`) is passed to
/// ComputeLeverageScores in place. Every other store streams —
/// StreamedGram over column windows, then row tiles projected by the fused
/// linalg::ProjectedRowSquaredNorms kernel, which never forms U — holding
/// only one slab plus the n x n Gram resident; no store is materialized.
/// `stream.parallel` is ignored; `options.parallel` drives every kernel,
/// as in the in-RAM call.
Result<linalg::Vector> ComputeLeverageScoresStreamed(
    const connectome::MatrixStore& store, const LeverageOptions& options = {},
    const connectome::StreamOptions& stream = {});

/// Indices of the `t` rows with the largest leverage scores, in descending
/// score order (ties broken by index for determinism).
Result<std::vector<std::size_t>> TopLeverageFeatures(
    const linalg::Matrix& a, std::size_t t,
    const LeverageOptions& options = {});

/// Same, given precomputed scores.
std::vector<std::size_t> TopKIndices(const linalg::Vector& scores,
                                     std::size_t t);

}  // namespace neuroprint::core

#endif  // NEUROPRINT_CORE_LEVERAGE_H_
