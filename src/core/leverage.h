// Leverage scores and the Principal Features Subspace method (the paper's
// Section 3.1.2, following Ravindra et al. 2018).
//
// For a group matrix A (features x subjects, m >> n), the leverage score
// of row i is l_i = ||U_{i,*}||^2 where U spans A's column space (Eq. 5).
// Deterministically keeping the t rows with the largest scores gives the
// principal features subspace — the compact set of connectome edges that
// carries the identity signature.

#ifndef NEUROPRINT_CORE_LEVERAGE_H_
#define NEUROPRINT_CORE_LEVERAGE_H_

#include <cstddef>
#include <vector>

#include "connectome/matrix_store.h"
#include "linalg/matrix.h"
#include "util/status.h"

namespace neuroprint::core {

/// Which computation actually produced the scores (out-param telemetry for
/// tests and tooling; see LeverageOptions::diagnostics).
struct LeverageDiagnostics {
  /// The Gram-eigendecomposition fast path ran to completion.
  bool used_gram_fast_path = false;
  /// The exact-SVD branch ran and its SVD took the thin-QR preconditioning
  /// fast path (expected for tall group matrices).
  bool svd_qr_preconditioned = false;
  /// The Gram eigendecomposition failed on the raw Gram (rank-deficient /
  /// non-converged) and succeeded on the ridge-jittered retry.
  bool gram_ridge_retried = false;
};

struct LeverageOptions {
  /// Number of left singular vectors to use. 0 means all of them (the full
  /// column space, the paper's choice); k < n restricts to the rank-k
  /// dominant subspace.
  std::size_t rank = 0;
  /// For tall matrices (rows >= 4 * cols) leverage scores are computed via
  /// the Gram matrix A^T A: eigendecompose the small n x n Gram, then
  /// l_i = || (A V)_i diag(1/sigma) ||^2. An order of magnitude faster than
  /// the full SVD at the paper's 64620 x 100 shape, exact up to squaring
  /// the condition number (validated against the SVD path in tests).
  /// Disable to force the SVD path.
  bool allow_gram_fast_path = true;
  /// Thread knob for the underlying kernels (never changes results).
  ParallelContext parallel;
  /// Optional telemetry sink; filled by ComputeLeverageScores when set.
  LeverageDiagnostics* diagnostics = nullptr;
};

/// Leverage scores of the rows of `a` (length a.rows(); each in [0, 1],
/// summing to min(rank, numerical rank)).
Result<linalg::Vector> ComputeLeverageScores(const linalg::Matrix& a,
                                             const LeverageOptions& options = {});

/// Leverage scores of a store: bitwise-identical to ComputeLeverageScores
/// of the materialized store in every configuration. A resident store
/// asked for no window (`stream.window_cols == 0`) is passed to
/// ComputeLeverageScores in place. Otherwise, when the Gram fast path
/// applies (tall shape, enabled), the whole computation streams —
/// StreamedGram over column windows, then row tiles projected by the fused
/// linalg::ProjectedRowSquaredNorms kernel, which never forms U — holding
/// only one slab plus the n x n Gram resident; other shapes materialize
/// the store and defer to the in-RAM implementation.
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
