#include "core/leverage.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "linalg/eig_sym.h"
#include "linalg/gemm_kernel.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace neuroprint::core {
namespace {

// EigSym under its own span, so a trace splits the leverage fit into
// Gram, eigendecomposition and projection.
Result<linalg::SymmetricEigenDecomposition> TracedEigSym(
    const linalg::Matrix& gram) {
  NP_TRACE_SCOPE("leverage.eig");
  return linalg::EigSym(gram);
}

// The shared core of the in-RAM and streamed calls: A = U S V^T implies
// A^T A = V S^2 V^T, so the scaled projection basis V diag(1/sigma) over
// the leading k columns maps A onto U. Consumes the Gram by value
// (the ridge retry mutates it).
Result<linalg::Matrix> LeverageBasisFromGram(linalg::Matrix gram,
                                             const LeverageOptions& options) {
  const std::size_t n = gram.rows();
  auto eig = TracedEigSym(gram);
  if (!eig.ok()) {
    // Rank-deficient / non-converged Gram: retry once with a tiny ridge
    // (relative to the largest diagonal entry) before giving up. The
    // ridge only perturbs the near-null directions the rank cutoff below
    // discards. A non-finite A leaves a non-finite Gram, which EigSym
    // rejects with InvalidArgument and no ridge can repair.
    double max_diag = 0.0;
    for (std::size_t i = 0; i < gram.rows(); ++i) {
      max_diag = std::max(max_diag, std::abs(gram(i, i)));
    }
    if (!(max_diag > 0.0) || !std::isfinite(max_diag)) return eig.status();
    const double ridge = 1e-12 * max_diag;
    for (std::size_t i = 0; i < gram.rows(); ++i) gram(i, i) += ridge;
    eig = TracedEigSym(gram);
    if (!eig.ok()) return eig.status();
    metrics::Count("leverage.gram_ridge_retries", 1);
  }
  const linalg::Vector& eigenvalues = eig->eigenvalues;
  if (eigenvalues.empty() || eigenvalues[0] <= 0.0) {
    return Status::FailedPrecondition(
        "ComputeLeverageScores: matrix is numerically zero");
  }
  // Rank cutoff: eigenvalues of A^T A are squared singular values, so the
  // relative tolerance is squared as well.
  const double cutoff = 1e-24 * eigenvalues[0];
  std::size_t k = 0;
  while (k < eigenvalues.size() && eigenvalues[k] > cutoff) ++k;
  if (options.rank > 0) k = std::min(k, options.rank);

  // Scaled projection basis: V diag(1/sigma) over the leading k columns.
  linalg::Matrix basis(n, k);
  for (std::size_t j = 0; j < k; ++j) {
    const double inv_sigma = 1.0 / std::sqrt(eigenvalues[j]);
    for (std::size_t i = 0; i < n; ++i) {
      basis(i, j) = eig->eigenvectors(i, j) * inv_sigma;
    }
  }
  metrics::SetGauge("leverage.rank", static_cast<double>(k));
  return basis;
}

// The projection step, shared by the in-RAM and the streamed call:
// l_i = ||a_i basis||^2, one row tile of A at a time, each tile through the
// fused kernel so the m x k U is never formed.
// `view_rows(r0, rows, &slab)` yields rows [r0, r0 + rows) of A at full
// width. Row tiles are independent row blocks of the same product, so the
// scores do not depend on the tile height.
template <typename ViewRows>
Result<linalg::Vector> ProjectOntoBasis(const linalg::Matrix& basis,
                                        std::size_t m, std::size_t tile,
                                        const ViewRows& view_rows,
                                        const ParallelContext& parallel) {
  NP_TRACE_SCOPE("leverage.project");
  linalg::Vector scores(m);
  linalg::Matrix slab;
  for (std::size_t r0 = 0; r0 < m; r0 += tile) {
    const linalg::Matrix* rows = nullptr;
    NP_ASSIGN_OR_RETURN(rows, view_rows(r0, std::min(tile, m - r0), &slab));
    linalg::ProjectedRowSquaredNorms(*rows, basis, scores.data() + r0,
                                     parallel);
  }
  return scores;
}

}  // namespace

Result<linalg::Vector> ComputeLeverageScores(const linalg::Matrix& a,
                                             const LeverageOptions& options) {
  NP_TRACE_SCOPE("leverage.compute");
  metrics::Count("leverage.calls", 1);
  if (a.rows() == 0 || a.cols() == 0) {
    return Status::InvalidArgument("ComputeLeverageScores: empty matrix");
  }
  if (a.rows() < a.cols()) {
    return Status::InvalidArgument(
        "ComputeLeverageScores: expects a tall features-by-subjects matrix");
  }
  // Two m*n^2 gemm-like passes plus an n x n eigendecomposition; in RAM,
  // A is one row tile.
  linalg::Matrix gram = [&] {
    NP_TRACE_SCOPE("leverage.gram");
    return linalg::Gram(a, options.parallel);
  }();
  auto basis = LeverageBasisFromGram(std::move(gram), options);
  if (!basis.ok()) return basis.status();
  return ProjectOntoBasis(
      *basis, a.rows(), a.rows(),
      [&a](std::size_t, std::size_t,
           linalg::Matrix*) -> Result<const linalg::Matrix*> { return &a; },
      options.parallel);
}

Result<linalg::Vector> ComputeLeverageScoresStreamed(
    const connectome::MatrixStore& store, const LeverageOptions& options,
    const connectome::StreamOptions& stream) {
  // A resident store asked for no window is read in place: nothing to
  // stream, so it is not counted as a streamed call.
  const linalg::Matrix* resident = store.resident();
  if (resident != nullptr && stream.window_cols == 0) {
    return ComputeLeverageScores(*resident, options);
  }
  NP_TRACE_SCOPE("leverage.compute_streamed");
  metrics::Count("leverage.streamed_calls", 1);
  const std::size_t m = store.num_features();
  const std::size_t n = store.num_subjects();
  if (m == 0 || n == 0) {
    return Status::InvalidArgument("ComputeLeverageScores: empty matrix");
  }
  if (m < n) {
    return Status::InvalidArgument(
        "ComputeLeverageScores: expects a tall features-by-subjects matrix");
  }
  connectome::StreamOptions windows = stream;
  windows.parallel = options.parallel;
  auto gram = [&] {
    NP_TRACE_SCOPE("leverage.gram");
    return connectome::StreamedGram(store, windows);
  }();
  if (!gram.ok()) return gram.status();
  auto basis = LeverageBasisFromGram(std::move(*gram), options);
  if (!basis.ok()) return basis.status();
  auto scores = ProjectOntoBasis(
      *basis, m, connectome::DeriveRowTile(m, n, stream.row_tile),
      [&store, n](std::size_t r0, std::size_t rows, linalg::Matrix* slab)
          -> Result<const linalg::Matrix*> {
        NP_RETURN_IF_ERROR(store.ReadTile(r0, rows, 0, n, slab));
        return slab;
      },
      options.parallel);
  if (!scores.ok()) return scores.status();
  metrics::Count("leverage.calls", 1);
  return scores;
}

std::vector<std::size_t> TopKIndices(const linalg::Vector& scores,
                                     std::size_t t) {
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const std::size_t keep = std::min(t, scores.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(keep),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  order.resize(keep);
  return order;
}

Result<std::vector<std::size_t>> TopLeverageFeatures(
    const linalg::Matrix& a, std::size_t t, const LeverageOptions& options) {
  if (t == 0) {
    return Status::InvalidArgument("TopLeverageFeatures: t must be positive");
  }
  auto scores = ComputeLeverageScores(a, options);
  if (!scores.ok()) return scores.status();
  return TopKIndices(*scores, t);
}

}  // namespace neuroprint::core
