// Cache-blocked GEMM micro-kernels with a fixed, shape-independent
// summation order.
//
// The public MatMul / MatTMul / MatMulT / Gram entry points in matrix.h all
// lower onto TiledGemm / TiledGram: packed A/B panels, an L2-sized row
// block, and a kMr x kNr register-blocked inner kernel. Throughput comes
// from packing (contiguous, aligned streams for the inner loop) and
// register tiling; determinism comes from a canonical accumulation order
// that every code path shares:
//
//   * The contraction dimension K is split into fixed panels of kGemmPanelK
//     indices. Panel boundaries depend only on K — never on the thread
//     count, the parallel strategy, or the tile sizes.
//   * Within a panel, each output element accumulates its products in
//     ascending k from a 0.0 accumulator.
//   * Panel sums are folded into the output in ascending panel order: the
//     first panel assigns, later panels add.
//
// ReferenceGemm() implements exactly this order with naive loops; the tests
// assert TiledGemm == ReferenceGemm *bitwise* for every shape and thread
// count. Because the order is canonical, the row-parallel path (chunks of
// output rows), the panel-parallel path (groups of panels computed into
// per-slot partials, each group folded into C element by element in
// ascending panel order), and the serial path all produce identical bits.
//
// ProjectedRowSquaredNorms() is the one fused entry point: it forms
// U = A * B in kBlockM-row tiles under the same canonical order and folds
// each row of a tile into sum_j u_ij^2 (ascending j, from 0.0, no fused
// multiply-add) before the tile is reused, so the m x n U is never
// allocated. Its scores are bitwise-equal to squaring and summing the rows
// of MatMul(A, B); leverage scores use it to project onto the Gram basis.
//
// Unlike the pre-tiling kernels, zero inputs are not skipped (`if (x ==
// 0.0) continue` has no place in a register kernel); the only observable
// difference is the sign of exact-zero outputs in degenerate all-zero
// cancellation cases.

#ifndef NEUROPRINT_LINALG_GEMM_KERNEL_H_
#define NEUROPRINT_LINALG_GEMM_KERNEL_H_

#include <cstddef>

#include "linalg/matrix.h"
#include "util/thread_pool.h"

namespace neuroprint::linalg {

/// Fixed K-panel width of the canonical accumulation order. Changing this
/// changes results at the rounding level; it is part of the numeric
/// contract, not a tuning knob.
constexpr std::size_t kGemmPanelK = 256;

/// C = op(A) * op(B) where op(X) is X or X^T per the trans flags. `c` must
/// be pre-sized to (trans_a ? a.cols() : a.rows()) x (trans_b ? b.rows() :
/// b.cols()) and must not alias `a` or `b`. Every element of `c` is
/// overwritten. Bitwise-deterministic at any thread count.
void TiledGemm(const Matrix& a, bool trans_a, const Matrix& b, bool trans_b,
               Matrix* c, const ParallelContext& ctx = {});

/// G = A^T A. Computes only tiles intersecting the upper triangle and
/// mirrors, producing an exactly symmetric matrix that is bitwise-equal to
/// TiledGemm(a, true, a, false) (products commute, so the mirrored lower
/// triangle matches the canonical sums). `g` must be a.cols() x a.cols().
void TiledGram(const Matrix& a, Matrix* g, const ParallelContext& ctx = {});

/// scores[i] = sum over j of (A * B)(i, j)^2 for every row i of `a`,
/// without materializing A * B. Each product element follows the canonical
/// order above and each row folds its squares in ascending j from 0.0, so
/// the result is bitwise-equal to the squared row norms of MatMul(a, b) at
/// any thread count. `scores` must hold a.rows() doubles.
void ProjectedRowSquaredNorms(const Matrix& a, const Matrix& b,
                              double* scores, const ParallelContext& ctx = {});

/// The canonical order implemented with naive loops: serial, no packing,
/// no tiling. TiledGemm must match it bitwise; tests enforce this. Also
/// used directly for small problems where packing costs more than it saves
/// (the cutover is a pure function of the shape, so it cannot introduce
/// thread-count dependence).
void ReferenceGemm(const Matrix& a, bool trans_a, const Matrix& b,
                   bool trans_b, Matrix* c);

}  // namespace neuroprint::linalg

#endif  // NEUROPRINT_LINALG_GEMM_KERNEL_H_
