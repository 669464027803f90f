#include "linalg/gemm_kernel.h"

#include <algorithm>
#include <vector>

#include "linalg/simd/simd.h"
#include "util/check.h"
#include "util/metrics.h"

namespace neuroprint::linalg {
namespace {

// Register tile: kMr x kNr accumulators (16 doubles). The shape is owned
// by the simd dispatch layer — its micro-kernel contracts one packed
// kMr-row group against one packed kNr-column group per call.
constexpr std::size_t kMr = simd::kGemmMr;
constexpr std::size_t kNr = simd::kGemmNr;

// TiledGram reuses one packed buffer for both operands of a tile, which
// requires the A and B lane counts to agree.
static_assert(kMr == kNr, "Gram packing reuse requires square micro-tiles");

// Output-row block per packed A panel: kBlockM * kGemmPanelK doubles
// (128 KiB) stay cache-resident while the micro kernel sweeps N.
constexpr std::size_t kBlockM = 64;
static_assert(kBlockM % kMr == 0, "row blocks must align to micro-tiles");

// Below this many multiply-adds, packing costs more than it saves: run the
// reference loops. Same canonical order, so the cutover never shows up in
// the bits; it is a pure function of the shape, so neither can it introduce
// thread-count dependence.
constexpr std::size_t kSmallGemmWork = std::size_t{1} << 15;

// The panel-parallel path holds one m x n partial per slot of a panel
// group; only use it when the output is small (the huge-K shapes that need
// it — Gram / MatTMul on 64620 x 100 group matrices — all are).
constexpr std::size_t kPanelParallelMaxOutput = std::size_t{1} << 14;

// K panels computed concurrently per group of the panel-parallel schedule.
// Each slot owns a partial and its pack buffers for the whole call, so this
// bounds the scratch to kPanelGroup partials however long K is. It moves
// no bits: the fold order is fixed by panel index alone.
constexpr std::size_t kPanelGroup = 16;

inline std::size_t CeilDiv(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

inline double HatA(const Matrix& a, bool trans_a, std::size_t i,
                   std::size_t k) {
  return trans_a ? a(k, i) : a(i, k);
}

inline double HatB(const Matrix& b, bool trans_b, std::size_t k,
                   std::size_t j) {
  return trans_b ? b(j, k) : b(k, j);
}

// Packs Ahat rows [i0, i0+mb) of panel [k0, k0+kc) into kMr-row groups:
// buf[g*kc*kMr + kk*kMr + r] = Ahat(i0 + g*kMr + r, k0 + kk). Rows past mb
// pack as zeros; their lanes land in accumulators that are never stored.
void PackA(const Matrix& a, bool trans_a, std::size_t i0, std::size_t mb,
           std::size_t k0, std::size_t kc, double* buf) {
  const std::size_t groups = CeilDiv(mb, kMr);
  std::fill(buf, buf + groups * kc * kMr, 0.0);
  if (!trans_a) {
    for (std::size_t g = 0; g < groups; ++g) {
      double* gbuf = buf + g * kc * kMr;
      const std::size_t rows = std::min(kMr, mb - g * kMr);
      for (std::size_t r = 0; r < rows; ++r) {
        const double* src = a.RowPtr(i0 + g * kMr + r) + k0;
        for (std::size_t kk = 0; kk < kc; ++kk) gbuf[kk * kMr + r] = src[kk];
      }
    }
  } else {
    // Ahat(i, k) = a(k, i): stream the rows of `a`.
    for (std::size_t kk = 0; kk < kc; ++kk) {
      const double* src = a.RowPtr(k0 + kk) + i0;
      for (std::size_t g = 0; g < groups; ++g) {
        double* gbuf = buf + g * kc * kMr + kk * kMr;
        const std::size_t rows = std::min(kMr, mb - g * kMr);
        for (std::size_t r = 0; r < rows; ++r) gbuf[r] = src[g * kMr + r];
      }
    }
  }
}

// Packs Bhat cols [0, nb) of panel [k0, k0+kc) into kNr-column groups:
// buf[g*kc*kNr + kk*kNr + c] = Bhat(k0 + kk, g*kNr + c), zero-padded.
void PackB(const Matrix& b, bool trans_b, std::size_t k0, std::size_t kc,
           std::size_t nb, double* buf) {
  const std::size_t groups = CeilDiv(nb, kNr);
  std::fill(buf, buf + groups * kc * kNr, 0.0);
  if (!trans_b) {
    for (std::size_t kk = 0; kk < kc; ++kk) {
      const double* src = b.RowPtr(k0 + kk);
      for (std::size_t g = 0; g < groups; ++g) {
        double* gbuf = buf + g * kc * kNr + kk * kNr;
        const std::size_t cols = std::min(kNr, nb - g * kNr);
        for (std::size_t c = 0; c < cols; ++c) gbuf[c] = src[g * kNr + c];
      }
    }
  } else {
    // Bhat(k, j) = b(j, k): stream the rows of `b`.
    for (std::size_t g = 0; g < groups; ++g) {
      double* gbuf = buf + g * kc * kNr;
      const std::size_t cols = std::min(kNr, nb - g * kNr);
      for (std::size_t c = 0; c < cols; ++c) {
        const double* src = b.RowPtr(g * kNr + c) + k0;
        for (std::size_t kk = 0; kk < kc; ++kk) gbuf[kk * kNr + c] = src[kk];
      }
    }
  }
}

// One register tile: acc = sum over the panel's kc indices, ascending k
// from 0.0 accumulators — the canonical within-panel order. The dispatched
// kernel (scalar/AVX2/NEON) is bit-identical across ISAs: it vectorizes
// across the kNr independent output lanes and never fuses multiply-add,
// so the per-element operation sequence is exactly the reference loop's.
inline void MicroKernel(const simd::Ops& ops, const double* __restrict ap,
                        const double* __restrict bp, std::size_t kc,
                        double acc[kMr][kNr]) {
  ops.gemm_4x4(ap, bp, kc, &acc[0][0]);
}

// Folds a tile's panel sums into C: the first panel assigns, later panels
// add — the canonical across-panel order.
inline void StoreTile(const double acc[kMr][kNr], std::size_t i0,
                      std::size_t rows, std::size_t j0, std::size_t cols,
                      bool overwrite, Matrix* c) {
  for (std::size_t r = 0; r < rows; ++r) {
    double* crow = c->RowPtr(i0 + r) + j0;
    if (overwrite) {
      for (std::size_t cc = 0; cc < cols; ++cc) crow[cc] = acc[r][cc];
    } else {
      for (std::size_t cc = 0; cc < cols; ++cc) crow[cc] += acc[r][cc];
    }
  }
}

// StoreTile variant for diagonal Gram tiles: only j >= i lands in G.
inline void StoreTileUpper(const double acc[kMr][kNr], std::size_t i0,
                           std::size_t rows, std::size_t j0, std::size_t cols,
                           bool overwrite, Matrix* g) {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t i = i0 + r;
    double* grow = g->RowPtr(i);
    for (std::size_t cc = 0; cc < cols; ++cc) {
      const std::size_t j = j0 + cc;
      if (j < i) continue;
      if (overwrite) {
        grow[j] = acc[r][cc];
      } else {
        grow[j] += acc[r][cc];
      }
    }
  }
}

// All tiles of one packed (A block) x (B panel) product.
void ComputePanelBlock(const double* ap, std::size_t i0, std::size_t mb,
                       const double* bp, std::size_t n, std::size_t kc,
                       bool overwrite, Matrix* c) {
  const simd::Ops& ops = simd::ActiveOps();
  const std::size_t igroups = CeilDiv(mb, kMr);
  const std::size_t jgroups = CeilDiv(n, kNr);
  double acc[kMr][kNr];
  for (std::size_t jg = 0; jg < jgroups; ++jg) {
    const double* bg = bp + jg * kc * kNr;
    const std::size_t cols = std::min(kNr, n - jg * kNr);
    for (std::size_t ig = 0; ig < igroups; ++ig) {
      MicroKernel(ops, ap + ig * kc * kMr, bg, kc, acc);
      StoreTile(acc, i0 + ig * kMr, std::min(kMr, mb - ig * kMr), jg * kNr,
                cols, overwrite, c);
    }
  }
}

// One full K panel of C = op(A) op(B): packs B once and sweeps row blocks.
// `apack` holds APackSize() doubles, `bpack` BPackSize(n).
void ComputePanel(const Matrix& a, bool trans_a, const Matrix& b, bool trans_b,
                  std::size_t m, std::size_t n, std::size_t k_dim,
                  std::size_t p, bool overwrite, Matrix* out, double* apack,
                  double* bpack) {
  const std::size_t k0 = p * kGemmPanelK;
  const std::size_t kc = std::min(kGemmPanelK, k_dim - k0);
  PackB(b, trans_b, k0, kc, n, bpack);
  for (std::size_t i0 = 0; i0 < m; i0 += kBlockM) {
    const std::size_t mb = std::min(kBlockM, m - i0);
    PackA(a, trans_a, i0, mb, k0, kc, apack);
    ComputePanelBlock(apack, i0, mb, bpack, n, kc, overwrite, out);
  }
}

std::size_t APackSize() { return CeilDiv(kBlockM, kMr) * kMr * kGemmPanelK; }

std::size_t BPackSize(std::size_t n) {
  return CeilDiv(n, kNr) * kNr * kGemmPanelK;
}

// The huge-contraction schedule (small m x n C, K in the tens of thousands
// — Gram and MatTMul on group matrices), shared by TiledGemm and TiledGram.
// `compute(p, pack, overwrite, out)` writes K panel p of C into `out`
// (assigning if `overwrite`, else adding), with `pack` as its pack scratch
// of `pack_size` doubles. With `upper`, only elements j >= i are kept.
//
// Serially, panel 0 assigns C and each later panel adds to it. In
// parallel, panels run kPanelGroup at a time, each into its own slot's
// partial; the group then folds into C in parallel over output rows, each
// element starting from C (or from slot 0 in the first group) and adding
// the slots in ascending panel order in a local accumulator. That is the
// serial operation sequence element by element, so the bits match it at
// any thread count. Partials and packs are allocated once per call.
template <typename ComputePanelFn>
void PanelParallelSchedule(std::size_t m, std::size_t n,
                           std::size_t num_panels, std::size_t pack_size,
                           bool upper, Matrix* c, const ParallelContext& ctx,
                           const ComputePanelFn& compute) {
  if (ResolveThreadCount(ctx) <= 1 || ThreadPool::InParallelRegion()) {
    std::vector<double> pack(pack_size);
    for (std::size_t p = 0; p < num_panels; ++p) {
      compute(p, pack.data(), p == 0, c);
    }
    return;
  }
  const std::size_t slots = std::min(kPanelGroup, num_panels);
  std::vector<Matrix> partials(slots, Matrix(m, n));
  std::vector<double> packs(slots * pack_size);
  for (std::size_t p0 = 0; p0 < num_panels; p0 += slots) {
    const std::size_t count = std::min(slots, num_panels - p0);
    ParallelFor(ctx, 0, count, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t s = lo; s < hi; ++s) {
        compute(p0 + s, packs.data() + s * pack_size, /*overwrite=*/true,
                &partials[s]);
      }
    });
    ParallelFor(ctx, 0, m, GrainForWork(n * count),
                [&](std::size_t lo, std::size_t hi) {
                  const double* rows[kPanelGroup];
                  for (std::size_t i = lo; i < hi; ++i) {
                    for (std::size_t s = 0; s < count; ++s) {
                      rows[s] = partials[s].RowPtr(i);
                    }
                    double* crow = c->RowPtr(i);
                    for (std::size_t j = upper ? i : 0; j < n; ++j) {
                      double acc = p0 == 0 ? rows[0][j] : crow[j] + rows[0][j];
                      for (std::size_t s = 1; s < count; ++s) acc += rows[s][j];
                      crow[j] = acc;
                    }
                  }
                });
  }
}

void PanelParallelGemm(const Matrix& a, bool trans_a, const Matrix& b,
                       bool trans_b, std::size_t m, std::size_t n,
                       std::size_t k_dim, Matrix* c,
                       const ParallelContext& ctx) {
  const std::size_t a_size = APackSize();
  PanelParallelSchedule(
      m, n, CeilDiv(k_dim, kGemmPanelK), a_size + BPackSize(n),
      /*upper=*/false, c, ctx,
      [&](std::size_t p, double* pack, bool overwrite, Matrix* out) {
        ComputePanel(a, trans_a, b, trans_b, m, n, k_dim, p, overwrite, out,
                     pack, pack + a_size);
      });
}

// Packs every K panel of Bhat once, panel p at offset p * BPackSize(n).
std::vector<double> PackPanelsB(const Matrix& b, bool trans_b,
                                std::size_t k_dim, std::size_t n) {
  const std::size_t num_panels = CeilDiv(k_dim, kGemmPanelK);
  const std::size_t panel_stride = BPackSize(n);
  std::vector<double> bpack(num_panels * panel_stride);
  for (std::size_t p = 0; p < num_panels; ++p) {
    const std::size_t k0 = p * kGemmPanelK;
    PackB(b, trans_b, k0, std::min(kGemmPanelK, k_dim - k0), n,
          bpack.data() + p * panel_stride);
  }
  return bpack;
}

// Rows [i0, i0 + mb) of C = op(A) op(B), every K panel folded in ascending
// order, written to rows [out_i0, out_i0 + mb) of `out`.
void ComputeRowBlock(const Matrix& a, bool trans_a, std::size_t i0,
                     std::size_t mb, std::size_t k_dim,
                     const std::vector<double>& bpack, std::size_t n,
                     double* apack, std::size_t out_i0, Matrix* out) {
  const std::size_t panel_stride = BPackSize(n);
  for (std::size_t k0 = 0, p = 0; k0 < k_dim; k0 += kGemmPanelK, ++p) {
    const std::size_t kc = std::min(kGemmPanelK, k_dim - k0);
    PackA(a, trans_a, i0, mb, k0, kc, apack);
    ComputePanelBlock(apack, out_i0, mb, bpack.data() + p * panel_stride, n,
                      kc, p == 0, out);
  }
}

// General shapes: parallelize over kBlockM-row output blocks (disjoint C
// slices); B is packed once up front and shared read-only.
void RowParallelGemm(const Matrix& a, bool trans_a, const Matrix& b,
                     bool trans_b, std::size_t m, std::size_t n,
                     std::size_t k_dim, Matrix* c, const ParallelContext& ctx) {
  const std::vector<double> bpack = PackPanelsB(b, trans_b, k_dim, n);
  ParallelFor(ctx, 0, CeilDiv(m, kBlockM), 1,
              [&](std::size_t blo, std::size_t bhi) {
                std::vector<double> apack(APackSize());
                for (std::size_t ib = blo; ib < bhi; ++ib) {
                  const std::size_t i0 = ib * kBlockM;
                  ComputeRowBlock(a, trans_a, i0, std::min(kBlockM, m - i0),
                                  k_dim, bpack, n, apack.data(), i0, c);
                }
              });
}

// Upper-triangle tiles of one Gram panel. With kMr == kNr the packed panel
// of `a` serves as both operands: row group ig and column group jg index
// the same buffer.
void ComputeGramPanelTiles(const double* pack, std::size_t i0, std::size_t mb,
                           std::size_t n, std::size_t kc, bool overwrite,
                           Matrix* g) {
  const simd::Ops& ops = simd::ActiveOps();
  const std::size_t jgroups = CeilDiv(n, kNr);
  const std::size_t ig_lo = i0 / kMr;
  const std::size_t ig_hi = CeilDiv(i0 + mb, kMr);
  double acc[kMr][kNr];
  for (std::size_t jg = ig_lo; jg < jgroups; ++jg) {
    const double* bg = pack + jg * kc * kNr;
    const std::size_t cols = std::min(kNr, n - jg * kNr);
    const std::size_t ig_end = std::min(ig_hi, jg + 1);
    for (std::size_t ig = ig_lo; ig < ig_end; ++ig) {
      MicroKernel(ops, pack + ig * kc * kMr, bg, kc, acc);
      const std::size_t rows = std::min(kMr, (i0 + mb) - ig * kMr);
      if (ig == jg) {
        StoreTileUpper(acc, ig * kMr, rows, jg * kNr, cols, overwrite, g);
      } else {
        StoreTile(acc, ig * kMr, rows, jg * kNr, cols, overwrite, g);
      }
    }
  }
}

void MirrorLower(Matrix* g) {
  const std::size_t n = g->rows();
  for (std::size_t i = 1; i < n; ++i) {
    double* grow = g->RowPtr(i);
    for (std::size_t j = 0; j < i; ++j) grow[j] = (*g)(j, i);
  }
}

// Canonical-order Gram on the upper triangle + mirror, naive loops.
void ReferenceGram(const Matrix& a, Matrix* g) {
  const std::size_t n = a.cols();
  const std::size_t m = a.rows();
  const std::size_t num_panels = CeilDiv(m, kGemmPanelK);
  for (std::size_t p = 0; p < num_panels; ++p) {
    const std::size_t k0 = p * kGemmPanelK;
    const std::size_t k1 = std::min(m, k0 + kGemmPanelK);
    for (std::size_t i = 0; i < n; ++i) {
      double* grow = g->RowPtr(i);
      for (std::size_t j = i; j < n; ++j) {
        double acc = 0.0;
        for (std::size_t k = k0; k < k1; ++k) acc += a(k, i) * a(k, j);
        if (p == 0) {
          grow[j] = acc;
        } else {
          grow[j] += acc;
        }
      }
    }
  }
  MirrorLower(g);
}

}  // namespace

void ReferenceGemm(const Matrix& a, bool trans_a, const Matrix& b,
                   bool trans_b, Matrix* c) {
  const std::size_t m = trans_a ? a.cols() : a.rows();
  const std::size_t k_dim = trans_a ? a.rows() : a.cols();
  const std::size_t n = trans_b ? b.rows() : b.cols();
  NP_CHECK(c->rows() == m && c->cols() == n);
  if (m == 0 || n == 0) return;
  if (k_dim == 0) {
    c->Fill(0.0);
    return;
  }
  const std::size_t num_panels = CeilDiv(k_dim, kGemmPanelK);
  for (std::size_t p = 0; p < num_panels; ++p) {
    const std::size_t k0 = p * kGemmPanelK;
    const std::size_t k1 = std::min(k_dim, k0 + kGemmPanelK);
    for (std::size_t i = 0; i < m; ++i) {
      double* crow = c->RowPtr(i);
      for (std::size_t j = 0; j < n; ++j) {
        double acc = 0.0;
        for (std::size_t k = k0; k < k1; ++k) {
          acc += HatA(a, trans_a, i, k) * HatB(b, trans_b, k, j);
        }
        if (p == 0) {
          crow[j] = acc;
        } else {
          crow[j] += acc;
        }
      }
    }
  }
}

void TiledGemm(const Matrix& a, bool trans_a, const Matrix& b, bool trans_b,
               Matrix* c, const ParallelContext& ctx) {
  const std::size_t m = trans_a ? a.cols() : a.rows();
  const std::size_t k_dim = trans_a ? a.rows() : a.cols();
  const std::size_t k_b = trans_b ? b.cols() : b.rows();
  const std::size_t n = trans_b ? b.rows() : b.cols();
  NP_CHECK_EQ(k_dim, k_b) << "TiledGemm contraction mismatch";
  NP_CHECK(c->rows() == m && c->cols() == n) << "TiledGemm output shape";
  // Counted at the public tiled entry only — ReferenceGemm also serves as
  // the internal small-problem path, so counting there would double-book.
  metrics::Count("gemm.calls", 1);
  metrics::Count("gemm.flops", 2 * m * n * k_dim);
  if (m == 0 || n == 0) return;
  if (k_dim == 0) {
    c->Fill(0.0);
    return;
  }
  if (m * n * k_dim <= kSmallGemmWork) {
    ReferenceGemm(a, trans_a, b, trans_b, c);
    return;
  }
  const std::size_t num_panels = CeilDiv(k_dim, kGemmPanelK);
  if (m * n <= kPanelParallelMaxOutput && num_panels >= 2) {
    PanelParallelGemm(a, trans_a, b, trans_b, m, n, k_dim, c, ctx);
  } else {
    RowParallelGemm(a, trans_a, b, trans_b, m, n, k_dim, c, ctx);
  }
}

void ProjectedRowSquaredNorms(const Matrix& a, const Matrix& b,
                              double* scores, const ParallelContext& ctx) {
  const std::size_t m = a.rows();
  const std::size_t k_dim = a.cols();
  const std::size_t n = b.cols();
  NP_CHECK_EQ(k_dim, b.rows()) << "ProjectedRowSquaredNorms contraction";
  // Counted as the GEMM it performs; the row fold is not counted.
  metrics::Count("gemm.calls", 1);
  metrics::Count("gemm.flops", 2 * m * n * k_dim);
  if (n == 0 || k_dim == 0) {
    // U is all zeros (or empty): every row folds to +0.0.
    std::fill(scores, scores + m, 0.0);
    return;
  }
  const std::vector<double> bpack = PackPanelsB(b, false, k_dim, n);
  ParallelFor(ctx, 0, CeilDiv(m, kBlockM), 1,
              [&](std::size_t blo, std::size_t bhi) {
                std::vector<double> apack(APackSize());
                Matrix tile(kBlockM, n);
                for (std::size_t ib = blo; ib < bhi; ++ib) {
                  const std::size_t i0 = ib * kBlockM;
                  const std::size_t mb = std::min(kBlockM, m - i0);
                  ComputeRowBlock(a, false, i0, mb, k_dim, bpack, n,
                                  apack.data(), 0, &tile);
                  for (std::size_t r = 0; r < mb; ++r) {
                    const double* u = tile.RowPtr(r);
                    double sum = 0.0;
                    for (std::size_t j = 0; j < n; ++j) sum += u[j] * u[j];
                    scores[i0 + r] = sum;
                  }
                }
              });
}

void TiledGram(const Matrix& a, Matrix* g, const ParallelContext& ctx) {
  const std::size_t n = a.cols();
  const std::size_t m = a.rows();
  NP_CHECK(g->rows() == n && g->cols() == n) << "TiledGram output shape";
  metrics::Count("gemm.gram_calls", 1);
  // Upper triangle incl. diagonal: m * n(n+1)/2 multiply-adds = 2 flops.
  metrics::Count("gemm.flops", m * n * (n + 1));
  if (n == 0) return;
  if (m == 0) {
    g->Fill(0.0);
    return;
  }
  if (n * n * m <= kSmallGemmWork) {
    ReferenceGram(a, g);
    return;
  }
  const std::size_t num_panels = CeilDiv(m, kGemmPanelK);
  const std::size_t panel_stride = BPackSize(n);

  if (n * n <= kPanelParallelMaxOutput && num_panels >= 2) {
    PanelParallelSchedule(
        n, n, num_panels, panel_stride, /*upper=*/true, g, ctx,
        [&](std::size_t p, double* pack, bool overwrite, Matrix* out) {
          const std::size_t k0 = p * kGemmPanelK;
          const std::size_t kc = std::min(kGemmPanelK, m - k0);
          PackB(a, false, k0, kc, n, pack);
          ComputeGramPanelTiles(pack, 0, n, n, kc, overwrite, out);
        });
  } else {
    // Large-n Gram: parallelize over output-row blocks (ragged upper-
    // triangle work — the pool's work stealing rebalances it).
    std::vector<double> pack(num_panels * panel_stride);
    for (std::size_t p = 0; p < num_panels; ++p) {
      const std::size_t k0 = p * kGemmPanelK;
      PackB(a, false, k0, std::min(kGemmPanelK, m - k0), n,
            pack.data() + p * panel_stride);
    }
    const std::size_t num_blocks = CeilDiv(n, kBlockM);
    ParallelFor(ctx, 0, num_blocks, 1, [&](std::size_t blo, std::size_t bhi) {
      for (std::size_t ib = blo; ib < bhi; ++ib) {
        const std::size_t i0 = ib * kBlockM;
        const std::size_t mb = std::min(kBlockM, n - i0);
        for (std::size_t p = 0; p < num_panels; ++p) {
          const std::size_t k0 = p * kGemmPanelK;
          const std::size_t kc = std::min(kGemmPanelK, m - k0);
          ComputeGramPanelTiles(pack.data() + p * panel_stride, i0, mb, n, kc,
                                p == 0, g);
        }
      }
    });
  }
  MirrorLower(g);
}

}  // namespace neuroprint::linalg
