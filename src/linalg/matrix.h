// Dense row-major double-precision matrix and the BLAS-like kernels the
// rest of neuroprint builds on.
//
// Matrices here are small-to-medium dense blocks (the paper's largest is a
// 64620 x 100 group matrix); everything is double precision and row-major.
// Decompositions (QR, Cholesky, LU, symmetric eigensolver) live in
// their own headers within this module.

#ifndef NEUROPRINT_LINALG_MATRIX_H_
#define NEUROPRINT_LINALG_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/thread_pool.h"

namespace neuroprint::linalg {

/// Dense column vector; free functions in vector_ops.h operate on it.
using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
///
/// Copyable and movable. Element access is `m(i, j)`; storage is contiguous
/// and exposed via data() for kernels. Dimensions are fixed at construction
/// (no incremental growth) to keep the invariants trivial.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// rows x cols matrix with every element set to `fill` (default 0).
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from nested initializer lists: Matrix m{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  /// n x n identity.
  static Matrix Identity(std::size_t n);

  /// Diagonal matrix from a vector.
  static Matrix Diagonal(const Vector& diag);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t i, std::size_t j) {
    NP_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    NP_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Pointer to the start of row i.
  double* RowPtr(std::size_t i) { return data_.data() + i * cols_; }
  const double* RowPtr(std::size_t i) const { return data_.data() + i * cols_; }

  /// Copies of a row / column.
  Vector RowCopy(std::size_t i) const;
  Vector ColCopy(std::size_t j) const;

  void SetRow(std::size_t i, const Vector& values);
  void SetCol(std::size_t j, const Vector& values);

  /// Returns the transpose (materialized).
  Matrix Transposed() const;

  /// Sub-block of `row_count` x `col_count` starting at (row0, col0).
  Matrix Block(std::size_t row0, std::size_t col0, std::size_t row_count,
               std::size_t col_count) const;

  /// Frobenius norm sqrt(sum a_ij^2).
  double FrobeniusNorm() const;

  /// max_ij |a_ij|.
  double MaxAbs() const;

  /// True if every element is finite.
  bool AllFinite() const;

  /// In-place scalar operations.
  Matrix& operator*=(double s);
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);

  /// Fills every element with `value`.
  void Fill(double value);

  /// Debug rendering ("[2x3]\n 1 2 3\n 4 5 6"); large matrices elided.
  std::string ToString(std::size_t max_rows = 8, std::size_t max_cols = 8) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Element-wise sum / difference; dimensions must match.
Matrix operator+(const Matrix& a, const Matrix& b);
Matrix operator-(const Matrix& a, const Matrix& b);
Matrix operator*(const Matrix& a, double s);
Matrix operator*(double s, const Matrix& a);

/// True if dims match and max |a_ij - b_ij| <= tol.
bool AlmostEqual(const Matrix& a, const Matrix& b, double tol);

// The gemm-shaped kernels below lower onto the cache-blocked micro-kernels
// in gemm_kernel.h. Every path (serial, row-parallel, panel-parallel)
// accumulates in one canonical order — fixed kGemmPanelK-wide K panels,
// ascending k within a panel, panels folded in ascending order — so
// results are bitwise-identical to ReferenceGemm() at every thread count.

/// C = A * B. Cache-blocked packed-panel kernel (see gemm_kernel.h).
Matrix MatMul(const Matrix& a, const Matrix& b,
              const ParallelContext& ctx = {});

/// C = A^T * B (computed without materializing A^T).
Matrix MatTMul(const Matrix& a, const Matrix& b,
               const ParallelContext& ctx = {});

/// C = A * B^T (computed without materializing B^T).
Matrix MatMulT(const Matrix& a, const Matrix& b,
               const ParallelContext& ctx = {});

/// y = A * x.
Vector MatVec(const Matrix& a, const Vector& x,
              const ParallelContext& ctx = {});

/// y = A^T * x.
Vector MatTVec(const Matrix& a, const Vector& x);

/// Gram matrix A^T A (symmetric n x n; tiled kernel computes only tiles
/// touching the upper triangle and mirrors).
Matrix Gram(const Matrix& a, const ParallelContext& ctx = {});

}  // namespace neuroprint::linalg

#endif  // NEUROPRINT_LINALG_MATRIX_H_
