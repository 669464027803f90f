// Tests for QR, symmetric eigendecomposition, Cholesky, and LU, and for
// the one-sided Jacobi SVD oracle (tests/svd_oracle.h) the leverage tests
// compare against, including parameterized property sweeps over shapes.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "jacobi_eig_oracle.h"
#include "svd_oracle.h"
#include "linalg/cholesky.h"
#include "linalg/eig_sym.h"
#include "linalg/gemm_kernel.h"
#include "linalg/lu.h"
#include "linalg/matrix.h"
#include "linalg/qr.h"
#include "linalg/vector_ops.h"
#include "util/check.h"
#include "util/random.h"

namespace neuroprint::linalg {
namespace {

Matrix RandomMatrix(std::size_t rows, std::size_t cols, Rng& rng,
                    double scale = 1.0) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = scale * rng.Gaussian();
  }
  return m;
}

// A random matrix of the given rank (product of two factor matrices).
Matrix RandomLowRank(std::size_t rows, std::size_t cols, std::size_t rank,
                     Rng& rng) {
  return MatMul(RandomMatrix(rows, rank, rng), RandomMatrix(rank, cols, rng));
}

double OrthonormalityError(const Matrix& q) {
  const Matrix gram = MatTMul(q, q);
  return (gram - Matrix::Identity(q.cols())).MaxAbs();
}

// ---------------------------------------------------------------------------
// QR

TEST(QrTest, ReconstructsInput) {
  Rng rng(1);
  const Matrix a = RandomMatrix(8, 5, rng);
  const auto qr = QrDecompose(a);
  ASSERT_TRUE(qr.ok()) << qr.status();
  EXPECT_LT((MatMul(qr->q, qr->r) - a).MaxAbs(), 1e-12);
}

TEST(QrTest, QHasOrthonormalColumns) {
  Rng rng(2);
  const Matrix a = RandomMatrix(10, 4, rng);
  const auto qr = QrDecompose(a);
  ASSERT_TRUE(qr.ok());
  EXPECT_LT(OrthonormalityError(qr->q), 1e-12);
}

TEST(QrTest, RIsUpperTriangular) {
  Rng rng(3);
  const Matrix a = RandomMatrix(6, 6, rng);
  const auto qr = QrDecompose(a);
  ASSERT_TRUE(qr.ok());
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_NEAR(qr->r(i, j), 0.0, 1e-14);
    }
  }
}

TEST(QrTest, RejectsWideMatrix) {
  const Matrix a(2, 5);
  EXPECT_FALSE(QrDecompose(a).ok());
}

TEST(QrTest, RejectsNonFinite) {
  Matrix a(3, 2, 1.0);
  a(1, 1) = std::numeric_limits<double>::quiet_NaN();
  const auto qr = QrDecompose(a);
  EXPECT_FALSE(qr.ok());
  EXPECT_EQ(qr.status().code(), StatusCode::kInvalidArgument);
}

TEST(QrTest, HandlesRankDeficientColumns) {
  // Third column is a multiple of the first: QR must still reconstruct.
  Matrix a{{1, 0, 2}, {1, 1, 2}, {1, 2, 2}, {1, 3, 2}};
  const auto qr = QrDecompose(a);
  ASSERT_TRUE(qr.ok());
  EXPECT_LT((MatMul(qr->q, qr->r) - a).MaxAbs(), 1e-12);
}

TEST(LeastSquaresTest, RecoversExactSolution) {
  Rng rng(4);
  const Matrix a = RandomMatrix(20, 5, rng);
  const Vector truth{1, -2, 3, 0.5, -0.25};
  const Vector b = MatVec(a, truth);
  const auto x = LeastSquares(a, b);
  ASSERT_TRUE(x.ok());
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR((*x)[i], truth[i], 1e-10);
  }
}

TEST(LeastSquaresTest, ResidualOrthogonalToColumnSpace) {
  Rng rng(5);
  const Matrix a = RandomMatrix(15, 3, rng);
  const Vector b = RandomMatrix(15, 1, rng).ColCopy(0);
  const auto x = LeastSquares(a, b);
  ASSERT_TRUE(x.ok());
  const Vector r = Subtract(b, MatVec(a, *x));
  const Vector atr = MatTVec(a, r);
  EXPECT_LT(NormInf(atr), 1e-10);
}

// ---------------------------------------------------------------------------
// SVD oracle (one-sided Jacobi)

struct SvdShape {
  std::size_t rows;
  std::size_t cols;
};

class SvdShapeTest : public ::testing::TestWithParam<SvdShape> {};

TEST_P(SvdShapeTest, ReconstructionAndOrthogonality) {
  const auto [rows, cols] = GetParam();
  Rng rng(100 + rows * 31 + cols);
  const Matrix a = RandomMatrix(rows, cols, rng);
  const auto svd = JacobiSvd(a);
  ASSERT_TRUE(svd.ok()) << svd.status();
  const std::size_t k = std::min(rows, cols);
  ASSERT_EQ(svd->s.size(), k);
  ASSERT_EQ(svd->u.rows(), rows);
  ASSERT_EQ(svd->u.cols(), k);
  ASSERT_EQ(svd->v.rows(), cols);
  ASSERT_EQ(svd->v.cols(), k);

  const double scale = std::max(1.0, a.MaxAbs());
  EXPECT_LT((svd->Reconstruct() - a).MaxAbs() / scale, 1e-11);
  EXPECT_LT(OrthonormalityError(svd->u), 1e-11);
  EXPECT_LT(OrthonormalityError(svd->v), 1e-11);
  // Descending, non-negative.
  for (std::size_t i = 0; i + 1 < k; ++i) {
    EXPECT_GE(svd->s[i], svd->s[i + 1]);
  }
  if (k > 0) {
    EXPECT_GE(svd->s[k - 1], 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdShapeTest,
    ::testing::Values(SvdShape{1, 1}, SvdShape{3, 3}, SvdShape{5, 2},
                      SvdShape{2, 5}, SvdShape{10, 10}, SvdShape{40, 7},
                      SvdShape{7, 40}, SvdShape{100, 20}, SvdShape{64, 1},
                      SvdShape{1, 64}, SvdShape{33, 32}, SvdShape{200, 10}));

TEST(SvdTest, SingularValuesOfKnownMatrix) {
  // diag(3, 2, 1) embedded in a rotation-free matrix.
  const Matrix a = Matrix::Diagonal({3.0, 1.0, 2.0});
  const auto svd = JacobiSvd(a);
  ASSERT_TRUE(svd.ok());
  EXPECT_NEAR(svd->s[0], 3.0, 1e-12);
  EXPECT_NEAR(svd->s[1], 2.0, 1e-12);
  EXPECT_NEAR(svd->s[2], 1.0, 1e-12);
}

TEST(SvdTest, RankOfLowRankMatrix) {
  Rng rng(42);
  const Matrix a = RandomLowRank(30, 20, 4, rng);
  const auto svd = JacobiSvd(a);
  ASSERT_TRUE(svd.ok());
  EXPECT_EQ(svd->Rank(1e-10), 4u);
}

TEST(SvdTest, FrobeniusNormMatchesSingularValues) {
  Rng rng(43);
  const Matrix a = RandomMatrix(12, 8, rng);
  const auto svd = JacobiSvd(a);
  ASSERT_TRUE(svd.ok());
  double sum = 0.0;
  for (double v : svd->s) sum += v * v;
  EXPECT_NEAR(std::sqrt(sum), a.FrobeniusNorm(), 1e-10);
}

TEST(SvdTest, ZeroMatrix) {
  const Matrix a(4, 3);
  const auto svd = JacobiSvd(a);
  ASSERT_TRUE(svd.ok());
  for (double s : svd->s) EXPECT_DOUBLE_EQ(s, 0.0);
  EXPECT_LT(svd->Reconstruct().MaxAbs(), 1e-300);
}

TEST(SvdTest, RejectsNonFinite) {
  Matrix a(3, 3, 1.0);
  a(2, 2) = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(JacobiSvd(a).ok());
}

TEST(SvdTest, EmptyMatrix) {
  const auto svd = JacobiSvd(Matrix());
  ASSERT_TRUE(svd.ok());
  EXPECT_TRUE(svd->s.empty());
}

// ---------------------------------------------------------------------------
// Symmetric eigendecomposition

TEST(EigSymTest, DiagonalMatrix) {
  const auto eig = EigSym(Matrix::Diagonal({1.0, 5.0, 3.0}));
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->eigenvalues[0], 5.0, 1e-12);
  EXPECT_NEAR(eig->eigenvalues[1], 3.0, 1e-12);
  EXPECT_NEAR(eig->eigenvalues[2], 1.0, 1e-12);
}

TEST(EigSymTest, ReconstructsRandomSymmetric) {
  Rng rng(48);
  const Matrix g = Gram(RandomMatrix(12, 6, rng));
  const auto eig = EigSym(g);
  ASSERT_TRUE(eig.ok());
  // V diag(l) V^T == G.
  Matrix vl = eig->eigenvectors;
  for (std::size_t j = 0; j < vl.cols(); ++j) {
    for (std::size_t i = 0; i < vl.rows(); ++i) vl(i, j) *= eig->eigenvalues[j];
  }
  EXPECT_LT((MatMulT(vl, eig->eigenvectors) - g).MaxAbs(), 1e-9);
  EXPECT_LT(OrthonormalityError(eig->eigenvectors), 1e-10);
}

TEST(EigSymTest, GramEigenvaluesAreSquaredSingularValues) {
  Rng rng(49);
  const Matrix a = RandomMatrix(15, 5, rng);
  const auto svd = JacobiSvd(a);
  const auto eig = EigSym(Gram(a));
  ASSERT_TRUE(svd.ok());
  ASSERT_TRUE(eig.ok());
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(eig->eigenvalues[i], svd->s[i] * svd->s[i], 1e-8);
  }
}

TEST(EigSymTest, RejectsAsymmetric) {
  const Matrix a{{1, 2}, {3, 4}};
  EXPECT_FALSE(EigSym(a).ok());
}

// EigSym against the Jacobi oracle: eigenvalues within 1e-12 * |lambda|max,
// descending, and EigSym's own reconstruction and orthonormality errors at
// most 1e-12 relative. Eigenvectors are not compared one by one: with
// repeated eigenvalues only the eigenspace is defined.
void ExpectMatchesJacobiOracle(const Matrix& a) {
  const auto eig = EigSym(a);
  ASSERT_TRUE(eig.ok()) << eig.status();
  const auto oracle = JacobiEigSym(a);
  ASSERT_TRUE(oracle.has_value());
  const std::size_t n = a.rows();
  ASSERT_EQ(eig->eigenvalues.size(), n);
  ASSERT_EQ(eig->eigenvectors.rows(), n);
  ASSERT_EQ(eig->eigenvectors.cols(), n);
  double lambda_max = 0.0;
  for (const double l : oracle->eigenvalues) {
    lambda_max = std::max(lambda_max, std::fabs(l));
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LE(std::fabs(eig->eigenvalues[i] - oracle->eigenvalues[i]),
              1e-12 * lambda_max)
        << "eigenvalue " << i << ": " << eig->eigenvalues[i] << " vs "
        << oracle->eigenvalues[i];
    if (i + 1 < n) {
      EXPECT_GE(eig->eigenvalues[i], eig->eigenvalues[i + 1]);
    }
  }
  Matrix vl = eig->eigenvectors;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) vl(i, j) *= eig->eigenvalues[j];
  }
  EXPECT_LE((MatMulT(vl, eig->eigenvectors) - a).MaxAbs(), 1e-12 * lambda_max);
  EXPECT_LE(OrthonormalityError(eig->eigenvectors), 1e-12);
}

// Q diag(lambda) Q^T for a seeded random orthogonal Q.
Matrix WithSpectrum(const Vector& lambda, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = lambda.size();
  const auto qr = QrDecompose(RandomMatrix(n, n, rng));
  NP_CHECK(qr.ok());
  Matrix ql = qr->q;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) ql(i, j) *= lambda[j];
  }
  Matrix a = MatMulT(ql, qr->q);
  // Exactly symmetric, as a Gram is.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) a(i, j) = a(j, i);
  }
  return a;
}

// The 1-D Laplacian: already tridiagonal.
Matrix Laplacian1d(std::size_t n) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = 2.0;
    if (i + 1 < n) a(i, i + 1) = a(i + 1, i) = -1.0;
  }
  return a;
}

TEST(EigSymTest, MatchesJacobiOracle) {
  Rng rng(63);
  const Matrix b = RandomMatrix(20, 20, rng);
  const std::pair<const char*, Matrix> cases[] = {
      {"1x1", Matrix{{-3.5}}},
      {"2x2", Matrix{{2, 1}, {1, 2}}},
      {"2x2 graded", Matrix{{0, 1e-3}, {1e-3, 5}}},
      {"2x2 repeated", Matrix{{4, 0}, {0, 4}}},
      {"diagonal", Matrix::Diagonal({1.0, 5.0, 3.0, -2.0, 0.0, 5.0})},
      {"tridiagonal", Laplacian1d(12)},
      {"repeated and clustered",
       WithSpectrum({3.0, 3.0, 3.0, 1.0, 1.0 + 1e-10, 1.0 - 1e-10, 0.5,
                     0.5 + 1e-14, 1e-3, 1e-3},
                    61)},
      {"all equal", WithSpectrum(Vector(9, 2.0), 62)},
      {"indefinite", b + b.Transposed()},
      {"indefinite spectrum", WithSpectrum({4.0, 1.0, 0.0, -1.0, -4.0}, 64)},
      {"rank-deficient Gram", Gram(RandomLowRank(50, 12, 5, rng))},
      {"tall Gram", Gram(RandomMatrix(2000, 100, rng))},
  };
  for (const auto& [name, a] : cases) {
    SCOPED_TRACE(name);
    ExpectMatchesJacobiOracle(a);
  }
}

// Leverage scores l_i = ||a_i V diag(1/sqrt(lambda))||^2 over the
// eigenvalues above the leverage path's rank cutoff.
Vector LeverageFromEig(const Matrix& a, const SymmetricEigenDecomposition& e) {
  std::size_t k = 0;
  while (k < e.eigenvalues.size() &&
         e.eigenvalues[k] > 1e-24 * e.eigenvalues[0]) {
    ++k;
  }
  Matrix basis(a.cols(), k);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < a.cols(); ++i) {
      basis(i, j) = e.eigenvectors(i, j) / std::sqrt(e.eigenvalues[j]);
    }
  }
  Vector scores(a.rows());
  ProjectedRowSquaredNorms(a, basis, scores.data());
  return scores;
}

std::vector<std::size_t> TopIndices(const Vector& scores, std::size_t t) {
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return scores[x] > scores[y];
                   });
  order.resize(t);
  return order;
}

TEST(EigSymTest, LeverageScoresMatchJacobiBasis) {
  // A tall features-by-subjects cohort: a shared low-rank signal plus
  // per-entry noise, so the Gram has a decaying, well-separated top.
  Rng rng(67);
  const Matrix a = RandomLowRank(3000, 60, 10, rng) +
                   RandomMatrix(3000, 60, rng, 0.1);
  const Matrix g = Gram(a);
  const auto eig = EigSym(g);
  ASSERT_TRUE(eig.ok());
  const auto oracle = JacobiEigSym(g);
  ASSERT_TRUE(oracle.has_value());
  const Vector ql = LeverageFromEig(a, *eig);
  const Vector jacobi = LeverageFromEig(a, *oracle);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    EXPECT_LE(std::fabs(ql[i] - jacobi[i]), 1e-10 * std::fabs(jacobi[i]))
        << "row " << i;
  }
  EXPECT_EQ(TopIndices(ql, 100), TopIndices(jacobi, 100));
}

// ---------------------------------------------------------------------------
// Cholesky

TEST(CholeskyTest, FactorsKnownSpdMatrix) {
  const Matrix a{{4, 2}, {2, 3}};
  const auto l = CholeskyDecompose(a);
  ASSERT_TRUE(l.ok());
  EXPECT_TRUE(AlmostEqual(MatMulT(*l, *l), a, 1e-12));
  EXPECT_NEAR((*l)(0, 0), 2.0, 1e-14);
  EXPECT_NEAR((*l)(0, 1), 0.0, 1e-14);
}

TEST(CholeskyTest, FactorsRandomSpd) {
  Rng rng(50);
  const Matrix b = RandomMatrix(10, 10, rng);
  Matrix a = Gram(b);
  for (std::size_t i = 0; i < 10; ++i) a(i, i) += 1.0;  // Ensure SPD.
  const auto l = CholeskyDecompose(a);
  ASSERT_TRUE(l.ok());
  EXPECT_LT((MatMulT(*l, *l) - a).MaxAbs(), 1e-9);
}

TEST(CholeskyTest, RejectsIndefinite) {
  const Matrix a{{1, 2}, {2, 1}};  // Eigenvalues 3, -1.
  const auto l = CholeskyDecompose(a);
  EXPECT_FALSE(l.ok());
  EXPECT_EQ(l.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CholeskyTest, JitterRescuesSemiDefinite) {
  // Rank-1 PSD matrix: plain Cholesky fails, jittered succeeds.
  const Matrix a{{1, 1}, {1, 1}};
  EXPECT_FALSE(CholeskyDecompose(a).ok());
  EXPECT_TRUE(CholeskyDecomposeWithJitter(a, 1e-8).ok());
}

TEST(CholeskyTest, SolveMatchesLu) {
  Rng rng(51);
  const Matrix b = RandomMatrix(6, 6, rng);
  Matrix a = Gram(b);
  for (std::size_t i = 0; i < 6; ++i) a(i, i) += 0.5;
  const Vector rhs = RandomMatrix(6, 1, rng).ColCopy(0);
  const auto l = CholeskyDecompose(a);
  ASSERT_TRUE(l.ok());
  const auto x_chol = CholeskySolve(*l, rhs);
  const auto x_lu = LuSolve(a, rhs);
  ASSERT_TRUE(x_chol.ok());
  ASSERT_TRUE(x_lu.ok());
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR((*x_chol)[i], (*x_lu)[i], 1e-9);
  }
}

// ---------------------------------------------------------------------------
// LU

TEST(LuTest, SolvesKnownSystem) {
  const Matrix a{{2, 1}, {1, 3}};
  const auto x = LuSolve(a, {5, 10});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.0, 1e-12);
  EXPECT_NEAR((*x)[1], 3.0, 1e-12);
}

TEST(LuTest, InverseTimesOriginalIsIdentity) {
  Rng rng(52);
  const Matrix a = RandomMatrix(7, 7, rng);
  const auto inv = Inverse(a);
  ASSERT_TRUE(inv.ok());
  EXPECT_TRUE(AlmostEqual(MatMul(a, *inv), Matrix::Identity(7), 1e-9));
}

TEST(LuTest, DeterminantOfKnownMatrix) {
  const Matrix a{{1, 2}, {3, 4}};
  EXPECT_NEAR(Determinant(a), -2.0, 1e-12);
  EXPECT_NEAR(Determinant(Matrix::Identity(5)), 1.0, 1e-12);
}

TEST(LuTest, DeterminantMatchesSingularValueProductMagnitude) {
  Rng rng(53);
  const Matrix a = RandomMatrix(5, 5, rng);
  const auto svd = JacobiSvd(a);
  ASSERT_TRUE(svd.ok());
  double product = 1.0;
  for (double v : svd->s) product *= v;
  EXPECT_NEAR(std::fabs(Determinant(a)), product, 1e-9 * product);
}

TEST(LuTest, RejectsSingular) {
  const Matrix a{{1, 2}, {2, 4}};
  EXPECT_FALSE(LuSolve(a, {1, 1}).ok());
  EXPECT_FALSE(Inverse(a).ok());
}

TEST(LuTest, PivotingHandlesZeroLeadingEntry) {
  const Matrix a{{0, 1}, {1, 0}};
  const auto x = LuSolve(a, {2, 3});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 3.0, 1e-14);
  EXPECT_NEAR((*x)[1], 2.0, 1e-14);
}

}  // namespace
}  // namespace neuroprint::linalg
