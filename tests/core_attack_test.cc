// Tests for leverage scores, randomized row sampling (Algorithm 1), the
// matcher, and the DeanonymizationAttack facade.

#include <cmath>
#include <limits>
#include <utility>

#include <gtest/gtest.h>

#include "core/attack.h"
#include "core/leverage.h"
#include "core/knn.h"
#include "core/matcher.h"
#include "core/row_sampling.h"
#include "service/synthetic_gallery.h"
#include "sim/cohort.h"
#include "svd_oracle.h"
#include "util/random.h"

namespace neuroprint::core {
namespace {

linalg::Matrix RandomMatrix(std::size_t rows, std::size_t cols, Rng& rng) {
  linalg::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.Gaussian();
  }
  return m;
}

linalg::Matrix RandomLowRank(std::size_t rows, std::size_t cols,
                             std::size_t rank, Rng& rng) {
  return linalg::MatMul(RandomMatrix(rows, rank, rng),
                        RandomMatrix(rank, cols, rng));
}

// ---------------------------------------------------------------------------
// Leverage scores

TEST(LeverageTest, ScoresSumToRank) {
  Rng rng(1);
  const linalg::Matrix a = RandomMatrix(50, 6, rng);
  const auto scores = ComputeLeverageScores(a);
  ASSERT_TRUE(scores.ok());
  double sum = 0.0;
  for (double s : *scores) {
    EXPECT_GE(s, -1e-12);
    EXPECT_LE(s, 1.0 + 1e-12);
    sum += s;
  }
  EXPECT_NEAR(sum, 6.0, 1e-9);  // Full column rank.
}

TEST(LeverageTest, RowSpikeGetsHighScore) {
  // A row aligned with a direction no other row shares has leverage ~1.
  Rng rng(2);
  linalg::Matrix a(40, 3);
  for (std::size_t i = 0; i < 40; ++i) {
    a(i, 0) = rng.Gaussian();
    a(i, 1) = rng.Gaussian();
    a(i, 2) = 0.0;
  }
  a(17, 2) = 5.0;  // Only row touching column 2's direction.
  const auto scores = ComputeLeverageScores(a);
  ASSERT_TRUE(scores.ok());
  EXPECT_GT((*scores)[17], 0.95);
  const auto top = TopLeverageFeatures(a, 1);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ((*top)[0], 17u);
}

TEST(LeverageTest, InvariantToColumnMixing) {
  // Leverage depends only on the column space: right-multiplying by an
  // invertible matrix must not change the scores.
  Rng rng(3);
  const linalg::Matrix a = RandomMatrix(30, 4, rng);
  const linalg::Matrix mixer = RandomMatrix(4, 4, rng);
  const linalg::Matrix mixed = linalg::MatMul(a, mixer);
  const auto sa = ComputeLeverageScores(a);
  const auto sm = ComputeLeverageScores(mixed);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sm.ok());
  for (std::size_t i = 0; i < sa->size(); ++i) {
    EXPECT_NEAR((*sa)[i], (*sm)[i], 1e-8);
  }
}

TEST(LeverageTest, RankOptionRestrictsSubspace) {
  Rng rng(4);
  const linalg::Matrix a = RandomMatrix(25, 5, rng);
  LeverageOptions options;
  options.rank = 2;
  const auto scores = ComputeLeverageScores(a, options);
  ASSERT_TRUE(scores.ok());
  double sum = 0.0;
  for (double s : *scores) sum += s;
  EXPECT_NEAR(sum, 2.0, 1e-9);
}

TEST(LeverageTest, RejectsDegenerateInputs) {
  EXPECT_FALSE(ComputeLeverageScores(linalg::Matrix()).ok());
  EXPECT_FALSE(ComputeLeverageScores(linalg::Matrix(3, 10)).ok());  // Wide.
  EXPECT_FALSE(ComputeLeverageScores(linalg::Matrix(10, 3)).ok());  // Zero.
  EXPECT_FALSE(TopLeverageFeatures(linalg::Matrix(10, 3, 1.0), 0).ok());
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    linalg::Matrix a(10, 3, 1.0);
    a(4, 1) = bad;
    EXPECT_EQ(ComputeLeverageScores(a).status().code(),
              StatusCode::kInvalidArgument);
  }
}


TEST(LeverageTest, GramFastPathMatchesSvdPath) {
  // The Gram path against the Jacobi SVD oracle, from tall to square.
  Rng rng(31);
  for (const auto& [rows, cols] :
       {std::pair<std::size_t, std::size_t>{400, 20}, {80, 40}, {24, 24}}) {
    const linalg::Matrix a = RandomMatrix(rows, cols, rng);
    const auto scores = ComputeLeverageScores(a);
    const auto oracle = linalg::OracleLeverageScores(a);
    ASSERT_TRUE(scores.ok()) << scores.status();
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    double sum = 0.0;
    for (std::size_t i = 0; i < rows; ++i) {
      EXPECT_NEAR((*scores)[i], (*oracle)[i], 1e-8)
          << rows << " x " << cols << " row " << i;
      // m = n: A spans the whole feature space, so every score is 1.
      if (rows == cols) {
        EXPECT_NEAR((*scores)[i], 1.0, 1e-10) << "row " << i;
      }
      sum += (*scores)[i];
    }
    EXPECT_NEAR(sum, static_cast<double>(cols), 1e-9);
  }

  // The service's reference fit: 512 features x 256 subjects of the
  // synthetic gallery keep the oracle's top 100 in the oracle's order.
  service::SyntheticGalleryConfig gallery;
  gallery.num_subjects = 50000;
  gallery.num_features = 512;
  gallery.num_communities = 64;
  gallery.seed = 0xbe9c5e71ceULL;
  const auto reference =
      service::MakeSyntheticGallerySlice(gallery, 0, 0, 256);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const auto scores = ComputeLeverageScores(reference->data());
  const auto oracle = linalg::OracleLeverageScores(reference->data());
  ASSERT_TRUE(scores.ok()) << scores.status();
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  EXPECT_EQ(TopKIndices(*scores, 100), TopKIndices(*oracle, 100));
}

TEST(LeverageTest, GramFastPathHandlesRankDeficiency) {
  Rng rng(32);
  const linalg::Matrix a = RandomLowRank(300, 12, 5, rng);
  const auto scores = ComputeLeverageScores(a);
  const auto oracle = linalg::OracleLeverageScores(a);
  ASSERT_TRUE(scores.ok());
  ASSERT_TRUE(oracle.ok());
  double sum = 0.0, oracle_sum = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    sum += (*scores)[i];
    oracle_sum += (*oracle)[i];
    EXPECT_NEAR((*scores)[i], (*oracle)[i], 1e-6);
  }
  EXPECT_NEAR(sum, 5.0, 1e-6);  // Rank 5.
  EXPECT_NEAR(oracle_sum, 5.0, 1e-6);
}

TEST(TopKIndicesTest, OrderingAndTies) {
  const linalg::Vector scores{0.1, 0.5, 0.5, 0.9, 0.2};
  const auto top = TopKIndices(scores, 3);
  EXPECT_EQ(top, (std::vector<std::size_t>{3, 1, 2}));  // Tie: lower index.
  EXPECT_EQ(TopKIndices(scores, 99).size(), 5u);
}

// ---------------------------------------------------------------------------
// Row sampling (Algorithm 1)

TEST(RowSamplingTest, ProbabilitiesMatchDefinitions) {
  linalg::Matrix a{{3, 4}, {0, 0}, {1, 0}};
  const auto uniform = SamplingProbabilities(a, SamplingDistribution::kUniform);
  ASSERT_TRUE(uniform.ok());
  EXPECT_NEAR((*uniform)[0], 1.0 / 3.0, 1e-12);
  const auto l2 = SamplingProbabilities(a, SamplingDistribution::kL2Norm);
  ASSERT_TRUE(l2.ok());
  // Row norms^2: 25, 0, 1 -> p = 25/26, 0, 1/26 (Eq. 1).
  EXPECT_NEAR((*l2)[0], 25.0 / 26.0, 1e-12);
  EXPECT_NEAR((*l2)[1], 0.0, 1e-12);
  EXPECT_NEAR((*l2)[2], 1.0 / 26.0, 1e-12);
}

TEST(RowSamplingTest, SketchHasRequestedShapeAndSourceRows) {
  Rng rng(5);
  const linalg::Matrix a = RandomMatrix(30, 4, rng);
  Rng sample_rng(6);
  const auto sample = SampleRows(a, 10, SamplingDistribution::kL2Norm, sample_rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->sketch.rows(), 10u);
  EXPECT_EQ(sample->sketch.cols(), 4u);
  ASSERT_EQ(sample->indices.size(), 10u);
  // Each sketch row is a rescaled copy of its source row.
  for (std::size_t t = 0; t < 10; ++t) {
    const std::size_t src = sample->indices[t];
    const double p = sample->probabilities[src];
    const double scale = 1.0 / std::sqrt(10.0 * p);
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(sample->sketch(t, j), scale * a(src, j), 1e-12);
    }
  }
}

TEST(RowSamplingTest, RescalingMakesGramUnbiased) {
  // E[A~^T A~] = A^T A: check that the average over many draws converges.
  Rng rng(7);
  const linalg::Matrix a = RandomMatrix(40, 3, rng);
  const linalg::Matrix truth = linalg::Gram(a);
  linalg::Matrix mean_gram(3, 3);
  const int draws = 400;
  Rng sample_rng(8);
  for (int d = 0; d < draws; ++d) {
    const auto sample =
        SampleRows(a, 8, SamplingDistribution::kL2Norm, sample_rng);
    ASSERT_TRUE(sample.ok());
    mean_gram += linalg::Gram(sample->sketch);
  }
  mean_gram *= 1.0 / draws;
  // Monte-Carlo tolerance: relative error a few percent.
  EXPECT_LT((mean_gram - truth).MaxAbs() / truth.MaxAbs(), 0.12);
}

TEST(RowSamplingTest, LeverageSamplingBeatsUniformOnCoherentMatrix) {
  // A matrix with a few dominant rows: importance sampling should give a
  // smaller expected Gram error than uniform sampling (the motivation for
  // Eq. 1/Eq. 3 over uniform in Section 3.1.2).
  Rng rng(9);
  linalg::Matrix a = RandomMatrix(200, 4, rng);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 4; ++j) a(i, j) *= 20.0;
  }
  double err_uniform = 0.0, err_leverage = 0.0, err_l2 = 0.0;
  Rng sample_rng(10);
  const int draws = 30;
  for (int d = 0; d < draws; ++d) {
    err_uniform += GramApproximationError(
        a, SampleRows(a, 25, SamplingDistribution::kUniform, sample_rng)->sketch);
    err_l2 += GramApproximationError(
        a, SampleRows(a, 25, SamplingDistribution::kL2Norm, sample_rng)->sketch);
    err_leverage += GramApproximationError(
        a,
        SampleRows(a, 25, SamplingDistribution::kLeverage, sample_rng)->sketch);
  }
  EXPECT_LT(err_l2, 0.5 * err_uniform);
  EXPECT_LT(err_leverage, err_uniform);
}

TEST(RowSamplingTest, DrineasErrorBoundHolds) {
  // Eq. 2: E ||A^T A - A~^T A~||_F <= ||A||_F^2 / sqrt(s) for l2 sampling.
  Rng rng(11);
  const linalg::Matrix a = RandomMatrix(100, 5, rng);
  const double bound_budget = a.FrobeniusNorm() * a.FrobeniusNorm();
  Rng sample_rng(12);
  for (const std::size_t s : {10u, 40u, 90u}) {
    double mean_err = 0.0;
    const int draws = 40;
    for (int d = 0; d < draws; ++d) {
      mean_err += GramApproximationError(
          a, SampleRows(a, s, SamplingDistribution::kL2Norm, sample_rng)->sketch);
    }
    mean_err /= draws;
    EXPECT_LE(mean_err, bound_budget / std::sqrt(static_cast<double>(s)))
        << "s = " << s;
  }
}

TEST(RowSamplingTest, RejectsBadArguments) {
  Rng rng(13);
  const linalg::Matrix a = RandomMatrix(10, 3, rng);
  EXPECT_FALSE(SampleRows(a, 0, SamplingDistribution::kUniform, rng).ok());
  const linalg::Matrix zero(10, 3);
  EXPECT_FALSE(SampleRows(zero, 5, SamplingDistribution::kL2Norm, rng).ok());
  EXPECT_FALSE(SamplingProbabilities(linalg::Matrix(), SamplingDistribution::kUniform).ok());
}

// ---------------------------------------------------------------------------
// Matcher

TEST(MatcherTest, ArgmaxAndAccuracy) {
  linalg::Matrix sim{{0.9, 0.1, 0.2},
                     {0.3, 0.8, 0.1},
                     {0.2, 0.4, 0.7}};
  const auto match = ArgmaxMatch(sim);
  EXPECT_EQ(match, (std::vector<std::size_t>{0, 1, 2}));
  const auto acc = IdentificationAccuracy(match, {"a", "b", "c"}, {"a", "b", "c"});
  ASSERT_TRUE(acc.ok());
  EXPECT_DOUBLE_EQ(*acc, 1.0);
  const auto partial =
      IdentificationAccuracy(match, {"a", "b", "c"}, {"a", "x", "c"});
  ASSERT_TRUE(partial.ok());
  EXPECT_NEAR(*partial, 2.0 / 3.0, 1e-12);
}

TEST(MatcherTest, SimilarityStats) {
  linalg::Matrix sim{{0.9, 0.1}, {0.2, 0.8}};
  const auto stats = ComputeSimilarityStats(sim);
  ASSERT_TRUE(stats.ok());
  EXPECT_NEAR(stats->diagonal_mean, 0.85, 1e-12);
  EXPECT_NEAR(stats->off_diagonal_mean, 0.15, 1e-12);
  EXPECT_NEAR(stats->contrast, 0.7, 1e-12);
  EXPECT_NEAR(stats->diagonal_min, 0.8, 1e-12);
  EXPECT_NEAR(stats->off_diagonal_max, 0.2, 1e-12);
  EXPECT_FALSE(ComputeSimilarityStats(linalg::Matrix(2, 3)).ok());
}

TEST(MatcherTest, SimilarityMatrixRequiresSameFeatureSpace) {
  const auto a =
      connectome::GroupMatrix::FromFeatureColumns({{1, 2, 3}}, {"x"});
  const auto b = connectome::GroupMatrix::FromFeatureColumns({{1, 2}}, {"y"});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(SimilarityMatrix(*a, *b).ok());
}

// ---------------------------------------------------------------------------
// Attack facade (on a small simulated cohort)

class AttackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::CohortConfig config;
    config.num_subjects = 12;
    config.num_regions = 40;
    config.frames_override = 200;
    config.seed = 77;
    auto cohort = sim::CohortSimulator::Create(config);
    ASSERT_TRUE(cohort.ok());
    auto known = cohort->BuildGroupMatrix(sim::TaskType::kRest,
                                          sim::Encoding::kLeftRight);
    auto anonymous = cohort->BuildGroupMatrix(sim::TaskType::kRest,
                                              sim::Encoding::kRightLeft);
    ASSERT_TRUE(known.ok());
    ASSERT_TRUE(anonymous.ok());
    known_ = std::move(known).value();
    anonymous_ = std::move(anonymous).value();
  }

  connectome::GroupMatrix known_;
  connectome::GroupMatrix anonymous_;
};

TEST_F(AttackTest, IdentifiesSimulatedSubjects) {
  AttackOptions options;
  options.num_features = 60;
  const auto attack = DeanonymizationAttack::Fit(known_, options);
  ASSERT_TRUE(attack.ok()) << attack.status();
  EXPECT_EQ(attack->selected_features().size(), 60u);
  const auto result = attack->Identify(anonymous_);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GE(result->accuracy, 0.9);
  EXPECT_EQ(result->similarity.rows(), 12u);
  EXPECT_EQ(result->similarity.cols(), 12u);
  EXPECT_EQ(result->predicted_ids.size(), 12u);
}

TEST_F(AttackTest, SelfIdentificationIsPerfect) {
  const auto attack = DeanonymizationAttack::Fit(known_);
  ASSERT_TRUE(attack.ok());
  const auto result = attack->Identify(known_);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->accuracy, 1.0);
}

TEST_F(AttackTest, ShuffledColumnsStillMatchByIdentity) {
  // Reorder the anonymous subjects; the attack must still map each column
  // back to the right identity string.
  std::vector<linalg::Vector> cols;
  std::vector<std::string> ids;
  const std::size_t n = anonymous_.num_subjects();
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t src = (j * 5 + 3) % n;  // A fixed permutation.
    cols.push_back(anonymous_.SubjectColumn(src));
    ids.push_back(anonymous_.subject_ids()[src]);
  }
  const auto shuffled = connectome::GroupMatrix::FromFeatureColumns(cols, ids);
  ASSERT_TRUE(shuffled.ok());
  const auto attack = DeanonymizationAttack::Fit(known_);
  ASSERT_TRUE(attack.ok());
  const auto result = attack->Identify(*shuffled);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->accuracy, 0.9);
}

TEST_F(AttackTest, MoreFeaturesThanAvailableIsClamped) {
  AttackOptions options;
  options.num_features = 10 * known_.num_features();
  const auto attack = DeanonymizationAttack::Fit(known_, options);
  ASSERT_TRUE(attack.ok());
  EXPECT_EQ(attack->selected_features().size(), known_.num_features());
}

TEST_F(AttackTest, RejectsFeatureSpaceMismatch) {
  const auto attack = DeanonymizationAttack::Fit(known_);
  ASSERT_TRUE(attack.ok());
  const auto other =
      connectome::GroupMatrix::FromFeatureColumns({{1, 2, 3}}, {"q"});
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(attack->Identify(*other).ok());
}

TEST_F(AttackTest, RejectsBadOptions) {
  AttackOptions options;
  options.num_features = 0;
  EXPECT_FALSE(DeanonymizationAttack::Fit(known_, options).ok());
}

TEST_F(AttackTest, EmptyAnonymousSetReturnsCleanStatus) {
  // Regression: an empty probe set used to fall through to the matcher and
  // surface a cryptic internal error; it must be a clean InvalidArgument.
  const auto attack = DeanonymizationAttack::Fit(known_);
  ASSERT_TRUE(attack.ok());
  const auto result = attack->Identify(connectome::GroupMatrix());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("no subjects"), std::string::npos);
}

TEST(KnnRegressionTest, KBeyondGalleryClampsToGallerySize) {
  // Regression: an incrementally shrinking gallery can drop below a fixed
  // k; the classifier degrades to voting over everything instead of
  // erroring.
  linalg::Matrix train{{0, 0}, {1, 0}, {2, 0}};
  const std::vector<int> labels{4, 4, 9};
  linalg::Matrix query{{0.1, 0}};
  const auto predicted = KnnClassify(train, labels, query, 50);
  ASSERT_TRUE(predicted.ok());
  EXPECT_EQ((*predicted)[0], 4);  // Majority over the whole gallery.
}

TEST(KnnRegressionTest, DuplicateDistanceTieBreakIsIndexOrdered) {
  // Four training points equidistant from the query: the neighbour set
  // must be the lowest training indices, not an iteration- or heap-order
  // accident, so predictions are stable across library changes.
  linalg::Matrix train{{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
  const std::vector<int> labels{5, 6, 7, 8};
  linalg::Matrix query{{0, 0}};
  for (std::size_t k = 1; k <= 4; ++k) {
    const auto predicted = KnnClassify(train, labels, query, k);
    ASSERT_TRUE(predicted.ok());
    // All votes are singletons, so the winner is the first tallied —
    // training index 0 — for every k.
    EXPECT_EQ((*predicted)[0], 5) << "k=" << k;
  }
}

}  // namespace
}  // namespace neuroprint::core
