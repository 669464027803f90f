// Property-style tests of the end-to-end attack on simulated cohorts:
// determinism, monotonicity in the attack budget, CMC behaviour, and
// margin/accuracy consistency; and the leverage fit's feature selection
// against the Jacobi SVD oracle on a planted group matrix.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/attack.h"
#include "core/leverage.h"
#include "core/matcher.h"
#include "sim/cohort.h"
#include "svd_oracle.h"
#include "util/random.h"

namespace neuroprint::core {
namespace {

class AttackPropertiesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::CohortConfig config;
    config.num_subjects = 16;
    config.num_regions = 40;
    config.frames_override = 200;
    config.seed = 913;
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

TEST_F(AttackPropertiesTest, FullyDeterministic) {
  AttackOptions options;
  options.num_features = 64;
  const auto a = DeanonymizationAttack::Fit(known_, options);
  const auto b = DeanonymizationAttack::Fit(known_, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->selected_features(), b->selected_features());
  const auto ra = a->Identify(anonymous_);
  const auto rb = b->Identify(anonymous_);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->predicted_index, rb->predicted_index);
  EXPECT_TRUE(linalg::AlmostEqual(ra->similarity, rb->similarity, 0.0));
}

TEST_F(AttackPropertiesTest, AccuracyReasonableAcrossBudgets) {
  // Accuracy should reach its plateau quickly and never fall off a cliff
  // as the budget grows (more features only add noise gradually).
  double accuracy_at_16 = 0.0, accuracy_at_256 = 0.0;
  for (const std::size_t budget : {16u, 64u, 256u}) {
    AttackOptions options;
    options.num_features = budget;
    const auto attack = DeanonymizationAttack::Fit(known_, options);
    ASSERT_TRUE(attack.ok());
    const auto result = attack->Identify(anonymous_);
    ASSERT_TRUE(result.ok());
    if (budget == 16) accuracy_at_16 = result->accuracy;
    if (budget == 256) accuracy_at_256 = result->accuracy;
  }
  EXPECT_GE(accuracy_at_16, 0.5);   // Tiny budget already works.
  EXPECT_GE(accuracy_at_256, 0.9);  // Plateau reached.
}

TEST_F(AttackPropertiesTest, CmcDominatesRankOneAccuracy) {
  const auto attack = DeanonymizationAttack::Fit(known_);
  ASSERT_TRUE(attack.ok());
  const auto result = attack->Identify(anonymous_);
  ASSERT_TRUE(result.ok());
  const auto curve =
      CumulativeMatchCurve(result->similarity, known_.subject_ids(),
                           anonymous_.subject_ids(), 16);
  ASSERT_TRUE(curve.ok());
  ASSERT_FALSE(curve->empty());
  EXPECT_DOUBLE_EQ((*curve)[0], result->accuracy);
  for (std::size_t k = 1; k < curve->size(); ++k) {
    EXPECT_GE((*curve)[k], (*curve)[k - 1]);
  }
  // Every true identity is in the gallery, so the curve ends at 1.
  EXPECT_DOUBLE_EQ(curve->back(), 1.0);
}

TEST_F(AttackPropertiesTest, MarginsPositiveForCorrectMatches) {
  const auto attack = DeanonymizationAttack::Fit(known_);
  ASSERT_TRUE(attack.ok());
  const auto result = attack->Identify(anonymous_);
  ASSERT_TRUE(result.ok());
  const auto margins = MatchMargins(result->similarity);
  ASSERT_TRUE(margins.ok());
  for (std::size_t j = 0; j < anonymous_.num_subjects(); ++j) {
    EXPECT_GE((*margins)[j], 0.0);
    if (result->predicted_ids[j] == anonymous_.subject_ids()[j]) {
      EXPECT_GT((*margins)[j], 0.0);
    }
  }
}

TEST_F(AttackPropertiesTest, SubsetGalleryStillRanksTrueIdentity) {
  // Drop half the known subjects: targets whose identity remains in the
  // gallery should still rank it first most of the time; targets whose
  // identity was dropped get the sentinel rank.
  std::vector<linalg::Vector> columns;
  std::vector<std::string> ids;
  for (std::size_t s = 0; s < known_.num_subjects(); s += 2) {
    columns.push_back(known_.SubjectColumn(s));
    ids.push_back(known_.subject_ids()[s]);
  }
  const auto half = connectome::GroupMatrix::FromFeatureColumns(columns, ids);
  ASSERT_TRUE(half.ok());
  const auto attack = DeanonymizationAttack::Fit(*half);
  ASSERT_TRUE(attack.ok());
  const auto result = attack->Identify(anonymous_);
  ASSERT_TRUE(result.ok());
  const auto ranks = TrueMatchRanks(result->similarity, half->subject_ids(),
                                    anonymous_.subject_ids());
  ASSERT_TRUE(ranks.ok());
  std::size_t in_gallery_rank1 = 0, in_gallery_total = 0;
  for (std::size_t j = 0; j < anonymous_.num_subjects(); ++j) {
    if (j % 2 == 0) {
      ++in_gallery_total;
      if ((*ranks)[j] == 1) ++in_gallery_rank1;
    } else {
      EXPECT_EQ((*ranks)[j], half->num_subjects() + 1);
    }
  }
  EXPECT_GE(static_cast<double>(in_gallery_rank1),
            0.7 * static_cast<double>(in_gallery_total));
}

// Tall group matrix whose identity signature is carried by a planted set
// of high-leverage rows with ramped boosts — the concentrated-leverage
// regime the attack targets.
linalg::Matrix PlantedGroupMatrix(std::size_t rows, std::size_t cols,
                                  std::size_t num_planted,
                                  std::uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix a(rows, cols);
  linalg::Matrix u(rows, 10);
  linalg::Matrix v(cols, 10);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) a(i, j) = rng.Gaussian();
  }
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t t = 0; t < 10; ++t) u(i, t) = rng.Gaussian();
  }
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t t = 0; t < 10; ++t) v(j, t) = rng.Gaussian();
  }
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      double s = 0.0;
      for (std::size_t t = 0; t < 10; ++t) {
        s += u(i, t) * v(j, t) / static_cast<double>(1 + t);
      }
      a(i, j) = 0.5 * a(i, j) + s;
    }
  }
  std::vector<std::size_t> planted = rng.Permutation(rows);
  planted.resize(num_planted);
  for (std::size_t p = 0; p < num_planted; ++p) {
    const double boost = 10.0 - 8.0 * static_cast<double>(p) /
                                    static_cast<double>(num_planted - 1);
    for (std::size_t j = 0; j < cols; ++j) a(planted[p], j) *= boost;
  }
  return a;
}

TEST(LeverageOracleTest, PlantedGroupMatrixTop100MatchesOracle) {
  // The Gram path (Gram, EigSym, projection) must select exactly the
  // oracle's top 100 features on the planted 6462 x 100 group matrix:
  // this guards the eigensolver's accuracy where selection matters.
  const linalg::Matrix a = PlantedGroupMatrix(6462, 100, 150, 41);
  const auto scores = ComputeLeverageScores(a);
  const auto oracle = linalg::OracleLeverageScores(a);
  ASSERT_TRUE(scores.ok()) << scores.status();
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  auto top = TopKIndices(*scores, 100);
  auto want = TopKIndices(*oracle, 100);
  std::sort(top.begin(), top.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(top, want);
}

}  // namespace
}  // namespace neuroprint::core
