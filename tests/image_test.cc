// Tests for volumes, affines, interpolation, resampling, smoothing,
// masking, and rigid registration (including recovering known motion).

#include <cmath>

#include <gtest/gtest.h>

#include "image/affine.h"
#include "image/interpolate.h"
#include "image/mask.h"
#include "image/registration.h"
#include "image/resample.h"
#include "image/smooth.h"
#include "image/volume.h"
#include "registration_search_oracle.h"
#include "util/random.h"

namespace neuroprint::image {
namespace {

// A smooth blob image: Gaussian bump centred at (cx, cy, cz).
Volume3D BlobVolume(std::size_t n, double cx, double cy, double cz,
                    double sigma = 3.0) {
  Volume3D v(n, n, n);
  for (std::size_t z = 0; z < n; ++z) {
    for (std::size_t y = 0; y < n; ++y) {
      for (std::size_t x = 0; x < n; ++x) {
        const double d2 = (x - cx) * (x - cx) + (y - cy) * (y - cy) +
                          (z - cz) * (z - cz);
        v.at(x, y, z) = static_cast<float>(
            1000.0 * std::exp(-d2 / (2.0 * sigma * sigma)));
      }
    }
  }
  return v;
}

TEST(VolumeTest, IndexingAndTimeSeries) {
  Volume4D run(3, 4, 5, 6);
  run.at(1, 2, 3, 4) = 9.0f;
  EXPECT_FLOAT_EQ(run.at(1, 2, 3, 4), 9.0f);
  const auto series = run.VoxelTimeSeries(1, 2, 3);
  ASSERT_EQ(series.size(), 6u);
  EXPECT_DOUBLE_EQ(series[4], 9.0);
  run.SetVoxelTimeSeries(0, 0, 0, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(run.at(0, 0, 0, 2), 3.0f);
}

TEST(VolumeTest, ExtractAndSetVolumeRoundTrip) {
  Rng rng(1);
  Volume4D run(4, 4, 4, 3);
  for (float& v : run.flat()) v = static_cast<float>(rng.Gaussian());
  const Volume3D middle = run.ExtractVolume(1);
  Volume4D copy = run;
  copy.SetVolume(1, middle);
  for (std::size_t i = 0; i < run.size(); ++i) {
    EXPECT_FLOAT_EQ(copy.flat()[i], run.flat()[i]);
  }
}

TEST(AffineTest, IdentityTransformIsIdentityMatrix) {
  const RigidTransform identity;
  EXPECT_TRUE(identity.IsApproxIdentity());
  const linalg::Matrix m = RigidToAffine(identity, 5, 5, 5);
  EXPECT_TRUE(AlmostEqual(m, linalg::Matrix::Identity(4), 1e-14));
}

TEST(AffineTest, PureTranslation) {
  RigidTransform t;
  t.translate_x = 2.0;
  t.translate_y = -1.0;
  const linalg::Matrix m = RigidToAffine(t, 0, 0, 0);
  double x, y, z;
  ApplyAffine(m, 1, 1, 1, x, y, z);
  EXPECT_NEAR(x, 3.0, 1e-12);
  EXPECT_NEAR(y, 0.0, 1e-12);
  EXPECT_NEAR(z, 1.0, 1e-12);
}

TEST(AffineTest, RotationAboutCentreFixesCentre) {
  RigidTransform t;
  t.rotate_z = 0.5;
  const linalg::Matrix m = RigidToAffine(t, 10, 12, 14);
  double x, y, z;
  ApplyAffine(m, 10, 12, 14, x, y, z);
  EXPECT_NEAR(x, 10.0, 1e-10);
  EXPECT_NEAR(y, 12.0, 1e-10);
  EXPECT_NEAR(z, 14.0, 1e-10);
}

TEST(AffineTest, InverseComposesToIdentity) {
  RigidTransform t{1.0, -2.0, 0.5, 0.1, -0.2, 0.3};
  const linalg::Matrix m = RigidToAffine(t, 8, 8, 8);
  const auto inv = InvertAffine(m);
  ASSERT_TRUE(inv.ok());
  EXPECT_TRUE(AlmostEqual(linalg::MatMul(m, *inv), linalg::Matrix::Identity(4),
                          1e-10));
}

TEST(InterpolateTest, ExactAtGridPoints) {
  Rng rng(3);
  Volume3D v(4, 4, 4);
  for (float& f : v.flat()) f = static_cast<float>(rng.Uniform(0, 10));
  for (std::size_t z = 0; z < 4; ++z) {
    for (std::size_t y = 0; y < 4; ++y) {
      for (std::size_t x = 0; x < 4; ++x) {
        EXPECT_NEAR(SampleTrilinear(v, x, y, z), v.at(x, y, z), 1e-6);
        EXPECT_NEAR(SampleNearest(v, x, y, z), v.at(x, y, z), 1e-6);
      }
    }
  }
}

TEST(InterpolateTest, TrilinearExactOnLinearField) {
  Volume3D v(5, 5, 5);
  for (std::size_t z = 0; z < 5; ++z) {
    for (std::size_t y = 0; y < 5; ++y) {
      for (std::size_t x = 0; x < 5; ++x) {
        v.at(x, y, z) = static_cast<float>(2.0 * x - 3.0 * y + 0.5 * z + 1.0);
      }
    }
  }
  EXPECT_NEAR(SampleTrilinear(v, 1.5, 2.25, 3.75),
              2.0 * 1.5 - 3.0 * 2.25 + 0.5 * 3.75 + 1.0, 1e-5);
}

TEST(InterpolateTest, OutsideReturnsBackground) {
  Volume3D v(3, 3, 3, 5.0f);
  EXPECT_DOUBLE_EQ(SampleTrilinear(v, -0.5, 1, 1, -7.0), -7.0);
  EXPECT_DOUBLE_EQ(SampleTrilinear(v, 1, 1, 2.5, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(SampleNearest(v, 5, 1, 1, -7.0), -7.0);
}

TEST(ResampleTest, IdentityRigidKeepsVolume) {
  const Volume3D v = BlobVolume(12, 6, 6, 6);
  const auto out = ResampleRigid(v, RigidTransform{});
  ASSERT_TRUE(out.ok());
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(out->flat()[i], v.flat()[i], 1e-3);
  }
}

TEST(ResampleTest, TranslationMovesBlobCentroid) {
  const Volume3D v = BlobVolume(16, 6, 8, 8);
  RigidTransform t;
  t.translate_x = 3.0;  // Blob centre should move from x=6 to x=9.
  const auto out = ResampleRigid(v, t);
  ASSERT_TRUE(out.ok());
  double cx = 0.0, mass = 0.0;
  for (std::size_t z = 0; z < 16; ++z) {
    for (std::size_t y = 0; y < 16; ++y) {
      for (std::size_t x = 0; x < 16; ++x) {
        cx += x * out->at(x, y, z);
        mass += out->at(x, y, z);
      }
    }
  }
  EXPECT_NEAR(cx / mass, 9.0, 0.15);
}

TEST(ResampleTest, ResampleToGridPreservesLinearField) {
  Volume3D v(8, 8, 8);
  for (std::size_t z = 0; z < 8; ++z) {
    for (std::size_t y = 0; y < 8; ++y) {
      for (std::size_t x = 0; x < 8; ++x) {
        v.at(x, y, z) = static_cast<float>(x + 2.0 * y + 3.0 * z);
      }
    }
  }
  const auto out = ResampleToGrid(v, 15, 15, 15);
  ASSERT_TRUE(out.ok());
  // Corners map to corners under the grid scaling.
  EXPECT_NEAR(out->at(0, 0, 0), 0.0, 1e-4);
  EXPECT_NEAR(out->at(14, 14, 14), v.at(7, 7, 7), 1e-4);
}

TEST(SmoothTest, PreservesConstantVolume) {
  Volume3D v(10, 10, 10, 5.0f);
  const auto out = GaussianSmooth(v, 6.0);
  ASSERT_TRUE(out.ok());
  for (float f : out->flat()) EXPECT_NEAR(f, 5.0f, 1e-5);
}

TEST(SmoothTest, ReducesVariance) {
  Rng rng(5);
  Volume3D v(12, 12, 12);
  for (float& f : v.flat()) f = static_cast<float>(rng.Gaussian());
  const auto out = GaussianSmooth(v, 6.0);
  ASSERT_TRUE(out.ok());
  auto variance = [](const Volume3D& vol) {
    double mean = 0.0;
    for (float f : vol.flat()) mean += f;
    mean /= static_cast<double>(vol.size());
    double var = 0.0;
    for (float f : vol.flat()) var += (f - mean) * (f - mean);
    return var / static_cast<double>(vol.size());
  };
  EXPECT_LT(variance(*out), 0.3 * variance(v));
}

TEST(SmoothTest, FwhmZeroIsIdentityAndNegativeRejected) {
  const Volume3D v = BlobVolume(8, 4, 4, 4);
  const auto same = GaussianSmooth(v, 0.0);
  ASSERT_TRUE(same.ok());
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_FLOAT_EQ(same->flat()[i], v.flat()[i]);
  }
  EXPECT_FALSE(GaussianSmooth(v, -1.0).ok());
}

TEST(SmoothTest, FwhmToSigmaKnownValue) {
  EXPECT_NEAR(FwhmToSigma(2.3548), 1.0, 1e-3);
}

TEST(MaskTest, ThresholdSeparatesBrainFromBackground) {
  Volume4D run(10, 10, 10, 2, 0.0f);
  // Bright 4x4x4 cube in the middle.
  for (std::size_t z = 3; z < 7; ++z) {
    for (std::size_t y = 3; y < 7; ++y) {
      for (std::size_t x = 3; x < 7; ++x) {
        run.at(x, y, z, 0) = 1000.0f;
        run.at(x, y, z, 1) = 1000.0f;
      }
    }
  }
  const auto mask = ComputeBrainMask(run, 0.25);
  ASSERT_TRUE(mask.ok());
  EXPECT_EQ(mask->CountSet(), 64u);
  EXPECT_TRUE(mask->at(5, 5, 5));
  EXPECT_FALSE(mask->at(0, 0, 0));
}

TEST(MaskTest, ErodeRemovesSurface) {
  Mask mask(5, 5, 5);
  for (std::size_t z = 1; z < 4; ++z) {
    for (std::size_t y = 1; y < 4; ++y) {
      for (std::size_t x = 1; x < 4; ++x) mask.set(x, y, z, true);
    }
  }
  const Mask eroded = Erode(mask);
  EXPECT_EQ(eroded.CountSet(), 1u);  // Only the centre survives.
  EXPECT_TRUE(eroded.at(2, 2, 2));
}

TEST(MaskTest, ApplyMaskZeroesBackground) {
  Volume4D run(4, 4, 4, 2, 3.0f);
  Mask mask(4, 4, 4);
  mask.set(1, 1, 1, true);
  ApplyMask(run, mask);
  EXPECT_FLOAT_EQ(run.at(1, 1, 1, 0), 3.0f);
  EXPECT_FLOAT_EQ(run.at(0, 0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(run.at(2, 2, 2, 1), 0.0f);
}

TEST(MaskTest, AllZeroImageRejected) {
  const Volume4D run(4, 4, 4, 2, 0.0f);
  EXPECT_FALSE(ComputeBrainMask(run).ok());
}

// ---------------------------------------------------------------------------
// Registration

// Asymmetric two-blob image: a single radially symmetric blob would leave
// rotation unobservable.
Volume3D TwoBlobVolume() {
  Volume3D v = BlobVolume(20, 10, 8, 11, 4.0);
  const Volume3D second = BlobVolume(20, 14, 13, 7, 2.5);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v.flat()[i] += 0.7f * second.flat()[i];
  }
  return v;
}

// Every parameter negated: the inverse motion, up to the rotation order,
// which the small angles planted here make negligible.
RigidTransform Negated(const RigidTransform& t) {
  return {-t.translate_x, -t.translate_y, -t.translate_z,
          -t.rotate_x,    -t.rotate_y,    -t.rotate_z};
}

double ParameterRms(const RigidTransform& estimate,
                    const RigidTransform& truth) {
  const auto e = estimate.AsArray();
  const auto t = truth.AsArray();
  double sum = 0.0;
  for (std::size_t k = 0; k < 6; ++k) sum += (e[k] - t[k]) * (e[k] - t[k]);
  return std::sqrt(sum / 6.0);
}

class RegistrationRecoveryTest
    : public ::testing::TestWithParam<RigidTransform> {};

TEST_P(RegistrationRecoveryTest, RecoversKnownTransform) {
  const RigidTransform truth = GetParam();
  const Volume3D reference = TwoBlobVolume();
  // Moving image: reference displaced by the INVERSE motion, so aligning
  // it back needs exactly `truth`.
  const auto moving = ResampleRigid(reference, Negated(truth));
  ASSERT_TRUE(moving.ok());

  RegistrationOptions options;
  const auto reg = RegisterRigid(reference, *moving, options);
  ASSERT_TRUE(reg.ok());
  EXPECT_NEAR(reg->transform.translate_x, truth.translate_x, 0.25);
  EXPECT_NEAR(reg->transform.translate_y, truth.translate_y, 0.25);
  EXPECT_NEAR(reg->transform.translate_z, truth.translate_z, 0.25);
  // Rotations are small in this sweep; the rotation/translation trade-off
  // near a radially symmetric blob bounds achievable precision.
  EXPECT_NEAR(reg->transform.rotate_x, truth.rotate_x, 0.05);
  EXPECT_NEAR(reg->transform.rotate_y, truth.rotate_y, 0.05);
  EXPECT_NEAR(reg->transform.rotate_z, truth.rotate_z, 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Motions, RegistrationRecoveryTest,
    ::testing::Values(RigidTransform{0, 0, 0, 0, 0, 0},
                      RigidTransform{1.0, 0, 0, 0, 0, 0},
                      RigidTransform{-0.8, 1.2, 0.5, 0, 0, 0},
                      RigidTransform{0.4, -0.3, 0.9, 0, 0, 0.04},
                      RigidTransform{2.0, 1.5, -1.0, 0, 0, 0},
                      RigidTransform{0.3, 0.6, -0.4, 0.04, 0, 0},
                      RigidTransform{-0.5, 0.2, 0.7, 0, -0.04, 0}));

TEST(RegistrationTest, CostIsZeroAtPerfectAlignment) {
  const Volume3D v = BlobVolume(12, 6, 6, 6);
  EXPECT_NEAR(RegistrationCost(v, v, RigidTransform{}), 0.0, 1e-9);
  RigidTransform off;
  off.translate_x = 1.0;
  EXPECT_GT(RegistrationCost(v, v, off), 1.0);
}

TEST(RegistrationTest, RejectsMismatchedDims) {
  const Volume3D a = BlobVolume(8, 4, 4, 4);
  const Volume3D b = BlobVolume(10, 5, 5, 5);
  EXPECT_FALSE(RegisterRigid(a, b).ok());
}

// A featureless moving image has a zero gradient, so the 6x6 normal
// equations are singular: registration must stop at the identity, not fail
// or produce NaN.
TEST(RegistrationTest, ConstantVolumeRegistersToIdentity) {
  const Volume3D constant(12, 12, 12, 250.0f);
  for (const Volume3D& reference : {constant, BlobVolume(12, 6, 5, 7)}) {
    const auto reg = RegisterRigid(reference, constant);
    ASSERT_TRUE(reg.ok()) << reg.status();
    EXPECT_TRUE(reg->transform.IsApproxIdentity(0.0));
    EXPECT_TRUE(std::isfinite(reg->final_cost));
  }
}

TEST(RegistrationTest, AllZeroVolumeRegistersToIdentity) {
  const Volume3D zero(12, 12, 12);
  for (const Volume3D& reference : {zero, BlobVolume(12, 6, 5, 7)}) {
    const auto reg = RegisterRigid(reference, zero);
    ASSERT_TRUE(reg.ok()) << reg.status();
    EXPECT_TRUE(reg->transform.IsApproxIdentity(0.0));
    EXPECT_TRUE(std::isfinite(reg->final_cost));
  }
}

// On the rotation cases of the sweep above, Gauss–Newton lands at least as
// close to the planted transform as the derivative-free search oracle (RMS
// over the six parameters, voxels and radians mixed as in the sweep's
// tolerances).
TEST(RegistrationTest, RecoversRotationsAsWellAsSearchOracle) {
  const Volume3D reference = TwoBlobVolume();
  for (const RigidTransform& truth :
       {RigidTransform{0.4, -0.3, 0.9, 0, 0, 0.04},
        RigidTransform{0.3, 0.6, -0.4, 0.04, 0, 0},
        RigidTransform{-0.5, 0.2, 0.7, 0, -0.04, 0}}) {
    const auto moving = ResampleRigid(reference, Negated(truth));
    ASSERT_TRUE(moving.ok());
    const auto reg = RegisterRigid(reference, *moving);
    ASSERT_TRUE(reg.ok());
    const RegistrationResult oracle = SearchRegisterRigid(reference, *moving);
    const double gn_rms = ParameterRms(reg->transform, truth);
    const double oracle_rms = ParameterRms(oracle.transform, truth);
    EXPECT_LE(gn_rms, oracle_rms)
        << "planted (" << truth.translate_x << ", " << truth.translate_y
        << ", " << truth.translate_z << ", " << truth.rotate_x << ", "
        << truth.rotate_y << ", " << truth.rotate_z << ")";
  }
}

TEST(MotionCorrectTest, UndoesPlantedMotion) {
  const Volume3D base = BlobVolume(16, 8, 8, 8, 3.0);
  Volume4D run(16, 16, 16, 4);
  run.SetVolume(0, base);
  // Frames 1..3 displaced by increasing translations.
  for (std::size_t t = 1; t < 4; ++t) {
    RigidTransform shift;
    shift.translate_x = 0.5 * static_cast<double>(t);
    const auto moved = ResampleRigid(base, shift);
    ASSERT_TRUE(moved.ok());
    run.SetVolume(t, *moved);
  }
  const auto corrected = MotionCorrect(run);
  ASSERT_TRUE(corrected.ok());
  // Estimated motion magnitudes grow with t.
  EXPECT_NEAR(corrected->motion[1].translate_x, -0.5, 0.3);
  EXPECT_NEAR(corrected->motion[3].translate_x, -1.5, 0.3);
  // Corrected frames are closer to frame 0 than the raw ones.
  const Volume3D raw3 = run.ExtractVolume(3);
  const Volume3D fixed3 = corrected->corrected.ExtractVolume(3);
  const double raw_cost = RegistrationCost(base, raw3, RigidTransform{});
  const double fixed_cost = RegistrationCost(base, fixed3, RigidTransform{});
  EXPECT_LT(fixed_cost, 0.35 * raw_cost);
}

// A blank frame (dropout) registers to the identity under fail-fast: it is
// neither an error nor a degraded frame, and nothing turns NaN.
TEST(MotionCorrectTest, BlankFrameStaysIdentityUnderFailFast) {
  const Volume3D base = BlobVolume(16, 8, 7, 9, 3.0);
  Volume4D run(16, 16, 16, 4);
  for (std::size_t t = 0; t < 4; ++t) {
    if (t != 2) run.SetVolume(t, base);
  }
  RegistrationOptions options;
  ASSERT_FALSE(options.identity_fallback_on_failure);
  const auto corrected = MotionCorrect(run, options);
  ASSERT_TRUE(corrected.ok()) << corrected.status();
  EXPECT_TRUE(corrected->degraded_frames.empty());
  EXPECT_TRUE(corrected->motion[2].IsApproxIdentity(0.0));
  EXPECT_TRUE(corrected->corrected.AllFinite());
}

}  // namespace
}  // namespace neuroprint::image
