#include "image/registration.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "image/interpolate.h"
#include "image/resample.h"
#include "linalg/cholesky.h"
#include "util/fault.h"
#include "util/metrics.h"

namespace neuroprint::image {
namespace {

// Gauss–Newton stops after this many linearizations, when the predicted
// decrease falls below kRelativeTolerance times the cost, or when a step
// and its kMaxHalvings halvings all fail to lower the cost.
constexpr int kMaxIterations = 12;
constexpr int kMaxHalvings = 2;
constexpr double kRelativeTolerance = 1e-4;

// A 3x4 affine [A | t], row-major: maps a reference voxel to the point at
// which the moving image is sampled (the inverse of the rigid transform).
using Warp = std::array<double, 12>;

Warp WarpFromMatrix(const linalg::Matrix& m) {
  Warp w;
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) w[4 * r + c] = m(r, c);
  }
  return w;
}

// w · d for two 3x4 affines read as 4x4 with a (0 0 0 1) last row.
Warp Compose(const Warp& w, const Warp& d) {
  Warp out;
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      double sum = w[4 * r] * d[c] + w[4 * r + 1] * d[4 + c] +
                   w[4 * r + 2] * d[8 + c];
      if (c == 3) sum += w[4 * r + 3];
      out[4 * r + c] = sum;
    }
  }
  return out;
}

// Mean squared error of `moving` sampled under `w` against `reference`, on
// every stride-th voxel per axis.
double WarpCost(const Volume3D& reference, const Volume3D& moving,
                const Warp& w, std::size_t stride) {
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t z = 0; z < reference.nz(); z += stride) {
    for (std::size_t y = 0; y < reference.ny(); y += stride) {
      for (std::size_t x = 0; x < reference.nx(); x += stride) {
        const auto px = static_cast<double>(x);
        const auto py = static_cast<double>(y);
        const auto pz = static_cast<double>(z);
        const double sx = w[0] * px + w[1] * py + w[2] * pz + w[3];
        const double sy = w[4] * px + w[5] * py + w[6] * pz + w[7];
        const double sz = w[8] * px + w[9] * py + w[10] * pz + w[11];
        const double diff = SampleTrilinear(moving, sx, sy, sz) -
                            static_cast<double>(reference.at(x, y, z));
        sum += diff * diff;
        ++count;
      }
    }
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

// The Gauss–Newton normal equations of the cost at `w` for a step
// w <- w · Δ(q), Δ a rigid transform about the centre (cx, cy, cz) with
// q = (tx, ty, tz, rx, ry, rz): h holds the upper triangle of JᵀJ (row-major),
// b = Jᵀr, both divided by the sample count like the cost. `cost` is
// WarpCost at `w`, bit for bit: the same samples in the same order,
// interpolated with SampleTrilinear's arithmetic.
struct NormalEquations {
  std::array<double, 21> h{};
  std::array<double, 6> b{};
  double cost = 0.0;
};

NormalEquations Linearize(const Volume3D& reference, const Volume3D& moving,
                          const Warp& w, std::size_t stride, double cx,
                          double cy, double cz) {
  NormalEquations eq;
  const double max_x = static_cast<double>(moving.nx()) - 1.0;
  const double max_y = static_cast<double>(moving.ny()) - 1.0;
  const double max_z = static_cast<double>(moving.nz()) - 1.0;
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t z = 0; z < reference.nz(); z += stride) {
    for (std::size_t y = 0; y < reference.ny(); y += stride) {
      for (std::size_t x = 0; x < reference.nx(); x += stride) {
        ++count;
        const auto px = static_cast<double>(x);
        const auto py = static_cast<double>(y);
        const auto pz = static_cast<double>(z);
        const double sx = w[0] * px + w[1] * py + w[2] * pz + w[3];
        const double sy = w[4] * px + w[5] * py + w[6] * pz + w[7];
        const double sz = w[8] * px + w[9] * py + w[10] * pz + w[11];
        const double ref = static_cast<double>(reference.at(x, y, z));
        // Outside the field of view the sample is the constant 0, so its
        // derivative is zero and it adds nothing to h or b.
        if (!(sx >= 0.0 && sy >= 0.0 && sz >= 0.0 && sx <= max_x &&
              sy <= max_y && sz <= max_z)) {
          const double r = 0.0 - ref;
          sum += r * r;
          continue;
        }
        // Truncation is floor on these non-negative coordinates.
        const auto x0 =
            static_cast<std::size_t>(static_cast<std::ptrdiff_t>(sx));
        const auto y0 =
            static_cast<std::size_t>(static_cast<std::ptrdiff_t>(sy));
        const auto z0 =
            static_cast<std::size_t>(static_cast<std::ptrdiff_t>(sz));
        const std::size_t x1 = std::min(x0 + 1, moving.nx() - 1);
        const std::size_t y1 = std::min(y0 + 1, moving.ny() - 1);
        const std::size_t z1 = std::min(z0 + 1, moving.nz() - 1);
        const double fx = sx - static_cast<double>(x0);
        const double fy = sy - static_cast<double>(y0);
        const double fz = sz - static_cast<double>(z0);
        const double c000 = moving.at(x0, y0, z0);
        const double c100 = moving.at(x1, y0, z0);
        const double c010 = moving.at(x0, y1, z0);
        const double c110 = moving.at(x1, y1, z0);
        const double c001 = moving.at(x0, y0, z1);
        const double c101 = moving.at(x1, y0, z1);
        const double c011 = moving.at(x0, y1, z1);
        const double c111 = moving.at(x1, y1, z1);
        const double c00 = c000 * (1 - fx) + c100 * fx;
        const double c10 = c010 * (1 - fx) + c110 * fx;
        const double c01 = c001 * (1 - fx) + c101 * fx;
        const double c11 = c011 * (1 - fx) + c111 * fx;
        const double c0 = c00 * (1 - fy) + c10 * fy;
        const double c1 = c01 * (1 - fy) + c11 * fy;
        const double value = c0 * (1 - fz) + c1 * fz;
        const double r = value - ref;
        sum += r * r;

        // The trilinear gradient in the moving image's voxel axes...
        const double gx =
            ((c100 - c000) * (1 - fy) + (c110 - c010) * fy) * (1 - fz) +
            ((c101 - c001) * (1 - fy) + (c111 - c011) * fy) * fz;
        const double gy = (c10 - c00) * (1 - fz) + (c11 - c01) * fz;
        const double gz = c1 - c0;
        // ...carried into reference axes by the warp's linear part (Aᵀg):
        // the translation derivatives of the composed sample point.
        const double hx = w[0] * gx + w[4] * gy + w[8] * gz;
        const double hy = w[1] * gx + w[5] * gy + w[9] * gz;
        const double hz = w[2] * gx + w[6] * gy + w[10] * gz;
        // A rotation about axis e moves p by e × d (d = p - centre), so its
        // derivative is hᵀ(e × d) = e · (d × h).
        const double dx = px - cx, dy = py - cy, dz = pz - cz;
        const std::array<double, 6> j = {hx,
                                         hy,
                                         hz,
                                         dy * hz - dz * hy,
                                         dz * hx - dx * hz,
                                         dx * hy - dy * hx};
        std::size_t k = 0;
        for (std::size_t a = 0; a < 6; ++a) {
          for (std::size_t col = a; col < 6; ++col) eq.h[k++] += j[a] * j[col];
          eq.b[a] += j[a] * r;
        }
      }
    }
  }
  if (count > 0) {
    const double inv = 1.0 / static_cast<double>(count);
    for (double& v : eq.h) v *= inv;
    for (double& v : eq.b) v *= inv;
    eq.cost = sum / static_cast<double>(count);
  }
  return eq;
}

// Solves h q = -b. False when h is not positive definite (featureless
// input, where the cost is flat in some direction): no step is taken then.
bool SolveStep(const NormalEquations& eq, std::array<double, 6>& q) {
  linalg::Matrix h(6, 6);
  linalg::Vector minus_b(6);
  std::size_t k = 0;
  for (std::size_t a = 0; a < 6; ++a) {
    for (std::size_t c = a; c < 6; ++c) h(a, c) = h(c, a) = eq.h[k++];
    minus_b[a] = -eq.b[a];
  }
  Result<linalg::Matrix> l = linalg::CholeskyDecompose(h);
  if (!l.ok()) return false;
  Result<linalg::Vector> step = linalg::CholeskySolve(*l, minus_b);
  if (!step.ok()) return false;
  std::copy(step->begin(), step->end(), q.begin());
  return true;
}

// The rigid transform whose inverse is `w`: T = w⁻¹ = [R | c - Rc + t],
// with R = Rz·Ry·Rx (see RigidToAffine).
Result<RigidTransform> TransformFromWarp(const Warp& w, double cx, double cy,
                                         double cz) {
  linalg::Matrix m = linalg::Matrix::Identity(4);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) m(r, c) = w[4 * r + c];
  }
  linalg::Matrix t;
  NP_ASSIGN_OR_RETURN(t, InvertAffine(m));
  RigidTransform out;
  out.rotate_y = std::asin(std::clamp(-t(2, 0), -1.0, 1.0));
  out.rotate_x = std::atan2(t(2, 1), t(2, 2));
  out.rotate_z = std::atan2(t(1, 0), t(0, 0));
  const double centre[3] = {cx, cy, cz};
  double* translate[3] = {&out.translate_x, &out.translate_y,
                          &out.translate_z};
  for (std::size_t r = 0; r < 3; ++r) {
    *translate[r] = t(r, 3) - centre[r] + t(r, 0) * cx + t(r, 1) * cy +
                    t(r, 2) * cz;
  }
  return out;
}

}  // namespace

double RegistrationCost(const Volume3D& reference, const Volume3D& moving,
                        const RigidTransform& t, std::size_t sample_stride) {
  NP_CHECK(reference.nx() == moving.nx() && reference.ny() == moving.ny() &&
           reference.nz() == moving.nz())
      << "RegistrationCost: dimension mismatch";
  const double cx = 0.5 * (static_cast<double>(moving.nx()) - 1.0);
  const double cy = 0.5 * (static_cast<double>(moving.ny()) - 1.0);
  const double cz = 0.5 * (static_cast<double>(moving.nz()) - 1.0);
  // The cost evaluates moving at T^{-1}(p); build the inverse once.
  auto inverse = InvertAffine(RigidToAffine(t, cx, cy, cz));
  if (!inverse.ok()) return std::numeric_limits<double>::infinity();
  return WarpCost(reference, moving, WarpFromMatrix(*inverse),
                  std::max<std::size_t>(1, sample_stride));
}

Result<RegistrationResult> RegisterRigid(const Volume3D& reference,
                                         const Volume3D& moving,
                                         const RegistrationOptions& options) {
  if (reference.empty() || moving.empty()) {
    return Status::InvalidArgument("RegisterRigid: empty volume");
  }
  if (reference.nx() != moving.nx() || reference.ny() != moving.ny() ||
      reference.nz() != moving.nz()) {
    return Status::InvalidArgument("RegisterRigid: dimension mismatch");
  }
  if (!reference.AllFinite() || !moving.AllFinite()) {
    return Status::InvalidArgument("RegisterRigid: non-finite voxels");
  }
  const std::size_t stride = std::max<std::size_t>(1, options.sample_stride);
  const double cx = 0.5 * (static_cast<double>(moving.nx()) - 1.0);
  const double cy = 0.5 * (static_cast<double>(moving.ny()) - 1.0);
  const double cz = 0.5 * (static_cast<double>(moving.nz()) - 1.0);

  Warp w = {1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0};
  double cost = 0.0;
  bool moved = false;
  for (int iteration = 0; iteration < kMaxIterations; ++iteration) {
    const NormalEquations eq =
        Linearize(reference, moving, w, stride, cx, cy, cz);
    cost = eq.cost;
    std::array<double, 6> q;
    if (!SolveStep(eq, q)) break;
    // Under the linear model the step lowers the cost by -bᵀq.
    double predicted = 0.0;
    for (std::size_t k = 0; k < 6; ++k) predicted -= eq.b[k] * q[k];
    if (!(predicted > kRelativeTolerance * cost)) break;
    bool accepted = false;
    for (int halving = 0; halving <= kMaxHalvings && !accepted; ++halving) {
      const Warp trial = Compose(
          w, WarpFromMatrix(RigidToAffine(RigidTransform::FromArray(q), cx,
                                          cy, cz)));
      const double trial_cost = WarpCost(reference, moving, trial, stride);
      if (trial_cost < cost) {
        w = trial;
        cost = trial_cost;
        accepted = true;
      } else {
        for (double& v : q) v *= 0.5;
      }
    }
    if (!accepted) break;
    moved = true;
  }

  RegistrationResult result;
  if (moved) {
    NP_ASSIGN_OR_RETURN(result.transform, TransformFromWarp(w, cx, cy, cz));
  }
  result.final_cost = cost;
  return result;
}

Result<MotionCorrectionResult> MotionCorrect(
    const Volume4D& run, const RegistrationOptions& options,
    const ParallelContext& parallel) {
  if (run.empty()) return Status::InvalidArgument("MotionCorrect: empty run");
  MotionCorrectionResult out;
  out.corrected = run;
  out.motion.resize(run.nt());

  const Volume3D reference = run.ExtractVolume(0);
  // Each frame writes only its own motion entry, corrected volume and
  // flag, so frames run in any order on any thread.
  std::vector<char> degraded(run.nt(), 0);
  NP_RETURN_IF_ERROR(ParallelForStatus(
      parallel, 1, run.nt(), 1,
      [&](std::size_t t_lo, std::size_t t_hi) -> Status {
        for (std::size_t t = t_lo; t < t_hi; ++t) {
          const Volume3D frame = run.ExtractVolume(t);
          // A fault injected at this point behaves exactly like the
          // frame's registration failing, so it exercises the fallback
          // path too. The point is keyed by frame, so which frames fire
          // does not depend on scheduling.
          Status injected = Status::OK();
          if (fault::Enabled()) {
            injected = fault::InjectedError("pipeline.motion_correct", t);
          }
          Result<RegistrationResult> reg =
              injected.ok() ? RegisterRigid(reference, frame, options)
                            : Result<RegistrationResult>(injected);
          if (!reg.ok()) {
            if (!options.identity_fallback_on_failure) return reg.status();
            // Degrade instead of failing: the frame stays unregistered
            // under the identity transform (out.corrected already holds
            // it).
            out.motion[t] = RigidTransform{};
            degraded[t] = 1;
            continue;
          }
          out.motion[t] = reg->transform;
          if (!reg->transform.IsApproxIdentity(1e-9)) {
            auto resampled = ResampleRigid(frame, reg->transform);
            if (!resampled.ok()) return resampled.status();
            out.corrected.SetVolume(t, *resampled);
          }
        }
        return Status::OK();
      }));
  for (std::size_t t = 1; t < run.nt(); ++t) {
    if (degraded[t]) out.degraded_frames.push_back(t);
  }
  if (!out.degraded_frames.empty()) {
    metrics::Count("pipeline.frames_degraded", out.degraded_frames.size());
    metrics::Count("pipeline.scans_degraded", 1);
  }
  return out;
}

}  // namespace neuroprint::image
