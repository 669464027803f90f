// Temporal resampling of one series onto shifted sample times — the
// primitive behind slice-time correction (each axial slice of an fMRI
// volume is acquired at a slightly different moment within the TR; slice
// timing shifts every slice's series onto a common time grid).

#ifndef NEUROPRINT_SIGNAL_RESAMPLE_H_
#define NEUROPRINT_SIGNAL_RESAMPLE_H_

#include <array>
#include <cstddef>
#include <vector>

#include "util/status.h"

namespace neuroprint::signal {

/// Interpolation kernels for ShiftSeries.
enum class InterpKind {
  kLinear,        ///< Piecewise-linear; cheap, slight high-frequency loss.
  kWindowedSinc,  ///< Lanczos-windowed sinc (a = 4); near-ideal for smooth series.
};

/// The source samples and weights that evaluate a series at one time
/// point. They depend only on (series length, t, kind), so a caller that
/// evaluates many equal-length series at the same times (slice timing:
/// every voxel of a slice) builds them once and applies them per series.
struct InterpTaps {
  static constexpr std::size_t kMaxTaps = 8;
  InterpKind kind = InterpKind::kLinear;
  std::size_t count = 0;                     ///< Taps in use.
  std::array<std::size_t, kMaxTaps> index{};  ///< Clamped source indices.
  std::array<double, kMaxTaps> weight{};
  double weight_sum = 0.0;  ///< kWindowedSinc renormalization.
};

/// Taps evaluating a length-n (n >= 1) series at t (in samples), clamping
/// at the boundaries.
InterpTaps ComputeTaps(std::size_t n, double t, InterpKind kind);

/// Evaluates a series through `taps`; sample(i) returns source sample i
/// as a double. Every evaluation in this module goes through here, so a
/// precomputed tap table reproduces ShiftSeries bit for bit.
template <typename Sample>
double ApplyTaps(const InterpTaps& taps, const Sample& sample) {
  if (taps.kind == InterpKind::kLinear) {
    return taps.weight[0] * sample(taps.index[0]) +
           taps.weight[1] * sample(taps.index[1]);
  }
  double value = 0.0;
  for (std::size_t k = 0; k < taps.count; ++k) {
    value += taps.weight[k] * sample(taps.index[k]);
  }
  // Renormalize near boundaries where the kernel is truncated.
  return taps.weight_sum != 0.0 ? value / taps.weight_sum : value;
}

/// Evaluates the series at t = i + shift (in samples) for every index i,
/// clamping at the boundaries. `shift` in (-1, 1) covers slice timing.
Result<std::vector<double>> ShiftSeries(const std::vector<double>& x,
                                        double shift, InterpKind kind);

/// Resamples `x` (sampled at interval tr_in) onto a grid with interval
/// tr_out, covering the same time span.
Result<std::vector<double>> ResampleSeries(const std::vector<double>& x,
                                           double tr_in, double tr_out,
                                           InterpKind kind);

}  // namespace neuroprint::signal

#endif  // NEUROPRINT_SIGNAL_RESAMPLE_H_
