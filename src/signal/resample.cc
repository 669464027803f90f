#include "signal/resample.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace neuroprint::signal {
namespace {

constexpr double kPi = std::numbers::pi;
constexpr int kLanczosA = 4;

double Sinc(double x) {
  if (x == 0.0) return 1.0;
  const double px = kPi * x;
  return std::sin(px) / px;
}

double LanczosKernel(double x) {
  if (std::fabs(x) >= kLanczosA) return 0.0;
  return Sinc(x) * Sinc(x / kLanczosA);
}

std::size_t ClampIndex(std::ptrdiff_t i, std::size_t n) {
  return static_cast<std::size_t>(
      std::clamp<std::ptrdiff_t>(i, 0, static_cast<std::ptrdiff_t>(n) - 1));
}

double EvaluateAt(const std::vector<double>& x, double t, InterpKind kind) {
  return ApplyTaps(ComputeTaps(x.size(), t, kind),
                   [&x](std::size_t i) { return x[i]; });
}

}  // namespace

InterpTaps ComputeTaps(std::size_t n, double t, InterpKind kind) {
  InterpTaps taps;
  taps.kind = kind;
  const double n_minus_1 = static_cast<double>(n - 1);
  const double tc = std::clamp(t, 0.0, n_minus_1);
  switch (kind) {
    case InterpKind::kLinear: {
      const double floor_t = std::floor(tc);
      const auto i0 = static_cast<std::ptrdiff_t>(floor_t);
      const double frac = tc - floor_t;
      taps.count = 2;
      taps.index[0] = ClampIndex(i0, n);
      taps.index[1] = ClampIndex(i0 + 1, n);
      taps.weight[0] = 1.0 - frac;
      taps.weight[1] = frac;
      break;
    }
    case InterpKind::kWindowedSinc: {
      const auto center = static_cast<std::ptrdiff_t>(std::floor(tc));
      for (std::ptrdiff_t k = center - kLanczosA + 1; k <= center + kLanczosA;
           ++k) {
        const double w = LanczosKernel(tc - static_cast<double>(k));
        taps.index[taps.count] = ClampIndex(k, n);
        taps.weight[taps.count] = w;
        ++taps.count;
        taps.weight_sum += w;
      }
      break;
    }
  }
  return taps;
}

Result<std::vector<double>> ShiftSeries(const std::vector<double>& x,
                                        double shift, InterpKind kind) {
  if (x.empty()) return Status::InvalidArgument("ShiftSeries: empty input");
  if (!std::isfinite(shift)) {
    return Status::InvalidArgument("ShiftSeries: non-finite shift");
  }
  std::vector<double> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = EvaluateAt(x, static_cast<double>(i) + shift, kind);
  }
  return out;
}

Result<std::vector<double>> ResampleSeries(const std::vector<double>& x,
                                           double tr_in, double tr_out,
                                           InterpKind kind) {
  if (x.empty()) return Status::InvalidArgument("ResampleSeries: empty input");
  if (tr_in <= 0.0 || tr_out <= 0.0) {
    return Status::InvalidArgument("ResampleSeries: intervals must be positive");
  }
  const double span = tr_in * static_cast<double>(x.size() - 1);
  const std::size_t n_out =
      1 + static_cast<std::size_t>(std::floor(span / tr_out + 1e-9));
  std::vector<double> out(n_out);
  for (std::size_t i = 0; i < n_out; ++i) {
    const double t = static_cast<double>(i) * tr_out / tr_in;
    out[i] = EvaluateAt(x, t, kind);
  }
  return out;
}

}  // namespace neuroprint::signal
