#include "image/smooth.h"

#include <cmath>
#include <vector>

namespace neuroprint::image {
namespace {

// Discrete Gaussian kernel with radius 3 sigma, normalized to sum 1.
std::vector<double> GaussianKernel(double sigma_voxels) {
  const int radius = std::max(1, static_cast<int>(std::ceil(3.0 * sigma_voxels)));
  std::vector<double> kernel(static_cast<std::size_t>(2 * radius + 1));
  double sum = 0.0;
  for (int i = -radius; i <= radius; ++i) {
    const double w = std::exp(-0.5 * (i / sigma_voxels) * (i / sigma_voxels));
    kernel[static_cast<std::size_t>(i + radius)] = w;
    sum += w;
  }
  for (double& w : kernel) w /= sum;
  return kernel;
}

// 1-D convolution along one axis with edge clamping. `stride` is the
// element stride along the axis, `extent` the axis length; `line_start`
// indexes the first element of the line.
void ConvolveLine(const float* in, float* out, std::size_t line_start,
                  std::size_t stride, std::size_t extent,
                  const std::vector<double>& kernel) {
  const int radius = static_cast<int>(kernel.size() / 2);
  for (std::size_t i = 0; i < extent; ++i) {
    double acc = 0.0;
    for (int k = -radius; k <= radius; ++k) {
      std::ptrdiff_t j = static_cast<std::ptrdiff_t>(i) + k;
      if (j < 0) j = 0;
      if (j >= static_cast<std::ptrdiff_t>(extent)) {
        j = static_cast<std::ptrdiff_t>(extent) - 1;
      }
      acc += kernel[static_cast<std::size_t>(k + radius)] *
             static_cast<double>(
                 in[line_start + static_cast<std::size_t>(j) * stride]);
    }
    out[line_start + i * stride] = static_cast<float>(acc);
  }
}

}  // namespace

double FwhmToSigma(double fwhm) { return fwhm / (2.0 * std::sqrt(2.0 * std::log(2.0))); }

Result<Volume3D> GaussianSmooth(const Volume3D& v, double fwhm_mm) {
  if (v.empty()) return Status::InvalidArgument("GaussianSmooth: empty volume");
  if (fwhm_mm < 0.0) {
    return Status::InvalidArgument("GaussianSmooth: negative FWHM");
  }
  if (fwhm_mm == 0.0) return v;

  const VoxelSpacing& sp = v.spacing();
  if (sp.dx_mm <= 0.0 || sp.dy_mm <= 0.0 || sp.dz_mm <= 0.0) {
    return Status::InvalidArgument("GaussianSmooth: non-positive voxel size");
  }
  Volume3D work = v;
  Volume3D out = v;

  const std::size_t nx = v.nx(), ny = v.ny(), nz = v.nz();
  // X axis.
  {
    const auto kernel = GaussianKernel(FwhmToSigma(fwhm_mm) / sp.dx_mm);
    for (std::size_t z = 0; z < nz; ++z) {
      for (std::size_t y = 0; y < ny; ++y) {
        ConvolveLine(work.data(), out.data(), 0 + nx * (y + ny * z), 1, nx,
                     kernel);
      }
    }
    std::swap(work, out);
  }
  // Y axis.
  {
    const auto kernel = GaussianKernel(FwhmToSigma(fwhm_mm) / sp.dy_mm);
    for (std::size_t z = 0; z < nz; ++z) {
      for (std::size_t x = 0; x < nx; ++x) {
        ConvolveLine(work.data(), out.data(), x + nx * ny * z, nx, ny, kernel);
      }
    }
    std::swap(work, out);
  }
  // Z axis.
  {
    const auto kernel = GaussianKernel(FwhmToSigma(fwhm_mm) / sp.dz_mm);
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t x = 0; x < nx; ++x) {
        ConvolveLine(work.data(), out.data(), x + nx * y, nx * ny, nz, kernel);
      }
    }
  }
  return out;
}

Result<Volume4D> GaussianSmooth4D(const Volume4D& v, double fwhm_mm,
                                  const ParallelContext& parallel) {
  if (v.empty()) return Status::InvalidArgument("GaussianSmooth4D: empty run");
  Volume4D out = v;
  NP_RETURN_IF_ERROR(ParallelForStatus(
      parallel, 0, v.nt(), 1,
      [&](std::size_t t_lo, std::size_t t_hi) -> Status {
        for (std::size_t t = t_lo; t < t_hi; ++t) {
          auto smoothed = GaussianSmooth(v.ExtractVolume(t), fwhm_mm);
          if (!smoothed.ok()) return smoothed.status();
          out.SetVolume(t, *smoothed);
        }
        return Status::OK();
      }));
  return out;
}

}  // namespace neuroprint::image
