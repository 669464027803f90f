// Separable Gaussian spatial smoothing, parameterized by FWHM in
// millimetres as is conventional in fMRI pipelines.

#ifndef NEUROPRINT_IMAGE_SMOOTH_H_
#define NEUROPRINT_IMAGE_SMOOTH_H_

#include "image/volume.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace neuroprint::image {

/// Smooths `v` with an isotropic Gaussian of the given full-width at half
/// maximum (millimetres; converted per-axis using the voxel spacing).
/// FWHM 0 returns the input unchanged.
Result<Volume3D> GaussianSmooth(const Volume3D& v, double fwhm_mm);

/// Smooths every volume of a 4-D run; frames run in parallel under
/// `parallel`, which changes only wall-clock time.
Result<Volume4D> GaussianSmooth4D(const Volume4D& v, double fwhm_mm,
                                  const ParallelContext& parallel = {});

/// Converts FWHM to the Gaussian sigma (FWHM = 2 sqrt(2 ln 2) sigma).
double FwhmToSigma(double fwhm);

}  // namespace neuroprint::image

#endif  // NEUROPRINT_IMAGE_SMOOTH_H_
