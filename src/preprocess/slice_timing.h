// Slice-time correction: each axial slice of an fMRI volume is acquired at
// a different moment within the TR; this stage resamples every voxel's
// series onto the acquisition time of a reference slice.

#ifndef NEUROPRINT_PREPROCESS_SLICE_TIMING_H_
#define NEUROPRINT_PREPROCESS_SLICE_TIMING_H_

#include <vector>

#include "image/volume.h"
#include "signal/resample.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace neuroprint::preprocess {

/// Slice acquisition orders supported by the corrector.
enum class SliceOrder {
  kSequentialAscending,   ///< 0, 1, 2, ...
  kSequentialDescending,  ///< nz-1, nz-2, ...
  kInterleavedOdd,        ///< 0, 2, 4, ..., 1, 3, 5, ...
};

/// Fraction of the TR (in [0, 1)) at which each slice is acquired.
std::vector<double> SliceAcquisitionFractions(std::size_t nz, SliceOrder order);

/// Shifts every voxel's time series so all slices align to the acquisition
/// time of slice `reference_slice`. Each voxel's result is bitwise equal
/// to signal::ShiftSeries on its series; the interpolation taps are built
/// once per slice and voxel rows run in parallel, so `parallel` changes
/// only wall-clock time.
Result<image::Volume4D> SliceTimeCorrect(
    const image::Volume4D& run, SliceOrder order,
    std::size_t reference_slice = 0,
    signal::InterpKind interp = signal::InterpKind::kWindowedSinc,
    const ParallelContext& parallel = {});

}  // namespace neuroprint::preprocess

#endif  // NEUROPRINT_PREPROCESS_SLICE_TIMING_H_
