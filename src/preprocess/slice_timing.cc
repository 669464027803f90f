#include "preprocess/slice_timing.h"

namespace neuroprint::preprocess {

std::vector<double> SliceAcquisitionFractions(std::size_t nz,
                                              SliceOrder order) {
  std::vector<double> fractions(nz, 0.0);
  if (nz == 0) return fractions;
  const double step = 1.0 / static_cast<double>(nz);
  switch (order) {
    case SliceOrder::kSequentialAscending:
      for (std::size_t z = 0; z < nz; ++z) {
        fractions[z] = static_cast<double>(z) * step;
      }
      break;
    case SliceOrder::kSequentialDescending:
      for (std::size_t z = 0; z < nz; ++z) {
        fractions[z] = static_cast<double>(nz - 1 - z) * step;
      }
      break;
    case SliceOrder::kInterleavedOdd: {
      std::size_t position = 0;
      for (std::size_t z = 0; z < nz; z += 2) {
        fractions[z] = static_cast<double>(position++) * step;
      }
      for (std::size_t z = 1; z < nz; z += 2) {
        fractions[z] = static_cast<double>(position++) * step;
      }
      break;
    }
  }
  return fractions;
}

Result<image::Volume4D> SliceTimeCorrect(const image::Volume4D& run,
                                         SliceOrder order,
                                         std::size_t reference_slice,
                                         signal::InterpKind interp,
                                         const ParallelContext& parallel) {
  if (run.empty()) {
    return Status::InvalidArgument("SliceTimeCorrect: empty run");
  }
  if (reference_slice >= run.nz()) {
    return Status::InvalidArgument(
        "SliceTimeCorrect: reference slice out of range");
  }
  const std::vector<double> fractions =
      SliceAcquisitionFractions(run.nz(), order);
  const std::size_t nx = run.nx(), ny = run.ny(), nz = run.nz();
  const std::size_t nt = run.nt();

  // A slice acquired `delta` TRs later than the reference holds sample
  // s(t + delta) at index t; the value aligned to the reference's time
  // grid is s(t), i.e. the series evaluated at index t - delta. The taps
  // for that depend only on the slice, so each slice gets one table of nt
  // entries (empty for slices that need no shift).
  std::vector<std::vector<signal::InterpTaps>> tables(nz);
  ParallelFor(parallel, 0, nz, 1, [&](std::size_t z_lo, std::size_t z_hi) {
    for (std::size_t z = z_lo; z < z_hi; ++z) {
      const double delta = fractions[z] - fractions[reference_slice];
      if (delta == 0.0) continue;
      const double shift = -delta;
      tables[z].resize(nt);
      for (std::size_t i = 0; i < nt; ++i) {
        tables[z][i] =
            signal::ComputeTaps(nt, static_cast<double>(i) + shift, interp);
      }
    }
  });

  image::Volume4D out = run;
  const std::size_t stride = run.voxels_per_volume();
  const float* src = run.data();
  float* dst = out.data();
  // One item is an x-row of one slice; rows write disjoint voxels.
  ParallelFor(
      parallel, 0, nz * ny,
      GrainForWork(nx * nt * signal::InterpTaps::kMaxTaps),
      [&](std::size_t row_lo, std::size_t row_hi) {
        for (std::size_t row = row_lo; row < row_hi; ++row) {
          const std::vector<signal::InterpTaps>& table = tables[row / ny];
          if (table.empty()) continue;
          // Output-time outer, x inner: one tap set serves the whole row,
          // reading nx contiguous floats per source frame.
          for (std::size_t i = 0; i < nt; ++i) {
            const signal::InterpTaps& taps = table[i];
            for (std::size_t x = 0; x < nx; ++x) {
              const std::size_t voxel = x + nx * row;
              const double value = signal::ApplyTaps(taps, [&](std::size_t t) {
                return static_cast<double>(src[voxel + t * stride]);
              });
              dst[voxel + i * stride] = static_cast<float>(value);
            }
          }
        }
      });
  return out;
}

}  // namespace neuroprint::preprocess
