// Reading and writing NIfTI-1 images (.nii and .nii.gz).
//
// Voxel values are converted to float on read, applying the scl_slope /
// scl_inter scaling; integer outputs are auto-scaled on write so the full
// intensity range survives quantization.

#ifndef NEUROPRINT_NIFTI_NIFTI_IO_H_
#define NEUROPRINT_NIFTI_NIFTI_IO_H_

#include <string>

#include "image/volume.h"
#include "nifti/nifti_header.h"
#include "util/status.h"

namespace neuroprint::nifti {

/// A decoded NIfTI file: the header plus the voxel data as a 4-D volume
/// (3-D images get nt() == 1).
struct NiftiImage {
  NiftiHeader header;
  image::Volume4D data;
};

/// Reads a .nii or .nii.gz file (gzip detected by magic bytes, not the
/// extension) in one forward pass: the header is validated first, and
/// its voxel byte count is checked against what the file can hold (its
/// size, or 1032x its size when gzipped) before anything is allocated;
/// frames then decode one at a time straight into the result. Returns
/// CorruptData / Unimplemented / IOError on failure.
Result<NiftiImage> ReadNifti(const std::string& path);

struct WriteOptions {
  DataType datatype = DataType::kFloat32;
  /// Compress with gzip. Default: inferred from a ".gz" path suffix.
  enum class Compression { kAuto, kNever, kAlways };
  Compression compression = Compression::kAuto;
  /// For integer datatypes: map the intensity range onto the type range
  /// via scl_slope/scl_inter (lossy but range-preserving). Disable when
  /// the voxel values are already exact integers (label images) so they
  /// round-trip bit-exactly with slope 1.
  bool integer_autoscale = true;
  std::string description = "neuroprint";
};

/// Writes `volume` as a single-file NIfTI-1 image. Voxel spacing and TR
/// are taken from volume.spacing().
Status WriteNifti(const std::string& path, const image::Volume4D& volume,
                  const WriteOptions& options = {});

/// Convenience overload for a single 3-D volume.
Status WriteNifti3D(const std::string& path, const image::Volume3D& volume,
                    const WriteOptions& options = {});

}  // namespace neuroprint::nifti

#endif  // NEUROPRINT_NIFTI_NIFTI_IO_H_
