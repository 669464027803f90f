// Umbrella header: the full neuroprint public API.
//
// Include this for quick experiments; production code should include the
// specific module headers it uses (see README "Architecture").

#ifndef NEUROPRINT_NEUROPRINT_H_
#define NEUROPRINT_NEUROPRINT_H_

// Utilities.
#include "util/batch.h"          // FailurePolicy / BatchReport semantics.
#include "util/check.h"          // NP_CHECK fail-fast macros.
#include "util/csv_writer.h"     // CSV output.
#include "util/fault.h"          // Deterministic fault injection.
#include "util/logging.h"        // NP_LOG leveled logging.
#include "util/metrics.h"        // Counters / gauges / histograms registry.
#include "util/random.h"         // Seedable PCG64 RNG.
#include "util/status.h"         // Status / Result<T> error handling.
#include "util/stopwatch.h"      // Wall-clock timing.
#include "util/string_util.h"    // StrFormat and friends.
#include "util/thread_pool.h"    // Deterministic ParallelFor / thread knob.
#include "util/trace.h"          // NP_TRACE_SCOPE spans + chrome export.

// Dense linear algebra.
#include "linalg/cholesky.h"       // SPD factorization and solves.
#include "linalg/eig_sym.h"        // Symmetric eigendecomposition (QL).
#include "linalg/gemm_kernel.h"    // Tiled GEMM micro-kernels.
#include "linalg/lu.h"             // LU solve / inverse / determinant.
#include "linalg/matrix.h"         // Matrix type and gemm-like kernels.
#include "linalg/qr.h"             // Householder QR, least squares.
#include "linalg/simd/simd.h"      // Runtime-dispatched SIMD micro-kernels.
#include "linalg/stats.h"          // Correlation/covariance/z-score kernels.
#include "linalg/vector_ops.h"     // Level-1 vector kernels.

// Signal processing.
#include "signal/fft.h"          // Radix-2 + Bluestein FFT.
#include "signal/filters.h"      // Band-pass, detrend, confound regression.
#include "signal/resample.h"     // Temporal shifting / resampling.

// Imaging.
#include "image/affine.h"        // Rigid transforms and 4x4 affines.
#include "image/interpolate.h"   // Trilinear / nearest sampling.
#include "image/mask.h"          // Brain masking.
#include "image/registration.h"  // Rigid registration, motion correction.
#include "image/resample.h"      // Applying transforms to volumes.
#include "image/smooth.h"        // Gaussian smoothing.
#include "image/volume.h"        // Volume3D / Volume4D.

// NIfTI I/O.
#include "nifti/nifti_header.h"  // Header codec.
#include "nifti/nifti_io.h"      // .nii / .nii.gz read & write.

// Atlases.
#include "atlas/atlas.h"             // Label-volume parcellation.
#include "atlas/atlas_io.h"          // Atlas <-> NIfTI label images.
#include "atlas/region_timeseries.h" // Voxel x time -> region x time.
#include "atlas/synthetic_atlas.h"   // Voronoi parcellation generator.

// Preprocessing (the paper's Figure-4 pipeline).
#include "preprocess/pipeline.h"
#include "preprocess/motion_metrics.h"
#include "preprocess/slice_timing.h"

// Connectomes.
#include "connectome/connectome.h"           // Pearson connectomes.
#include "connectome/group_matrix.h"         // Features x subjects.
#include "connectome/group_matrix_io.h"      // Binary persistence.
#include "connectome/partial_correlation.h"  // Alternative coherence.

// Cohort simulation (the HCP / ADHD-200 substitute).
#include "sim/cohort.h"
#include "sim/hemodynamics.h"
#include "sim/task.h"
#include "sim/voxel_render.h"

// The attack and its companions (the paper's contribution).
#include "core/attack.h"            // DeanonymizationAttack facade.
#include "core/defense.h"           // Signature suppression (Discussion).
#include "core/knn.h"               // k-NN task classification.
#include "core/leverage.h"          // Leverage scores (Eq. 5).
#include "core/matcher.h"           // Similarity matching and stats.
#include "core/row_sampling.h"      // Randomized sampling (Alg. 1).
#include "core/signature_map.h"     // Edge -> region localization.
#include "core/svr.h"               // Linear epsilon-SVR.
#include "core/task_performance.h"  // Table-1 regression harness.
#include "core/tsne.h"              // t-SNE (Alg. 2).

// Gallery-scale identification service.
#include "service/identification_index.h"  // Sharded incremental index.
#include "service/synthetic_gallery.h"     // Seeded scale-test galleries.

#endif  // NEUROPRINT_NEUROPRINT_H_
