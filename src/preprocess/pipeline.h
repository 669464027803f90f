// The fMRI preprocessing pipeline of the paper's Figure 4, as a composable
// stage sequence:
//
//   raw 4-D run
//     -> slice-time correction           (temporal resampling per slice)
//     -> head-motion correction          (rigid registration per frame)
//     -> brain masking                   (skull-strip analogue)
//     -> spatial smoothing               (Gaussian, FWHM in mm)
//     -> intensity normalization         (grand-mean scaling to 1000)
//     -> region averaging by atlas       (voxel x time -> region x time)
//     -> temporal cleanup on region series:
//          detrending, band-pass / high-pass, global-signal regression
//     -> z-score normalization
//
// Detrending, filtering, and regression are linear maps applied uniformly
// to every series, so they commute with region averaging; applying them
// after the atlas step is exact and orders of magnitude cheaper than
// filtering every voxel.

#ifndef NEUROPRINT_PREPROCESS_PIPELINE_H_
#define NEUROPRINT_PREPROCESS_PIPELINE_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "atlas/atlas.h"
#include "atlas/region_timeseries.h"
#include "image/mask.h"
#include "image/registration.h"
#include "image/smooth.h"
#include "image/volume.h"
#include "linalg/matrix.h"
#include "preprocess/slice_timing.h"
#include "signal/filters.h"
#include "util/batch.h"
#include "util/fault.h"
#include "util/status.h"
#include "util/trace.h"

namespace neuroprint::preprocess {

/// Temporal filtering profile.
enum class TemporalFilter {
  kNone,
  kRestingStateBandPass,  ///< 0.008–0.1 Hz (the paper's resting-state band).
  kTaskHighPass,          ///< 1/200 Hz high-pass (the paper's task cutoff).
};

struct PipelineConfig {
  bool slice_time_correction = true;
  SliceOrder slice_order = SliceOrder::kInterleavedOdd;

  bool motion_correction = true;
  image::RegistrationOptions registration;

  double mask_fraction = 0.25;

  double smoothing_fwhm_mm = 4.0;  ///< 0 disables smoothing.

  bool intensity_normalization = true;
  double grand_mean_target = 1000.0;

  int detrend_degree = 1;  ///< < 0 disables detrending.

  TemporalFilter temporal_filter = TemporalFilter::kRestingStateBandPass;

  bool global_signal_regression = true;

  bool zscore_series = true;

  /// Threads for every voxel stage (slice timing over voxel rows, motion
  /// correction and smoothing over frames, global signal and grand mean
  /// over frames) and every per-region cleanup stage. Never changes
  /// results (see util/thread_pool.h), only wall-clock time.
  ParallelContext parallel;

  /// Observability: `trace.enabled = true` collects per-stage spans and
  /// metrics for this run even when NEUROPRINT_TRACE is unset (see
  /// util/trace.h).
  trace::TraceConfig trace;

  /// Batch semantics for RunPipelineBatch: fail-fast (default, the
  /// pre-existing behavior), skip-and-report, or quorum. A non-fail-fast
  /// policy also arms the stage-level degradations (identity-transform
  /// fallback for unregistrable frames).
  FailurePolicy failure_policy;

  /// Fault injection for this call: a non-empty schedule replaces the
  /// process schedule (NEUROPRINT_FAULT) for the run (see util/fault.h).
  fault::FaultConfig fault;

  /// Bounded-memory knob for the streaming RunPipelineBatch overload: at
  /// most this many raw runs are resident at once (0 = the whole batch).
  /// Completed region series spill to disk (util/spill.h) until the batch
  /// resolves. Never changes results or report contents, only peak RSS.
  std::size_t max_in_flight = 0;
};

/// Preset matching the paper's resting-state processing.
PipelineConfig RestingStateConfig();

/// Preset matching the paper's task processing (high-pass, no GSR).
PipelineConfig TaskConfig();

/// Everything the pipeline produces besides the series: provenance that
/// downstream QC and the benches report.
struct PipelineOutput {
  linalg::Matrix region_series;  ///< regions x time, cleaned (+ z-scored).
  image::Mask mask;
  std::vector<image::RigidTransform> motion;  ///< Empty if correction off.
  std::vector<std::pair<std::string, double>> stage_seconds;  ///< Timing log.
  /// Frames kept under the identity-transform registration fallback
  /// (non-empty only when the failure policy armed degradations).
  std::vector<std::size_t> degraded_frames;
};

/// Runs the full pipeline. The atlas grid must match the run grid.
Result<PipelineOutput> RunPipeline(const image::Volume4D& raw,
                                   const atlas::Atlas& atlas,
                                   const PipelineConfig& config);

/// Survivors of a multi-run batch: outputs[k] is the pipeline output of
/// runs[indices[k]]; the report names every dropped or degraded run.
struct PipelineBatchOutput {
  std::vector<PipelineOutput> outputs;
  std::vector<std::size_t> indices;
  BatchReport report;
};

/// Runs the pipeline over a batch of runs under config.failure_policy:
/// fail-fast returns the lowest-index failure; skip-and-report / quorum
/// drop failed runs into the report and keep going (see util/batch.h).
/// `ids` labels the report entries and may be empty. The same batch loop
/// as the RunSource overload, with the runs read in place: the window is
/// the whole batch and nothing spills (config.max_in_flight is ignored).
Result<PipelineBatchOutput> RunPipelineBatch(
    const std::vector<image::Volume4D>& runs,
    const std::vector<std::string>& ids, const atlas::Atlas& atlas,
    const PipelineConfig& config);

/// Produces run `i` on demand — e.g. decode one NIfTI at a time via
/// nifti::NiftiStreamReader — so a cohort never has to materialize as a
/// vector of volumes. A returned error fails that run (stage "load")
/// under the batch failure policy, like any pipeline failure.
using RunSource = std::function<Result<image::Volume4D>(std::size_t)>;

/// Bounded-memory batch: identical outputs, report entries, and failure
/// semantics to the vector overload over the same runs, but raw volumes
/// are pulled from `source` in windows of config.max_in_flight and each
/// window's region series spill to disk until the batch resolves. Peak
/// RSS is O(max_in_flight) raw runs instead of O(num_runs); every run is
/// attempted before the policy resolves, exactly like the vector
/// overload. The `io.spill` fault point fires on the spill columns.
Result<PipelineBatchOutput> RunPipelineBatch(
    const RunSource& source, std::size_t num_runs,
    const std::vector<std::string>& ids, const atlas::Atlas& atlas,
    const PipelineConfig& config);

/// The temporal-cleanup tail of the pipeline on an existing region x time
/// matrix (used by the simulator's region-level fast path so both paths
/// share one implementation). `global_signal` may be empty to derive it
/// from the series themselves (mean across regions).
Status CleanRegionSeries(linalg::Matrix& series, const PipelineConfig& config,
                         double tr_seconds,
                         const std::vector<double>& global_signal = {});

}  // namespace neuroprint::preprocess

#endif  // NEUROPRINT_PREPROCESS_PIPELINE_H_
