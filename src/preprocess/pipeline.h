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
//
// RunScansToColumns is the one scan-to-column path: it takes scans one at
// a time from a source, through this pipeline and the connectome, to a
// column sink, under a batch failure policy.

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

/// Version of what RunPipeline computes. It changes whenever the same scans
/// and the same PipelineConfig give different output, so a cache of
/// pipeline results keyed on it misses results written by another version.
/// 2: Gauss–Newton motion correction replaced the coordinate search.
inline constexpr int kPipelineVersion = 2;

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

  /// Batch semantics for RunScansToColumns: fail-fast (default),
  /// skip-and-report, or quorum. A non-fail-fast policy also arms
  /// RunPipeline's stage-level degradations (identity-transform fallback
  /// for unregistrable frames).
  FailurePolicy failure_policy;

  /// Fault injection for this call: a non-empty schedule replaces the
  /// process schedule (NEUROPRINT_FAULT) for one RunPipeline or for a
  /// whole RunScansToColumns call (see util/fault.h).
  fault::FaultConfig fault;
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

/// Produces scan `i` on demand (e.g. one nifti::ReadNifti per call), so a
/// cohort never has to materialize as a vector of volumes. A returned
/// error fails that scan at stage "load" under the batch failure policy.
using RunSource = std::function<Result<image::Volume4D>(std::size_t)>;

/// Receives survivor `index`'s connectome column. A returned error stops
/// RunScansToColumns, which returns it.
using ColumnSink =
    std::function<Status(std::size_t index, linalg::Vector column)>;

/// The scan-to-column path. For i = 0, 1, ..., num_runs - 1 it loads scan
/// i from `source`, runs RunPipeline, connectome::BuildConnectome(series,
/// config.parallel) and connectome::VectorizeUpperTriangle, and passes the
/// column to `sink` before it loads scan i + 1: one scan is in flight, and
/// the only parallelism is config.parallel inside each step.
///
/// A failing scan is reported at stage "load", "pipeline" or "connectome";
/// a survivor whose frames fell back to the identity transform is reported
/// at stage "motion_correction". Fail-fast stops at the first failing scan
/// and returns its Status, the lowest-index failure; skip-and-report and
/// quorum run every scan, then resolve the batch (see util/batch.h). `ids`
/// labels the report entries and may be empty. The sink keeps the columns
/// it received before a failure. The `pipeline.batch_item` fault point,
/// keyed by scan index, fails a scan at stage "pipeline".
Result<BatchReport> RunScansToColumns(const RunSource& source,
                                      std::size_t num_runs,
                                      const std::vector<std::string>& ids,
                                      const atlas::Atlas& atlas,
                                      const PipelineConfig& config,
                                      const ColumnSink& sink);

/// The temporal-cleanup tail of the pipeline on an existing region x time
/// matrix (used by the simulator's region-level fast path so both paths
/// share one implementation). `global_signal` may be empty to derive it
/// from the series themselves (mean across regions).
Status CleanRegionSeries(linalg::Matrix& series, const PipelineConfig& config,
                         double tr_seconds,
                         const std::vector<double>& global_signal = {});

}  // namespace neuroprint::preprocess

#endif  // NEUROPRINT_PREPROCESS_PIPELINE_H_
